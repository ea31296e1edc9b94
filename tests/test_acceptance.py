"""End-to-end acceptance suite.

Each test evaluates one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (echoed in the terminal summary).  Ensemble
criteria use fixed seed ranges so every run is reproducible.
"""

import math
import time
from dataclasses import replace

import numpy as np

import conftest
from sykteleport import analysis, cli, layout, models, protocol, qop, tfd

G_GRID = tuple(np.arange(0.0, 4 * math.pi + 1e-12, math.pi / 50))  # 201 points
BETA_GRID = analysis.DEFAULT_BETA_GRID
T1 = protocol.DEFAULT_T_SINGLE
TB = protocol.DEFAULT_T_BELL

_runtimes = {}


def _report(number, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    extra = f" ({detail})" if detail else ""
    line = f"[{status}] criterion {number}: {label}{extra}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, f"criterion {number} failed: {label} {extra}"


def _timed(number, limit_s):
    def wrap(fn):
        def inner(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            _runtimes[number] = elapsed
            assert elapsed < limit_s, (
                f"criterion {number} runtime {elapsed:.1f}s exceeds {limit_s}s")
            return out
        return inner
    return wrap


def bell_peak_curves(seeds, betas, t_bell=TB):
    """Per-seed peak-over-g Bell fidelity at fixed protocol time."""
    peaks = np.zeros((len(seeds), len(betas)))
    mean_curves = np.zeros((len(betas), len(G_GRID)))
    for si, seed in enumerate(seeds):
        eng = protocol.get_engine(protocol.ProtocolConfig(
            message="bell_phi_plus", swap_variant="bell_sequential", seed=seed))
        for bi, beta in enumerate(betas):
            curve = eng.curve_bell(beta, t_bell, G_GRID)
            peaks[si, bi] = curve.max()
            mean_curves[bi] += curve
    mean_curves /= len(seeds)
    return peaks, mean_curves


class TestCriterion1:
    @_timed(1, 10.0)
    def _run(self):
        # Majorana anticommutation up to 8 Majoranas (4 modes)
        worst = 0.0
        for n_modes in (1, 2, 3, 4):
            dim = 2 ** n_modes
            gammas = [qop.majorana(n_modes, k) for k in range(2 * n_modes)]
            for a, ga in enumerate(gammas):
                for b, gb in enumerate(gammas):
                    target = 2.0 * np.eye(dim) if a == b else 0.0
                    worst = max(worst, float(np.abs(ga @ gb + gb @ ga - target).max()))
        anti_ok = worst <= 1e-12

        # wormhole unitary unitarity on a random realization
        reg = layout.RegisterLayout(n_message=1)
        cfg = protocol.ProtocolConfig(seed=0)
        c = models.sample_syk_couplings(6, 4, cfg.j_scale, 0)
        h_l = models.build_syk_hamiltonian(c, "left", reg)
        h_r = models.build_syk_hamiltonian(c, "right", reg)
        ins = protocol.build_insert(cfg)
        size = protocol.build_size_operator(reg)
        u = protocol.wormhole_unitary(h_l, h_r, ins, size, 1.7, 2.3, reg)
        unit_dev = float(np.abs(u @ u.conj().T - np.eye(reg.dim)).max())

        # SWAP Pauli reconstruction
        swap_dev = 0.0
        for n in (2, 3, 4):
            for a in range(n):
                for b in range(a + 1, n):
                    recon = sum(coeff * ps.to_matrix()
                                for ps, coeff in qop.swap_pauli_decomposition(n, a, b))
                    swap_dev = max(swap_dev, float(
                        np.abs(recon - qop.swap_matrix(n, a, b)).max()))
        return anti_ok, worst, unit_dev, swap_dev

    def test_algebraic_suite(self):
        anti_ok, anti_dev, unit_dev, swap_dev = self._run()
        passed = anti_ok and unit_dev <= 1e-10 and swap_dev <= 1e-12
        _report(1, "algebraic suite", passed,
                f"anticomm {anti_dev:.1e}, unitarity {unit_dev:.1e}, "
                f"swap recon {swap_dev:.1e}, {_runtimes[1]:.1f}s")


class TestCriterion2:
    @_timed(2, 1.0)
    def _run(self):
        bells = {
            "phi_plus": (np.array([1, 0, 0, 1]) / math.sqrt(2), 1.0),
            "phi_minus": (np.array([1, 0, 0, -1]) / math.sqrt(2), 1.0),
            "psi_plus": (np.array([0, 1, 1, 0]) / math.sqrt(2), 1.0),
            "psi_minus": (np.array([0, 1, -1, 0]) / math.sqrt(2), -1.0),
        }
        dev = 0.0
        for vec, want in bells.values():
            rho = np.outer(vec, vec.conj())
            dev = max(dev, abs(protocol.stabilizer_fidelity(rho) - want))
        dev = max(dev, abs(protocol.stabilizer_fidelity(np.eye(4) / 4) - 0.5))
        return dev

    def test_stabilizer_table(self):
        dev = self._run()
        _report(2, "stabilizer fidelity table", dev <= 1e-12,
                f"max deviation {dev:.1e}, {_runtimes[2]:.2f}s")


class TestCriterion3:
    @_timed(3, 5.0)
    def _run(self):
        reg = layout.RegisterLayout(n_message=1)
        # infinite-temperature pair-product identity for a disordered side
        c = models.sample_syk_couplings(6, 4, protocol.DEFAULT_J_SCALE, 0)
        h = models.build_syk_side_matrix(c, "left", 3)
        state = tfd.build_tfd(h, 0.0, reg)
        total = sum(layout.pair_number_op(3, j) for j in range(6))
        oracle = qop.hermitian_eig(total).vectors[:, 0]
        bell_overlap = abs(np.vdot(oracle, state))

        # Gibbs marginals on random Hermitian sides
        rng = np.random.default_rng(0)
        gibbs_dev = 0.0
        for beta in (0.0, 1.0, 5.0, 20.0, 100.0):
            m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            h_rand = (m + m.conj().T) / 2
            state = tfd.build_tfd(h_rand, beta, reg)
            eig = qop.hermitian_eig(h_rand)
            w = np.exp(-beta * (eig.values - eig.values.min()))
            gibbs = (eig.vectors * w) @ eig.vectors.conj().T
            gibbs /= np.trace(gibbs)
            rho = qop.reduced_density(state, 6, [0, 1, 2])
            gibbs_dev = max(gibbs_dev, float(np.abs(rho - gibbs).max()))
        return bell_overlap, gibbs_dev

    def test_tfd_structure(self):
        bell_overlap, gibbs_dev = self._run()
        passed = bell_overlap >= 1.0 - 1e-10 and gibbs_dev <= 1e-9
        _report(3, "thermofield-double structure", passed,
                f"pair overlap 1-{1 - bell_overlap:.1e}, Gibbs dev {gibbs_dev:.1e}, "
                f"{_runtimes[3]:.1f}s")


class TestCriterion4:
    @_timed(4, 120.0)
    def _run(self):
        seed, beta = 0, 20.0
        half = np.array([g for g in G_GRID if g < 2 * math.pi - 1e-9])
        worst = {}
        for variant in ("delta01", "delta02"):
            cfg = protocol.ProtocolConfig(swap_variant=variant, seed=seed)
            eng = protocol.get_engine(cfg)
            a = eng.curve_basis_z(beta, T1, half)
            b = eng.curve_basis_z(beta, T1, half + 2 * math.pi)
            worst[f"basis_z/{variant}"] = float(np.abs(a - b).max())
            arb = replace(cfg, message="arbitrary", beta=beta)
            av_a = np.array([protocol.run_arbitrary_avg(
                replace(arb, g=float(g)), 100, seed)[0] for g in half[::4]])
            av_b = np.array([protocol.run_arbitrary_avg(
                replace(arb, g=float(g) + 2 * math.pi), 100, seed)[0]
                for g in half[::4]])
            worst[f"arbitrary_avg/{variant}"] = float(np.abs(av_a - av_b).max())
        cfgb = protocol.ProtocolConfig(message="bell_phi_plus",
                                       swap_variant="bell_sequential", seed=seed)
        engb = protocol.get_engine(cfgb)
        a = engb.curve_bell(beta, TB, half)
        b = engb.curve_bell(beta, TB, half + 2 * math.pi)
        worst["bell_stabilizer"] = float(np.abs(a - b).max())
        return worst

    def test_periodicity(self):
        worst = self._run()
        dev = max(worst.values())
        _report(4, "2*pi periodicity across all metrics", dev <= 1e-8,
                f"max |F(g)-F(g+2pi)| = {dev:.1e}, {_runtimes[4]:.1f}s")


class TestCriterion5:
    @_timed(5, 300.0)
    def _run(self):
        betas = (0.0, 20.0, 100.0)
        seeds = range(10)
        peaks = np.zeros((len(list(seeds)), 3))
        for si, seed in enumerate(range(10)):
            eng = protocol.get_engine(protocol.ProtocolConfig(seed=seed))
            for bi, beta in enumerate(betas):
                peaks[si, bi] = eng.curve_basis_z(beta, T1, G_GRID).max()
        mean = peaks.mean(axis=0)
        stderr = peaks.std(axis=0, ddof=1) / math.sqrt(peaks.shape[0])
        return mean, stderr

    def test_near_swap_peak_ordering(self):
        mean, stderr = self._run()
        sep01 = mean[0] - mean[1]
        sep12 = mean[1] - mean[2]
        passed = (sep01 > 2 * (stderr[0] + stderr[1])
                  and sep12 > 2 * (stderr[1] + stderr[2]))
        _report(5, "near-swap peaks decrease with beta", passed,
                f"peaks {mean.round(3)}, separations {sep01:.3f}/{sep12:.3f}, "
                f"{_runtimes[5]:.1f}s")


class TestCriterion6:
    @_timed(6, 300.0)
    def _run(self):
        betas = (0.0, 5.0, 10.0, 20.0, 50.0, 100.0)
        curves = np.zeros((10, len(betas), len(G_GRID)))
        for si, seed in enumerate(range(10)):
            eng = protocol.get_engine(
                protocol.ProtocolConfig(swap_variant="delta02", seed=seed))
            for bi, beta in enumerate(betas):
                curves[si, bi] = eng.curve_basis_z(beta, T1, G_GRID)
        flat0 = float(np.abs(curves.mean(axis=0)[0]).max())
        peaks = curves.max(axis=2).mean(axis=0)
        return betas, flat0, peaks

    def test_far_swap_thermal_peak(self):
        betas, flat0, peaks = self._run()
        arg = betas[int(np.argmax(peaks))]
        flat_ok = flat0 < 0.1
        target_ok = arg == 20.0
        tolerated = arg in (10.0, 20.0, 50.0)
        if tolerated and not target_ok:
            print(f"[WARN] criterion 6: peak attained at beta={arg} "
                  f"(target 20; 10/50 tolerated)")
        _report(6, "far-swap flat at beta=0 with thermal peak",
                flat_ok and tolerated,
                f"|F|max(beta=0) = {flat0:.3f}, peak at beta={arg}, "
                f"peaks {peaks.round(3)}, {_runtimes[6]:.1f}s")


class TestCriterion7:
    @_timed(7, 300.0)
    def _run(self):
        syk_peaks, tfim_peaks = [], []
        for seed in range(10):
            eng = protocol.get_engine(protocol.ProtocolConfig(seed=seed))
            syk_peaks.append(eng.curve_basis_z(0.0, T1, G_GRID).max())
            engt = protocol.get_engine(protocol.ProtocolConfig(
                model="tfim", seed=seed, t=float(protocol.DEFAULT_TFIM_STEPS)))
            tfim_peaks.append(engt.curve_basis_z(
                0.0, float(protocol.DEFAULT_TFIM_STEPS), G_GRID).max())
        return np.asarray(syk_peaks), np.asarray(tfim_peaks)

    def test_syk_beats_tfim(self):
        syk, tfim = self._run()
        se = (syk.std(ddof=1) + tfim.std(ddof=1)) / math.sqrt(len(syk))
        diff = syk.mean() - tfim.mean()
        _report(7, "random quartic model beats the kicked Ising baseline",
                diff > 2 * se,
                f"syk {syk.mean():.3f} vs tfim {tfim.mean():.3f}, "
                f"{_runtimes[7]:.1f}s")


class TestCriterion8:
    @_timed(8, 300.0)
    def _run(self):
        t_grid = analysis.DEFAULT_T_GRID
        rec01, rec02 = [], []
        for seed in range(10):
            for variant, beta, sink in (("delta01", 0.0, rec01),
                                        ("delta02", 20.0, rec02)):
                eng = protocol.get_engine(
                    protocol.ProtocolConfig(swap_variant=variant, seed=seed))
                g_star = G_GRID[int(np.argmax(eng.curve_basis_z(beta, T1, G_GRID)))]
                records = [analysis.FidelityRecord(
                    seed=seed, beta=beta, g=float(g_star), t=float(t),
                    metric="basis_z", variant=variant,
                    value=eng.basis_z_value(eng.final_state(beta, g_star, t)))
                    for t in t_grid]
                sink.append(analysis.recovery_time(records))
        return np.asarray(rec01), np.asarray(rec02)

    def test_recovery_time_ordering(self):
        rec01, rec02 = self._run()
        _report(8, "far-swap recovery is later than near-swap recovery",
                rec02.mean() > rec01.mean(),
                f"t_rec near {rec01.mean():.2f} vs far {rec02.mean():.2f}, "
                f"{_runtimes[8]:.1f}s")


class TestCriterion9:
    peaks = None

    @_timed(9, 300.0)
    def _run(self):
        if TestCriterion9.peaks is None:
            peaks, mean_curves = bell_peak_curves(range(20), BETA_GRID)
            TestCriterion9.peaks = peaks
            TestCriterion9.mean_curves = mean_curves
        return TestCriterion9.peaks

    def test_bell_fidelity_profile(self):
        peaks = self._run()
        mean = peaks.mean(axis=0)
        by_beta = dict(zip(BETA_GRID, mean))
        window_ok = 0.7 <= by_beta[0.0] <= 0.95
        seq = [by_beta[b] for b in (0.0, 20.0, 50.0, 80.0)]
        mono_ok = all(a >= b - 1e-9 for a, b in zip(seq, seq[1:]))
        plateau_ok = abs(by_beta[80.0] - by_beta[100.0]) < 0.05
        _report(9, "Bell stabilizer fidelity profile",
                window_ok and mono_ok and plateau_ok,
                f"peak(beta=0) = {by_beta[0.0]:.3f}, profile {np.round(mean, 3)}, "
                f"plateau gap {abs(by_beta[80.0] - by_beta[100.0]):.3f}, "
                f"{_runtimes[9]:.1f}s")


class TestCriterion10:
    @_timed(10, 300.0)
    def _run(self):
        TestCriterion9()._run()
        mean_curves = TestCriterion9.mean_curves
        g_idx = int(np.argmax(mean_curves[0]))
        points = [(beta, float(mean_curves[bi, g_idx]))
                  for bi, beta in enumerate(BETA_GRID)]
        fit = analysis.fit_beta_c(points)

        betas = np.array([0.0, 1.0, 5.0, 10.0, 20.0, 50.0, 80.0, 100.0])
        clean = 0.2 + 0.6 * np.exp(-betas / 25.0)
        synth = analysis.fit_beta_c(list(zip(betas, clean)))
        return fit, synth

    def test_decay_scale_fit(self):
        fit, synth = self._run()
        fit_ok = 10.0 <= fit.beta_c <= 40.0
        synth_ok = abs(synth.beta_c - 25.0) <= 1e-6
        _report(10, "temperature decay-scale fit", fit_ok and synth_ok,
                f"beta_c = {fit.beta_c:.2f}, synthetic recovery "
                f"{abs(synth.beta_c - 25.0):.1e}, {_runtimes[10]:.1f}s")


class TestCriterion11:
    @_timed(11, 300.0)
    def _run(self):
        # correlation over the pooled per-seed curves: both metrics are
        # functions of the same final states, so the echo is a statement
        # about the paired record streams
        out = {}
        n_seeds = 20
        for variant in ("delta01", "delta02"):
            for beta in (0.0, 20.0):
                basis_rows, avg_rows = [], []
                for seed in range(n_seeds):
                    cfg = protocol.ProtocolConfig(swap_variant=variant, seed=seed,
                                                  beta=beta)
                    eng = protocol.get_engine(cfg)
                    basis_rows.append(eng.curve_basis_z(beta, T1, G_GRID))
                    arb = replace(cfg, message="arbitrary")
                    avg_rows.append(np.array([
                        protocol.run_arbitrary_avg(replace(arb, g=float(g)),
                                                   100, seed)[0]
                        for g in G_GRID]))
                basis_all = np.concatenate(basis_rows)
                avg_all = np.concatenate(avg_rows)
                r = float(np.corrcoef(basis_all, avg_all)[0, 1])
                basis_mean = np.mean(basis_rows, axis=0)
                avg_mean = np.mean(avg_rows, axis=0)
                amp_ok = avg_mean.max() < (0.5 * (1 + basis_mean)).max()
                out[(variant, beta)] = (r, amp_ok)
        return out

    def test_average_fidelity_echo(self):
        out = self._run()
        rs = {k: v[0] for k, v in out.items()}
        passed = all(r > 0.9 for r, _ in out.values()) and all(
            amp for _, amp in out.values())
        detail = ", ".join(f"{v}@beta={b:g}: r={r:.3f}"
                           for (v, b), (r, _) in out.items())
        _report(11, "Haar-averaged curve echoes the basis curve", passed,
                detail + f", {_runtimes[11]:.1f}s")


class TestCriterion12:
    @_timed(12, 300.0)
    def _run(self):
        spec = analysis.SweepSpec(
            base=protocol.ProtocolConfig(message="bell_phi_plus",
                                         swap_variant="bell_sequential"),
            g_grid=G_GRID, t_grid=(TB,), beta_grid=BETA_GRID, seeds=(0,),
            metric="bell_stabilizer")
        start = time.perf_counter()
        records = analysis.run_sweep(spec, workers=1)
        sweep_time = time.perf_counter() - start
        assert len(records) == len(G_GRID) * len(BETA_GRID)

        man = cli.RunManifest(command="sweep", config_path=None, out_dir="",
                              master_seed=0, workers=1)
        text1 = cli.csv_text(analysis.run_sweep(spec, workers=1), man, spec)
        text2 = cli.csv_text(analysis.run_sweep(spec, workers=2), man, spec)
        return sweep_time, text1 == text2

    def test_performance_and_determinism(self):
        sweep_time, identical = self._run()
        passed = sweep_time < 300.0 and identical
        _report(12, "default Bell sweep performance and determinism", passed,
                f"8x201 sweep in {sweep_time:.1f}s, "
                f"worker-count invariant: {identical}")
