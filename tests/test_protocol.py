import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh, expm, logm

from sykteleport import analysis, layout, models, protocol, qop, tfd

REG1 = layout.RegisterLayout(n_message=1, n_side=3)
REG2 = layout.RegisterLayout(n_message=2, n_side=3)

BELLS = {
    "phi_plus": np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
    "phi_minus": np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2),
    "psi_plus": np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
    "psi_minus": np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2),
}


class TestConfig:
    def test_variant_message_mismatch(self):
        with pytest.raises(protocol.ConfigError):
            protocol.ProtocolConfig(message="basis_zero",
                                    swap_variant="bell_sequential").validate()
        with pytest.raises(protocol.ConfigError):
            protocol.ProtocolConfig(message="bell_phi_plus",
                                    swap_variant="delta01").validate()

    def test_arbitrary_normalization(self):
        with pytest.raises(protocol.ConfigError):
            protocol.ProtocolConfig(message="arbitrary", alpha=1.0,
                                    beta_msg=1.0).validate()

    def test_readout_must_be_right_block(self):
        with pytest.raises(protocol.ConfigError):
            protocol.ProtocolConfig(readout_sites=(1,)).validate()

    def test_right_basis_must_be_paired(self):
        protocol.ProtocolConfig(right_basis="paired").validate()
        for bad in ("literal", "conjugate", "nope"):
            with pytest.raises(protocol.ConfigError, match="paired"):
                protocol.ProtocolConfig(right_basis=bad).validate()

    def test_tfim_integer_steps(self):
        with pytest.raises(protocol.ConfigError):
            protocol.ProtocolConfig(model="tfim", t=1.5).validate()

    def test_non_finite_axes_rejected(self):
        for name in ("g", "t", "beta"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(protocol.ConfigError, match="finite"):
                    protocol.ProtocolConfig(**{name: bad}).validate()

    def test_default_readout_is_partner_of_insertion(self):
        cfg = protocol.ProtocolConfig()
        reg = cfg.register
        assert cfg.resolved_readout() == (reg.right_partner(0),) == (6,)
        cfgb = protocol.ProtocolConfig(message="bell_phi_plus",
                                       swap_variant="bell_sequential")
        assert cfgb.resolved_readout() == (6, 7)


class TestSizeOperator:
    def test_occupation_counting(self):
        size = protocol.build_size_operator(REG1, modes=(0, 1, 2))
        hist = Counter(int(v) for v in size.eigenvalues)
        # 3 two-level modes on a 64-dim block: binomial pattern times 8
        assert hist == {0: 8, 1: 24, 2: 24, 3: 8}

    def test_integer_range(self):
        size = protocol.build_size_operator(REG1)
        assert size.modes == (0, 1, 2, 3, 4)
        assert size.eigenvalues.min() == 0
        assert size.eigenvalues.max() == len(size.modes)

    def test_two_pi_period_exact(self):
        size = protocol.build_size_operator(REG1)
        assert np.abs(size.exp_ig(2 * math.pi) - np.eye(64)).max() <= 1e-12

    def test_coupling_unitary(self):
        size = protocol.build_size_operator(REG1)
        u = size.exp_ig(1.234)
        assert np.abs(u @ u.conj().T - np.eye(64)).max() <= 1e-10

    def test_empty_modes_rejected(self):
        with pytest.raises(qop.QopError):
            protocol.build_size_operator(REG1, modes=())

    def test_spectral_gap(self):
        size = protocol.build_size_operator(REG1)
        assert analysis.size_spectral_gap(size) == 1.0


class TestInsert:
    def test_swap_moves_message(self):
        cfg = protocol.ProtocolConfig()
        ins = protocol.build_insert(cfg)
        rng = np.random.default_rng(0)
        msg = rng.normal(size=2) + 1j * rng.normal(size=2)
        msg /= np.linalg.norm(msg)
        rest = rng.normal(size=64) + 1j * rng.normal(size=64)
        rest /= np.linalg.norm(rest)
        psi = np.kron(msg, rest)
        out = ins.matrix @ psi
        want = qop.swap_qubits(psi, 7, 0, 1)
        assert np.abs(out - want).max() <= 1e-12

    def test_involution(self):
        for variant in ("delta01", "delta02"):
            cfg = protocol.ProtocolConfig(swap_variant=variant)
            ins = protocol.build_insert(cfg)
            assert np.abs(ins.matrix @ ins.matrix - np.eye(REG1.dim)).max() <= 1e-12

    def test_bell_sequential_moves_pair(self):
        cfg = protocol.ProtocolConfig(message="bell_phi_plus",
                                      swap_variant="bell_sequential")
        ins = protocol.build_insert(cfg)
        # |Phi+> on the message pair, |0...0> elsewhere
        psi = np.zeros(REG2.dim, dtype=complex)
        phi = BELLS["phi_plus"]
        psi[: 4 << 6 : 1 << 6][[0, 3]] = phi[[0, 3]]
        out = ins.matrix @ psi
        # oracle: the pair must now occupy qubits 2 and 3
        want = np.zeros(REG2.dim, dtype=complex)
        for b0, b1 in ((0, 0), (1, 1)):
            idx = (b0 << 5) | (b1 << 4)
            want[idx] = 1 / math.sqrt(2)
        assert np.abs(out - want).max() <= 1e-12

    def test_plain_insert_is_swap_product(self):
        # the Pauli expansion of each swap is checked in test_qop
        for cfg in (protocol.ProtocolConfig(),
                    protocol.ProtocolConfig(swap_variant="delta02"),
                    protocol.ProtocolConfig(message="bell_phi_plus",
                                            swap_variant="bell_sequential")):
            n = cfg.register.n_qubits
            want = np.eye(2 ** n)
            for a, b in cfg.swap_site_pairs():
                want = qop.swap_matrix(n, a, b) @ want
            assert np.array_equal(protocol.build_insert(cfg).matrix, want)

    def test_fermionic_insert_is_signed_swap(self):
        plain = protocol.build_insert(protocol.ProtocolConfig())
        ferm = protocol.build_insert(
            protocol.ProtocolConfig(fermionic_insert=True))
        m = ferm.matrix
        assert np.abs(m @ m.conj().T - np.eye(REG1.dim)).max() <= 1e-12
        assert qop.is_hermitian(m, 1e-12)
        assert np.abs(m @ m - np.eye(REG1.dim)).max() <= 1e-12
        # same permutation support, entries differing at most by sign
        assert np.abs(np.abs(m) - np.abs(plain.matrix)).max() <= 1e-12
        assert np.abs(m - plain.matrix).max() > 0.5


class TestWormholeUnitary:
    def _pieces(self, seed=0, variant="delta01"):
        cfg = protocol.ProtocolConfig(swap_variant=variant, seed=seed)
        c = models.sample_syk_couplings(6, 4, cfg.j_scale, seed)
        h_l = models.build_syk_hamiltonian(c, "left", REG1)
        h_r = models.build_syk_hamiltonian(c, "right", REG1)
        ins = protocol.build_insert(cfg)
        size = protocol.build_size_operator(REG1)
        return cfg, h_l, h_r, ins, size

    def test_collapses_to_insert(self):
        _, h_l, h_r, ins, size = self._pieces()
        u = protocol.wormhole_unitary(h_l, h_r, ins, size, g=0.0, t=0.0,
                                      register=REG1)
        assert np.abs(u - ins.matrix).max() <= 1e-12

    def test_two_pi_periodic(self):
        _, h_l, h_r, ins, size = self._pieces(seed=1)
        u1 = protocol.wormhole_unitary(h_l, h_r, ins, size, 1.1, 0.8, REG1)
        u2 = protocol.wormhole_unitary(h_l, h_r, ins, size, 1.1 + 2 * math.pi,
                                       0.8, REG1)
        assert np.abs(u1 - u2).max() <= 1e-10

    def test_unitarity(self):
        _, h_l, h_r, ins, size = self._pieces(seed=2)
        u = protocol.wormhole_unitary(h_l, h_r, ins, size, 2.2, 1.7, REG1)
        assert np.abs(u @ u.conj().T - np.eye(REG1.dim)).max() <= 1e-10

    def test_engine_matches_dense_path(self):
        # dual route: full dense unitary on the initial state vs the
        # engine's blockwise pipeline (thermal weighting off)
        cfg = protocol.ProtocolConfig(seed=3, beta=4.0, g=1.3, t=0.9,
                                      thermal_readout=False)
        eng = protocol.Engine(cfg)
        c = eng.couplings
        h_l = models.build_syk_hamiltonian(c, "left", REG1)
        h_r = models.build_syk_hamiltonian(c, "right", REG1)
        u = protocol.wormhole_unitary(h_l, h_r, eng.insert, eng.size,
                                      cfg.g, cfg.t, REG1)
        psi0 = np.kron(np.array([1, 0], dtype=complex), eng.tfd_vector(cfg.beta))
        assert np.abs(u @ psi0 - eng.final_state()).max() <= 1e-10


class TestPipelineAgainstDense:
    """The staged, g-batched Engine against the dense protocol unitary on
    random (seed, beta <= 20, g, t).  Larger beta is left out: there the
    thermal renormalization amplifies round-off of either route."""

    @staticmethod
    def _dense_states(cfg, messages):
        """Thermally weighted, unnormalized W_R U |m> (x) |TFD> per message,
        from dense matrix exponentials on the full register."""
        reg = cfg.register
        n_side = reg.n_side
        c = models.sample_syk_couplings(2 * n_side, 4, cfg.j_scale, cfg.seed)
        h_l = models.build_syk_hamiltonian(c, "left", reg)
        h_r = models.build_syk_hamiltonian(c, "right", reg)
        h_side = models.build_syk_side_matrix(c, "left", n_side)
        shift = np.linalg.eigvalsh(h_side).min() * np.eye(2 ** n_side)
        weight = expm(-0.5 * cfg.beta * (h_side - shift))
        vac = np.kron(weight, np.eye(2 ** n_side)) @ layout.bell_vacuum(n_side)
        tfd_state = vac / np.linalg.norm(vac)
        ins = np.eye(reg.dim)
        for a, b in cfg.swap_site_pairs():
            ins = qop.swap_matrix(reg.n_qubits, a, b) @ ins
        modes = cfg.resolved_size_modes()
        mat = sum(layout.pair_number_op(n_side, j) for j in modes).astype(complex)
        values, basis = eigh(mat)
        size = protocol.SizeOperator(n_side=n_side, modes=modes, matrix=mat,
                                     eigenvalues=values, basis=basis)
        u = protocol.wormhole_unitary(h_l, h_r, protocol.InsertOperator(matrix=ins),
                                      size, cfg.g, cfg.t, reg)
        e_min = np.linalg.eigvalsh(h_r).min()
        w_r = expm(-0.5 * cfg.beta * (h_r - e_min * np.eye(reg.dim)))
        return [w_r @ u @ np.kron(m, tfd_state) for m in messages]

    def _cases(self, n=6):
        rng = np.random.default_rng(20250)
        for _ in range(n):
            yield (int(rng.integers(0, 10 ** 6)), float(rng.uniform(0.0, 20.0)),
                   float(rng.uniform(0.0, 4 * math.pi)), float(rng.uniform(0.0, 3.0)))

    def test_basis_z(self):
        for seed, beta, g, t in self._cases():
            for variant in ("delta01", "delta02"):
                cfg = protocol.ProtocolConfig(seed=seed, beta=beta, g=g, t=t,
                                              swap_variant=variant)
                (psi,) = self._dense_states(cfg, [np.array([1, 0], dtype=complex)])
                psi = psi / np.linalg.norm(psi)
                z = qop.pauli_on(cfg.register.n_qubits, cfg.resolved_readout()[0], "Z")
                want = float(np.real(qop.expectation(psi, z)))
                assert abs(protocol.run_single_qubit(cfg) - want) <= 1e-12

    def test_bell(self):
        for seed, beta, g, t in self._cases():
            cfg = protocol.ProtocolConfig(message="bell_phi_plus",
                                          swap_variant="bell_sequential",
                                          seed=seed, beta=beta, g=g, t=t)
            (psi,) = self._dense_states(cfg, [BELLS["phi_plus"]])
            psi = psi / np.linalg.norm(psi)
            n = cfg.register.n_qubits
            a, b = cfg.resolved_readout()
            stab = 0.5 * (np.eye(2 ** n) + sum(
                qop.pauli_on(n, a, p) @ qop.pauli_on(n, b, p) for p in "XYZ"))
            want = float(np.real(qop.expectation(psi, stab)))
            assert abs(protocol.run_bell(cfg) - want) <= 1e-12

    def test_arbitrary_branches(self):
        for seed, beta, g, t in self._cases():
            for variant in ("delta01", "delta02"):
                cfg = protocol.ProtocolConfig(seed=seed, beta=beta, g=g, t=t,
                                              swap_variant=variant)
                want = self._dense_states(cfg, np.eye(2, dtype=complex))
                got = protocol.get_engine(cfg).branch_states(beta, t, [g])[0]
                for branch in (0, 1):
                    assert np.abs(got[branch] - want[branch]).max() <= 1e-12
                # the fidelity of a superposition assembled from the branches
                a, b = protocol.haar_qubit(seed, 0)
                msg = np.array([a, b], dtype=complex)
                psi = a * want[0] + b * want[1]
                psi = psi / np.linalg.norm(psi)
                n, site = cfg.register.n_qubits, cfg.resolved_readout()[0]
                proj = qop.kron_all([np.outer(msg, msg.conj()) if k == site else qop.I2
                                     for k in range(n)])
                fid = float(np.real(qop.expectation(psi, proj)))
                arb = replace(cfg, message="arbitrary", alpha=a, beta_msg=b)
                assert abs(protocol.run_single_qubit_arbitrary(arb) - fid) <= 1e-12

    def test_batch_matches_single_points(self):
        gs = np.linspace(0.0, 4 * math.pi, 9)
        cfg = protocol.ProtocolConfig(seed=3, beta=7.0, t=1.2)
        eng = protocol.get_engine(cfg)
        curve = eng.curve_basis_z(cfg.beta, cfg.t, gs)
        single = [protocol.run_single_qubit(replace(cfg, g=float(g))) for g in gs]
        assert np.abs(curve - single).max() <= 1e-13
        mean, _ = eng.curve_arbitrary_avg(cfg.beta, cfg.t, gs, 20, 1)
        single = [protocol.run_arbitrary_avg(replace(cfg, g=float(g)), 20, 1)[0]
                  for g in gs]
        assert np.abs(mean - single).max() <= 1e-13
        cfgb = protocol.ProtocolConfig(message="bell_phi_plus",
                                       swap_variant="bell_sequential",
                                       seed=3, beta=7.0, t=2.0)
        curve = protocol.get_engine(cfgb).curve_bell(cfgb.beta, cfgb.t, gs)
        single = [protocol.run_bell(replace(cfgb, g=float(g))) for g in gs]
        assert np.abs(curve - single).max() <= 1e-13


def _bell_cfg(**kw):
    return protocol.ProtocolConfig(message="bell_phi_plus",
                                   swap_variant="bell_sequential", **kw)


class TestTBatching:
    """A t array through the pipeline against one scalar-t call per t."""

    # 30 t x 10 g = 300 (t, g) rows: more than one chunk
    T_GRID = np.linspace(0.0, 7.0, 30)
    G_GRID = np.linspace(0.0, 4 * math.pi, 10)

    def _check(self, cfg, curve):
        ts, gs = self.T_GRID, self.G_GRID
        if cfg.model == "tfim":
            ts = np.arange(len(ts), dtype=float)
        assert len(ts) * len(gs) > protocol.MAX_BATCH_ROWS
        eng = protocol.get_engine(cfg)
        for beta in (0.0, 6.0):
            batched = curve(eng, beta, ts, gs)
            assert batched.shape == (len(ts), len(gs))
            single = np.stack([curve(eng, beta, float(t), gs) for t in ts])
            assert np.abs(batched - single).max() <= 1e-13

    def test_basis_z(self):
        for cfg in (protocol.ProtocolConfig(seed=4),
                    protocol.ProtocolConfig(seed=5, thermal_readout=False),
                    protocol.ProtocolConfig(seed=6, model="tfim", t=1.0)):
            self._check(cfg, protocol.Engine.curve_basis_z)

    def test_bell(self):
        for cfg in (_bell_cfg(seed=4), _bell_cfg(seed=5, thermal_readout=False)):
            self._check(cfg, protocol.Engine.curve_bell)

    def test_arbitrary_avg(self):
        def mean(eng, beta, t, gs):
            return eng.curve_arbitrary_avg(beta, t, gs, 10, 2)[0]
        for cfg in (protocol.ProtocolConfig(seed=4, swap_variant="delta02"),
                    protocol.ProtocolConfig(seed=5, thermal_readout=False),
                    protocol.ProtocolConfig(seed=6, model="tfim", t=1.0)):
            self._check(cfg, mean)

    def test_scalar_t_shapes(self):
        gs = self.G_GRID
        eng = protocol.get_engine(protocol.ProtocolConfig(seed=1))
        engb = protocol.get_engine(_bell_cfg(seed=1))
        msgs = [protocol.haar_qubit(0, i) for i in range(3)]
        assert eng.curve_basis_z(2.0, 1.0, gs).shape == (len(gs),)
        assert engb.curve_bell(2.0, 2.0, gs).shape == (len(gs),)
        assert eng.arbitrary_fidelity(2.0, 1.0, gs, msgs).shape == (len(gs), 3)
        mean, stderr = eng.curve_arbitrary_avg(2.0, 1.0, gs, 5)
        assert mean.shape == stderr.shape == (len(gs),)
        assert eng.branch_states(2.0, 1.0, gs).shape == (len(gs), 2, eng.reg.dim)
        assert eng.final_state(2.0, 0.5, 1.0).shape == (eng.reg.dim,)
        # a 1-D t of one value keeps its axis
        assert eng.curve_basis_z(2.0, [1.0], gs).shape == (1, len(gs))
        assert eng.arbitrary_fidelity(2.0, [1.0, 2.0], gs, msgs).shape == (2, len(gs), 3)

    def test_non_finite_t_in_array_raises(self):
        eng = protocol.get_engine(protocol.ProtocolConfig(seed=1))
        engb = protocol.get_engine(_bell_cfg(seed=1))
        calls = (lambda t: eng.curve_basis_z(0.0, t, [0.5]),
                 lambda t: engb.curve_bell(0.0, t, [0.5]),
                 lambda t: eng.curve_arbitrary_avg(0.0, t, [0.5], 5),
                 lambda t: eng.branch_states(0.0, t, [0.5]))
        for call in calls:
            for bad in ([1.0, math.nan], [math.inf, 1.0], [[1.0, 2.0]], []):
                with pytest.raises(protocol.ConfigError):
                    call(bad)

    def test_tfim_takes_integer_steps(self):
        eng = protocol.get_engine(protocol.ProtocolConfig(model="tfim", t=1.0))
        for bad in ([1.0, 1.5], [-1.0]):
            with pytest.raises(protocol.ConfigError):
                eng.curve_basis_z(0.0, bad, [0.5])

    def test_only_beta_stages_are_kept(self):
        eng = protocol.Engine(protocol.ProtocolConfig(seed=2))
        eng.curve_basis_z(3.0, self.T_GRID, self.G_GRID)
        assert set(eng._latest) == {"tfd", "weight"}


class TestSharedInsert:
    def test_one_read_only_matrix_per_geometry(self):
        a = protocol.Engine(protocol.ProtocolConfig(seed=1))
        b = protocol.Engine(protocol.ProtocolConfig(seed=2, model="tfim", t=1.0))
        assert a.insert is b.insert
        assert not a.insert.matrix.flags.writeable
        assert np.array_equal(a.insert.matrix,
                              protocol.build_insert(protocol.ProtocolConfig()).matrix)
        for cfg in (protocol.ProtocolConfig(swap_variant="delta02"),
                    protocol.ProtocolConfig(fermionic_insert=True),
                    _bell_cfg()):
            eng = protocol.Engine(cfg)
            assert eng.insert is not a.insert
            assert np.array_equal(eng.insert.matrix, protocol.build_insert(cfg).matrix)


    def test_fermionic_insert_matches_dense_path(self):
        cfg = protocol.ProtocolConfig(seed=3, beta=4.0, g=1.3, t=0.9,
                                      thermal_readout=False, fermionic_insert=True)
        eng = protocol.Engine(cfg)
        h_l = models.build_syk_hamiltonian(eng.couplings, "left", REG1)
        h_r = models.build_syk_hamiltonian(eng.couplings, "right", REG1)
        u = protocol.wormhole_unitary(h_l, h_r, eng.insert, eng.size, cfg.g, cfg.t, REG1)
        psi0 = np.kron(np.array([1, 0], dtype=complex), eng.tfd_vector(cfg.beta))
        assert np.abs(u @ psi0 - eng.final_state()).max() <= 1e-10


def _rotate_degenerate(eig, rng):
    """The eigensystem with each degenerate block of eigenvectors rotated
    by a random unitary; returns it and the block sizes."""
    values, vectors = eig.values, eig.vectors.copy()
    sizes, start = [], 0
    while start < len(values):
        stop = start + 1
        while stop < len(values) and abs(values[stop] - values[start]) <= 1e-9:
            stop += 1
        k = stop - start
        q, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
        vectors[:, start:stop] = vectors[:, start:stop] @ q
        sizes.append(k)
        start = stop
    return qop.EigenSystem(values=values, vectors=vectors), sizes


class TestDegeneracyInvariance:
    """Outputs are functions of the Hamiltonian alone: a rotation inside a
    degenerate eigenspace must not move them.  That covers the thermofield
    double, every curve and the coherent aggregates of the overlap table
    (its single entries do depend on the eigenvectors)."""

    T_GRID = np.linspace(0.0, 6.0, 13)
    G_GRID = np.linspace(0.0, 2 * math.pi, 9)

    def _pair(self, cfg, rng):
        ref, rot = protocol.Engine(cfg), protocol.Engine(cfg)
        rot.eig_left, left = _rotate_degenerate(ref.eig_left, rng)
        rot.eig_right, right = _rotate_degenerate(ref.eig_right, rng)
        # every level of the N = 6 model is twofold degenerate
        assert left == right == [2, 2, 2, 2]
        assert np.abs(rot.eig_left.vectors - ref.eig_left.vectors).max() > 0.1
        return ref, rot

    def test_tfd_and_curves(self):
        rng = np.random.default_rng(7)
        msgs = [protocol.haar_qubit(1, i) for i in range(4)]
        ts, gs = self.T_GRID, self.G_GRID
        for seed in (0, 3):
            for variant in ("delta01", "delta02"):
                ref, rot = self._pair(
                    protocol.ProtocolConfig(seed=seed, swap_variant=variant), rng)
                for beta in (0.0, 5.0, 20.0):
                    assert np.abs(rot.tfd_vector(beta) - ref.tfd_vector(beta)).max() <= 1e-12
                    assert np.abs(rot.curve_basis_z(beta, ts, gs)
                                  - ref.curve_basis_z(beta, ts, gs)).max() <= 1e-12
                    assert np.abs(rot.arbitrary_fidelity(beta, ts, gs, msgs)
                                  - ref.arbitrary_fidelity(beta, ts, gs, msgs)).max() <= 1e-12
            ref, rot = self._pair(_bell_cfg(seed=seed), rng)
            for beta in (0.0, 5.0, 20.0):
                assert np.abs(rot.curve_bell(beta, ts, gs)
                              - ref.curve_bell(beta, ts, gs)).max() <= 1e-12

    def test_overlap_aggregates(self):
        rng = np.random.default_rng(11)
        for seed in (0, 3):
            ref, rot = self._pair(protocol.ProtocolConfig(seed=seed), rng)
            for variant in ("delta01", "delta02"):
                for beta in (0.0, 5.0):
                    a = protocol.overlap_coefficients(ref.eig_left, variant, beta)
                    b = protocol.overlap_coefficients(rot.eig_left, variant, beta)
                    assert np.abs(a.values - b.values).max() > 1e-3
                    assert abs(a.coherent_sum() - b.coherent_sum()) <= 1e-12
                    assert abs(a.coherent_mean() - b.coherent_mean()) <= 1e-12


class TestSingleQubit:
    def test_uncoupled_point_reads_zero(self):
        val = protocol.run_single_qubit(
            protocol.ProtocolConfig(seed=0, beta=0.0, g=0.0, t=0.0))
        assert abs(val) <= 1e-12

    def test_periodicity(self):
        rng = np.random.default_rng(0)
        cfg = protocol.ProtocolConfig(seed=1, beta=7.0)
        for g in rng.uniform(0, 2 * math.pi, size=5):
            a = protocol.run_single_qubit(replace(cfg, g=float(g)))
            b = protocol.run_single_qubit(replace(cfg, g=float(g) + 2 * math.pi))
            assert abs(a - b) <= 1e-8

    def test_range(self):
        for seed in range(3):
            val = protocol.run_single_qubit(
                protocol.ProtocolConfig(seed=seed, beta=11.0, g=2.0, t=1.0))
            assert -1.0 <= val <= 1.0

    def test_beta_zero_beats_beta_large(self):
        gs = np.linspace(0, 2 * math.pi, 41)
        peaks0, peaks100 = [], []
        for seed in range(10):
            eng = protocol.get_engine(protocol.ProtocolConfig(seed=seed))
            t = protocol.DEFAULT_T_SINGLE
            peaks0.append(eng.curve_basis_z(0.0, t, gs).max())
            peaks100.append(eng.curve_basis_z(100.0, t, gs).max())
        assert np.mean(peaks0) > np.mean(peaks100)

    def test_deterministic(self):
        cfg = protocol.ProtocolConfig(seed=5, beta=3.0, g=1.0, t=1.0)
        assert protocol.run_single_qubit(cfg) == protocol.run_single_qubit(cfg)

    def test_thermal_off_matches_plain_expectation_at_beta_zero(self):
        cfg = protocol.ProtocolConfig(seed=2, beta=0.0, g=2.5, t=1.0)
        a = protocol.run_single_qubit(cfg)
        b = protocol.run_single_qubit(replace(cfg, thermal_readout=False))
        assert abs(a - b) <= 1e-12

    def test_wrong_message_rejected(self):
        with pytest.raises(protocol.ConfigError):
            protocol.run_single_qubit(
                protocol.ProtocolConfig(message="arbitrary"))

    def test_non_finite_inputs_raise(self):
        with pytest.raises(protocol.ConfigError):
            protocol.run_single_qubit(protocol.ProtocolConfig(g=math.nan))
        with pytest.raises(protocol.ConfigError):
            protocol.run_single_qubit(protocol.ProtocolConfig(beta=math.inf))
        with pytest.raises(protocol.ConfigError):
            protocol.run_arbitrary_avg(protocol.ProtocolConfig(t=math.nan), 5)
        # a NaN entry of a batched g axis must not silently fill its row
        eng = protocol.get_engine(protocol.ProtocolConfig())
        with pytest.raises(protocol.ConfigError):
            eng.curve_basis_z(0.0, 1.0, [0.5, math.nan])


class TestArbitraryState:
    def test_basis_zero_reduces_to_projector_identity(self):
        for beta in (0.0, 9.0):
            cfg = protocol.ProtocolConfig(seed=1, beta=beta, g=1.9, t=1.0)
            fz = protocol.run_single_qubit(cfg)
            fa = protocol.run_single_qubit_arbitrary(
                replace(cfg, message="arbitrary", alpha=1.0 + 0j, beta_msg=0.0 + 0j))
            assert abs(fa - 0.5 * (1.0 + fz)) <= 1e-10

    def test_one_state_uncoupled_point(self):
        cfg = protocol.ProtocolConfig(message="arbitrary", alpha=0.0 + 0j,
                                      beta_msg=1.0 + 0j, seed=0,
                                      beta=0.0, g=0.0, t=0.0)
        # readout qubit is maximally mixed before any coupling
        assert abs(protocol.run_single_qubit_arbitrary(cfg) - 0.5) <= 1e-12

    def test_global_phase_invariance(self):
        base = protocol.ProtocolConfig(message="arbitrary", seed=3, beta=2.0,
                                       g=1.2, t=1.0,
                                       alpha=0.6 + 0j, beta_msg=0.8 + 0j)
        phase = np.exp(1j * 1.234)
        rot = replace(base, alpha=base.alpha * phase, beta_msg=base.beta_msg * phase)
        assert abs(protocol.run_single_qubit_arbitrary(base)
                   - protocol.run_single_qubit_arbitrary(rot)) <= 1e-12

    def test_value_range(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a, b = protocol.haar_qubit(7, int(rng.integers(100)))
            cfg = protocol.ProtocolConfig(message="arbitrary", alpha=a, beta_msg=b,
                                          seed=2, beta=5.0, g=2.0, t=1.0)
            val = protocol.run_single_qubit_arbitrary(cfg)
            assert -1e-12 <= val <= 1.0 + 1e-12


class TestArbitraryAverage:
    def test_single_sample_equals_single_run(self):
        cfg = protocol.ProtocolConfig(seed=2, beta=1.0, g=0.9, t=1.0)
        mean, stderr = protocol.run_arbitrary_avg(cfg, n_s=1, seed=11)
        a, b = protocol.haar_qubit(11, 0)
        single = protocol.run_single_qubit_arbitrary(
            replace(cfg, message="arbitrary", alpha=a, beta_msg=b))
        assert mean == pytest.approx(single, abs=1e-14)
        assert stderr == 0.0

    def test_haar_sampling_is_bloch_uniform(self):
        zs = []
        for i in range(4000):
            a, b = protocol.haar_qubit(0, i)
            assert abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= 1e-12
            zs.append(abs(a) ** 2 - abs(b) ** 2)
        # <z> = 0 and Var(z) = 1/3 on the uniform sphere
        zs = np.asarray(zs)
        assert abs(zs.mean()) <= 3.0 / math.sqrt(3 * len(zs))
        assert abs(zs.var() - 1.0 / 3.0) <= 0.02

    def test_mean_in_unit_interval(self):
        cfg = protocol.ProtocolConfig(seed=0, beta=3.0, g=1.5, t=1.0)
        mean, stderr = protocol.run_arbitrary_avg(cfg, n_s=50, seed=1)
        assert 0.0 <= mean <= 1.0
        assert stderr >= 0.0

    def test_deterministic_per_seed(self):
        cfg = protocol.ProtocolConfig(seed=1, beta=2.0, g=1.0, t=1.0)
        assert (protocol.run_arbitrary_avg(cfg, 20, seed=5)
                == protocol.run_arbitrary_avg(cfg, 20, seed=5))

    def test_channel_average_matches_closed_form(self):
        # where the readout map is a channel E (beta = 0, or no thermal
        # reweighting), the Bloch-sphere average is exactly
        # F_avg = (2 F_e + 1)/3 with the entanglement fidelity
        # F_e = (1/4) sum_ab <a|E(|a><b|)|b> = ||phi_0[r=0] + phi_1[r=1]||^2 / 4
        for seed, beta, thermal, variant in ((4, 0.0, True, "delta01"),
                                             (5, 6.0, False, "delta02")):
            cfg = protocol.ProtocolConfig(seed=seed, beta=beta, g=1.3, t=1.0,
                                          thermal_readout=thermal,
                                          swap_variant=variant)
            eng = protocol.get_engine(cfg)
            phi = eng.branch_states(cfg.beta, cfg.t, [cfg.g])[0]
            n, site = eng.reg.n_qubits, eng.readout[0]
            parts = [np.moveaxis(p.reshape((2,) * n), site, 0).reshape(2, -1)
                     for p in phi]
            f_e = 0.25 * np.linalg.norm(parts[0][0] + parts[1][1]) ** 2
            mean, stderr = protocol.run_arbitrary_avg(cfg, 100, seed=3)
            assert stderr > 0
            assert abs(mean - (2 * f_e + 1) / 3) <= 4 * stderr


class TestStabilizerFidelity:
    def test_bell_table(self):
        expected = {"phi_plus": 1.0, "phi_minus": 1.0,
                    "psi_plus": 1.0, "psi_minus": -1.0}
        for name, vec in BELLS.items():
            rho = np.outer(vec, vec.conj())
            assert protocol.stabilizer_fidelity(rho) == pytest.approx(
                expected[name], abs=1e-12)

    def test_maximally_mixed(self):
        assert protocol.stabilizer_fidelity(np.eye(4) / 4) == pytest.approx(0.5)

    def test_stabilizer_expectations_signature(self):
        # (XX, ZZ, YY) signatures for the four Bell states
        sig = {}
        for name, vec in BELLS.items():
            rho = np.outer(vec, vec.conj())
            sig[name] = tuple(
                round(float(np.real(np.trace(rho @ qop.kron(p, p)))))
                for p in (qop.PAULI_X, qop.PAULI_Z, qop.PAULI_Y))
        assert sig["phi_plus"] == (1, 1, -1)
        assert sig["phi_minus"] == (-1, 1, 1)
        assert sig["psi_plus"] == (1, -1, 1)
        assert sig["psi_minus"] == (-1, -1, -1)

    def test_rejects_invalid(self):
        with pytest.raises(qop.QopError):
            protocol.stabilizer_fidelity(np.eye(4))
        with pytest.raises(qop.QopError):
            protocol.stabilizer_fidelity(np.eye(2) / 2)


class TestBell:
    def test_identity_channel_at_swap_targets(self):
        # with g = t = 0 the protocol only moves the pair to the left
        # block; the state there is exactly Phi+
        cfg = protocol.ProtocolConfig(message="bell_phi_plus",
                                      swap_variant="bell_sequential",
                                      seed=0, beta=4.0, g=0.0, t=0.0)
        eng = protocol.get_engine(cfg)
        psi = eng.final_state(cfg.beta, cfg.g, cfg.t)
        targets = [b for _, b in cfg.swap_site_pairs()]
        rho = qop.reduced_density(psi, eng.reg.n_qubits, targets)
        assert protocol.stabilizer_fidelity(rho) == pytest.approx(1.0, abs=1e-10)

    def test_readout_density_matrix_is_physical(self):
        cfg = protocol.ProtocolConfig(message="bell_phi_plus",
                                      swap_variant="bell_sequential",
                                      seed=1, beta=20.0, g=1.9,
                                      t=protocol.DEFAULT_T_BELL)
        eng = protocol.get_engine(cfg)
        psi = eng.final_state(cfg.beta, cfg.g, cfg.t)
        rho = qop.reduced_density(psi, eng.reg.n_qubits, list(eng.readout))
        assert abs(np.trace(rho) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(rho).min() >= -1e-9
        val = protocol.run_bell(cfg)
        assert -1.0 <= val <= 2.0

    def test_periodicity(self):
        cfg = protocol.ProtocolConfig(message="bell_phi_plus",
                                      swap_variant="bell_sequential",
                                      seed=2, beta=10.0, t=protocol.DEFAULT_T_BELL)
        for g in (0.4, 1.7, 3.0):
            a = protocol.run_bell(replace(cfg, g=g))
            b = protocol.run_bell(replace(cfg, g=g + 2 * math.pi))
            assert abs(a - b) <= 1e-8

    def test_wrong_config_rejected(self):
        with pytest.raises(protocol.ConfigError):
            protocol.run_bell(protocol.ProtocolConfig())

    def test_infinite_beta_rejected(self):
        with pytest.raises(protocol.ConfigError):
            protocol.run_bell(protocol.ProtocolConfig(
                message="bell_phi_plus", swap_variant="bell_sequential",
                beta=math.inf))


class TestOverlapTable:
    def _eig(self, seed):
        c = models.sample_syk_couplings(6, 4, protocol.DEFAULT_J_SCALE, seed)
        h = models.build_syk_side_matrix(c, "left", 3)
        return qop.hermitian_eig(h), h

    def test_weights_normalized(self):
        eig, _ = self._eig(0)
        w = tfd.boltzmann_weights(eig.values, 7.0) ** 2
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_entries_match_brute_force(self):
        eig, _ = self._eig(0)
        beta = 3.0
        table = protocol.overlap_coefficients(eig, "delta01", beta)
        v_pair = protocol.paired_right_basis(eig, 3)
        g_left = layout.left_majorana_local(3, 0)
        g_right = qop.kron_all([qop.PAULI_Z] * 3) @ layout.right_majorana_local(3, 0)
        c = tfd.boltzmann_weights(eig.values, beta)
        for n in range(8):
            for m in range(8):
                a_nm = eig.vectors[:, n].conj() @ g_left @ eig.vectors[:, m]
                b_nm = v_pair[:, n].conj() @ g_right @ v_pair[:, m]
                want = c[n] * c[m] * a_nm * b_nm
                assert abs(table.values[n, m] - want) <= 1e-12

    def test_table_sums_to_thermal_correlator(self):
        for variant, i_maj in (("delta01", 0), ("delta02", 2)):
            for beta in (0.0, 5.0):
                eig, h = self._eig(1)
                table = protocol.overlap_coefficients(eig, variant, beta)
                corr = protocol.thermal_majorana_correlation(i_maj, 0, beta, h)
                assert abs(table.coherent_sum() - corr) <= 1e-10

    def test_far_swap_interferes_destructively(self):
        # coherent mean of the mismatched table vanishes at beta = 0
        ratios = []
        for seed in range(10):
            eig, _ = self._eig(seed)
            near = protocol.overlap_coefficients(eig, "delta01", 0.0)
            far = protocol.overlap_coefficients(eig, "delta02", 0.0)
            ratios.append(abs(far.coherent_mean()) / abs(near.coherent_mean()))
        assert np.mean(ratios) < 0.3

    def test_bell_variant_rejected(self):
        eig, _ = self._eig(2)
        with pytest.raises(protocol.ConfigError):
            protocol.overlap_coefficients(eig, "bell_sequential", 4.0)


class TestThermalCorrelation:
    def _h(self, seed):
        c = models.sample_syk_couplings(6, 4, protocol.DEFAULT_J_SCALE, seed)
        return models.build_syk_side_matrix(c, "left", 3)

    def test_infinite_temperature_uniform_weights(self):
        # oracle: uniform-weight double sum over raw matrix elements
        h = self._h(0)
        eig = qop.hermitian_eig(h)
        v_pair = protocol.paired_right_basis(eig, 3)
        gl = layout.left_majorana_block(3, 1)
        gr = layout.right_majorana_block(3, 4)
        # restrict block operators to the factors they act on
        a = eig.vectors.conj().T @ layout.left_majorana_local(3, 1) @ eig.vectors
        string = qop.kron_all([qop.PAULI_Z] * 3)
        b = v_pair.conj().T @ (string @ layout.right_majorana_local(3, 4)) @ v_pair
        want = (a * b).sum() / 8.0
        got = protocol.thermal_majorana_correlation(1, 4, 0.0, h)
        assert abs(got - want) <= 1e-10

    def test_eigen_route_matches_state_route(self):
        # second route: explicit TFD vector and matrix-vector expectation
        h = self._h(1)
        beta = 6.0
        got = protocol.thermal_majorana_correlation(0, 2, beta, h)
        reg = layout.RegisterLayout(n_message=1, n_side=3)
        state = tfd.build_tfd(h, beta, reg)
        op = layout.left_majorana_block(3, 0) @ layout.right_majorana_block(3, 2)
        want = np.vdot(state, op @ state)
        assert abs(got - want) <= 1e-12

    def test_bounded(self):
        h = self._h(2)
        for (i, j) in ((0, 0), (1, 3), (5, 2)):
            assert abs(protocol.thermal_majorana_correlation(i, j, 4.0, h)) <= 1.0 + 1e-9

    def test_matched_pair_dominates(self):
        diag, far = [], []
        for seed in range(6):
            h = self._h(seed)
            diag.append(abs(protocol.thermal_majorana_correlation(0, 0, 0.0, h)))
            far.append(abs(protocol.thermal_majorana_correlation(4, 0, 0.0, h)))
        assert np.mean(diag) > np.mean(far)
        assert np.mean(diag) == pytest.approx(1.0, abs=1e-10)


class TestTfimModel:
    def test_zero_steps_is_undriven_baseline(self):
        # k = 0: the coupling alone teleports through the pair state
        cfg = protocol.ProtocolConfig(model="tfim", seed=0, beta=0.0,
                                      g=math.pi / 2, t=0.0)
        assert protocol.run_single_qubit(cfg) == pytest.approx(1.0, abs=1e-10)

    def test_driven_channel_is_weak(self):
        gs = np.linspace(0, 2 * math.pi, 41)
        peaks = []
        for seed in range(5):
            eng = protocol.get_engine(
                protocol.ProtocolConfig(model="tfim", seed=seed, t=1.0))
            peaks.append(eng.curve_basis_z(0.0, 1.0, gs).max())
        assert np.mean(peaks) < 0.3

    @pytest.mark.parametrize("thermal", [True, False])
    def test_pipeline_matches_floquet_steps(self, thermal):
        # dense route: k Floquet periods as matrix powers on the full
        # register; the right factor runs the chain with its sites reversed
        mirror = qop.swap_matrix(3, 0, 2)
        i8 = np.eye(8)
        for seed in (0, 1):
            u1 = models.build_tfim_floquet(models.TfimParams.sample(3, seed))
            u_l = qop.kron_all([qop.I2, u1, i8])
            u_r = qop.kron_all([qop.I2, i8, mirror @ u1 @ mirror])
            h1 = 1j * logm(u1)          # u1 = exp(-i H1), principal branch
            h1 = 0.5 * (h1 + h1.conj().T) - np.linalg.eigvalsh(h1).min() * i8
            ins = qop.swap_matrix(REG1.n_qubits, 0, 1)
            eng = protocol.Engine(protocol.ProtocolConfig(
                model="tfim", seed=seed, thermal_readout=thermal))
            for beta in (0.0, 5.0):
                vac = np.kron(expm(-0.5 * beta * h1), i8) @ layout.bell_vacuum(3)
                psi0 = np.kron([1.0, 0.0], vac / np.linalg.norm(vac))
                w_r = qop.kron_all([qop.I2, i8, mirror @ expm(-0.5 * beta * h1) @ mirror])
                for k in range(5):
                    for g in (0.0, 1.3):
                        ul_k = np.linalg.matrix_power(u_l, k)
                        u = (np.linalg.matrix_power(u_r, k)
                             @ eng.size.exp_ig_embedded(REG1, g)
                             @ ul_k @ ins @ ul_k.conj().T)
                        want = u @ psi0
                        if thermal:
                            want = w_r @ want
                        want /= np.linalg.norm(want)
                        got = eng.final_state(beta=beta, g=g, t=float(k))
                        assert np.abs(got - want).max() <= 1e-12
