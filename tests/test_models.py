import math
import numpy as np
import pytest
from scipy.linalg import expm

from sykteleport import layout, models, qop

REG = layout.RegisterLayout(n_message=1, n_side=3)


class TestCouplingSampling:
    def test_table_shape(self):
        c = models.sample_syk_couplings(6, 4, 1.0, seed=0)
        assert len(c.entries) == math.comb(6, 4) == 15
        for quad in c.entries:
            assert list(quad) == sorted(quad)
            assert len(set(quad)) == 4

    def test_variance_parameter(self):
        c = models.sample_syk_couplings(6, 4, 1.0, seed=0)
        # j_scale 1, q 4, n 6: sigma^2 = 3!/6^3 = 1/36
        assert abs(c.sigma ** 2 - 1.0 / 36.0) <= 1e-15

    def test_disorder_statistics(self):
        # >= 10^4 draws across seeds; mean and variance within 3 sigma
        draws = []
        for seed in range(700):
            draws.extend(models.sample_syk_couplings(6, 4, 1.0, seed).entries.values())
        draws = np.asarray(draws)
        n = len(draws)
        assert n >= 10_000
        sigma2 = 1.0 / 36.0
        mean_band = 3.0 * math.sqrt(sigma2 / n)
        assert abs(draws.mean()) <= mean_band
        var_band = 3.0 * sigma2 * math.sqrt(2.0 / (n - 1))
        assert abs(draws.var(ddof=1) - sigma2) <= var_band

    def test_seed_reproducibility(self):
        a = models.sample_syk_couplings(6, 4, 1.3, seed=42)
        b = models.sample_syk_couplings(6, 4, 1.3, seed=42)
        assert a.entries == b.entries

    def test_zero_scale(self):
        c = models.sample_syk_couplings(6, 4, 0.0, seed=1)
        assert all(v == 0.0 for v in c.entries.values())

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            models.sample_syk_couplings(6, 3, 1.0, seed=0)
        with pytest.raises(ValueError):
            models.sample_syk_couplings(2, 4, 1.0, seed=0)


class TestSykHamiltonian:
    def test_zero_couplings_give_zero(self):
        c = models.sample_syk_couplings(6, 4, 0.0, seed=0)
        h = models.build_syk_hamiltonian(c, "left", REG)
        assert np.abs(h).max() == 0.0

    def test_hermitian_and_traceless(self):
        c = models.sample_syk_couplings(6, 4, 1.0, seed=3)
        for side in ("left", "right"):
            h = models.build_syk_side_matrix(c, side, 3)
            assert qop.is_hermitian(h, 1e-10)
            assert abs(np.trace(h)) <= 1e-9

    def test_identity_outside_block(self):
        c = models.sample_syk_couplings(6, 4, 1.0, seed=3)
        h_left = models.build_syk_hamiltonian(c, "left", REG)
        a = models.build_syk_side_matrix(c, "left", 3)
        assert np.abs(h_left - qop.kron_all([np.eye(2), a, np.eye(8)])).max() <= 1e-14
        h_right = models.build_syk_hamiltonian(c, "right", REG)
        b = models.build_syk_side_matrix(c, "right", 3)
        assert np.abs(h_right - qop.kron_all([np.eye(16), b])).max() <= 1e-14

    def test_left_right_spectra_match(self):
        for seed in range(5):
            c = models.sample_syk_couplings(6, 4, 1.0, seed=seed)
            ev_l = np.linalg.eigvalsh(models.build_syk_side_matrix(c, "left", 3))
            ev_r = np.linalg.eigvalsh(models.build_syk_side_matrix(c, "right", 3))
            assert np.abs(ev_l - ev_r).max() <= 1e-9

    def test_pair_vacuum_is_shared_null_direction(self):
        # (H_L - H_R)|vac> = 0: both sides act identically on the pair vacuum
        c = models.sample_syk_couplings(6, 4, 1.0, seed=7)
        vac = layout.bell_vacuum(3)
        a = models.build_syk_side_matrix(c, "left", 3)
        b = models.build_syk_side_matrix(c, "right", 3)
        diff = (np.kron(a, np.eye(8)) - np.kron(np.eye(8), b)) @ vac
        assert np.linalg.norm(diff) <= 1e-10


class TestTfim:
    def test_unitarity(self):
        p = models.TfimParams.sample(3, seed=0)
        u = models.build_tfim_floquet(p)
        assert np.abs(u @ u.conj().T - np.eye(8)).max() <= 1e-10

    def test_two_site_closed_form(self):
        # h = 0, n = 2: both factors have commuting terms; oracle via expm
        p = models.TfimParams(n_sites=2, h_fields=(0.0, 0.0))
        u = models.build_tfim_floquet(p)
        hx = qop.kron(qop.PAULI_X, qop.I2) + qop.kron(qop.I2, qop.PAULI_X)
        hzz = qop.kron(qop.PAULI_Z, qop.PAULI_Z)
        want = expm(1j * (math.pi / 4) * hx) @ expm(1j * (math.pi / 4) * hzz)
        assert np.abs(u - want).max() <= 1e-12

    def test_seed_reproducibility(self):
        u1 = models.build_tfim_floquet(models.TfimParams.sample(3, seed=9))
        u2 = models.build_tfim_floquet(models.TfimParams.sample(3, seed=9))
        assert np.array_equal(u1, u2)

    def test_field_statistics(self):
        hs = []
        for seed in range(4000):
            hs.extend(models.TfimParams.sample(3, seed=seed).h_fields)
        hs = np.asarray(hs)
        n = len(hs)
        assert abs(hs.mean()) <= 3.0 * 0.5 / math.sqrt(n)
        assert abs(hs.var(ddof=1) - 0.25) <= 3.0 * 0.25 * math.sqrt(2.0 / (n - 1))

    def test_too_small(self):
        with pytest.raises(ValueError):
            models.build_tfim_floquet(models.TfimParams(n_sites=1))

    def test_effective_spectrum(self):
        p = models.TfimParams.sample(3, seed=2)
        u = models.build_tfim_floquet(p)
        ev, vec = models.floquet_effective_spectrum(u)
        recon = (vec * np.exp(-1j * ev)) @ vec.conj().T
        assert np.abs(recon - u).max() <= 1e-10


class TestStreamSplitting:
    def test_substreams_independent_of_order(self):
        sigma = 0.5
        fwd = [models.gaussian_draw(11, models.STREAM_SYK, i, sigma) for i in range(10)]
        rev = [models.gaussian_draw(11, models.STREAM_SYK, i, sigma)
               for i in reversed(range(10))]
        assert fwd == list(reversed(rev))

    def test_streams_distinct(self):
        a = models.split_uniform(0, models.STREAM_SYK, 0)
        b = models.split_uniform(0, models.STREAM_TFIM, 0)
        c = models.split_uniform(0, models.STREAM_HAAR, 0)
        assert len({a, b, c}) == 3

    def test_uniform_open_interval(self):
        for i in range(200):
            u = models.split_uniform(3, models.STREAM_SYK, i)
            assert 0.0 < u < 1.0


class TestMajoranaEmbeddings:
    def test_block_anticommutation(self):
        ops = [layout.left_majorana_block(3, j) for j in range(6)]
        ops += [layout.right_majorana_block(3, j) for j in range(6)]
        for a, ga in enumerate(ops):
            for b, gb in enumerate(ops):
                target = 2.0 * np.eye(64) if a == b else 0.0
                assert np.abs(ga @ gb + gb @ ga - target).max() <= 1e-12

    def test_quartic_left_is_block_local(self):
        c = models.sample_syk_couplings(6, 4, 1.0, seed=1)
        gl = [layout.left_majorana_block(3, j) for j in range(6)]
        h = np.zeros((64, 64), dtype=complex)
        for (i, j, k, l), v in c.entries.items():
            h -= (v / 24.0) * (gl[i] @ gl[j] @ gl[k] @ gl[l])
        a = models.build_syk_side_matrix(c, "left", 3)
        assert np.abs(h - np.kron(a, np.eye(8))).max() <= 1e-12

    def test_quartic_right_is_block_local(self):
        c = models.sample_syk_couplings(6, 4, 1.0, seed=1)
        gr = [layout.right_majorana_block(3, j) for j in range(6)]
        h = np.zeros((64, 64), dtype=complex)
        for (i, j, k, l), v in c.entries.items():
            h -= (v / 24.0) * (gr[i] @ gr[j] @ gr[k] @ gr[l])
        b = models.build_syk_side_matrix(c, "right", 3)
        assert np.abs(h - np.kron(np.eye(8), b)).max() <= 1e-12
