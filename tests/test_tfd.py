import math

import mpmath
import numpy as np
import pytest

from sykteleport import layout, models, qop, tfd

REG = layout.RegisterLayout(n_message=1, n_side=3)


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def gibbs(h, beta):
    eig = qop.hermitian_eig(h)
    w = np.exp(-beta * (eig.values - eig.values.min()))
    rho = (eig.vectors * w) @ eig.vectors.conj().T
    return rho / np.trace(rho)


class TestPartitionFunction:
    def test_two_level_closed_form(self):
        got = tfd.log_partition_function([0.0, 1.0], math.log(2.0))
        assert abs(got - math.log(1.5)) <= 1e-12

    def test_infinite_temperature(self):
        assert abs(tfd.log_partition_function(np.zeros(8), 0.0) - math.log(8.0)) <= 1e-12

    def test_against_high_precision_sum(self):
        rng = np.random.default_rng(1)
        spectrum = np.sort(rng.normal(size=8))
        beta = 50.0
        with mpmath.workdps(60):
            want = float(mpmath.log(mpmath.fsum(mpmath.e ** (-beta * mpmath.mpf(e))
                                                for e in spectrum)))
        got = tfd.log_partition_function(spectrum, beta)
        # an absolute error on log Z is the relative error on Z
        assert abs(got - want) <= 1e-10

    def test_empty_spectrum(self):
        with pytest.raises(ValueError):
            tfd.log_partition_function([], 1.0)


class TestVacuumStructure:
    def test_vacuum_is_annihilated(self):
        vac = layout.bell_vacuum(3)
        for j in range(6):
            assert np.linalg.norm(layout.pair_number_op(3, j) @ vac) <= 1e-12

    def test_vacuum_unique(self):
        total = sum(layout.pair_number_op(3, j) for j in range(6))
        ev = np.linalg.eigvalsh(total)
        assert int((ev < 0.5).sum()) == 1

    def test_pairwise_maximally_entangled(self):
        vac = layout.bell_vacuum(3)
        for k in range(3):
            pair = [k, 5 - k]
            rho = qop.reduced_density(vac, 6, pair)
            assert abs(np.real(np.trace(rho @ rho)) - 1.0) <= 1e-10  # pure
            single = qop.reduced_density(vac, 6, [k])
            assert np.abs(single - np.eye(2) / 2).max() <= 1e-10  # maximal


class TestBuildTfd:
    def test_infinite_temperature_is_pair_product(self):
        # brute-force oracle: the vacuum via eigendecomposition of the
        # total pair occupation, phase-aligned
        c = models.sample_syk_couplings(6, 4, 1.0, seed=0)
        h = models.build_syk_side_matrix(c, "left", 3)
        state = tfd.build_tfd(h, 0.0, REG)
        total = sum(layout.pair_number_op(3, j) for j in range(6))
        eig = qop.hermitian_eig(total)
        oracle = eig.vectors[:, 0]
        overlap = abs(np.vdot(oracle, state))
        assert overlap >= 1.0 - 1e-10

    def test_ground_state_dominance(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 8)  # random spectrum, nondegenerate
        state = tfd.build_tfd(h, 1e4, REG)
        schmidt = np.linalg.svd(state.reshape(8, 8), compute_uv=False)
        assert schmidt[0] >= 1.0 - 1e-6

    @pytest.mark.parametrize("beta", [0.0, 1.0, 5.0, 20.0, 100.0])
    def test_gibbs_marginals(self, beta):
        rng = np.random.default_rng(int(beta) + 2)
        h = random_hermitian(rng, 8)
        state = tfd.build_tfd(h, beta, REG)
        rho_left = qop.reduced_density(state, 6, [0, 1, 2])
        assert np.abs(rho_left - gibbs(h, beta)).max() <= 1e-9
        # right marginal is the Gibbs state of the right-side realization
        c = models.sample_syk_couplings(6, 4, 1.0, seed=3)
        a = models.build_syk_side_matrix(c, "left", 3)
        b = models.build_syk_side_matrix(c, "right", 3)
        state = tfd.build_tfd(a, beta, REG)
        rho_right = qop.reduced_density(state, 6, [3, 4, 5])
        assert np.abs(rho_right - gibbs(b, beta)).max() <= 1e-9

    def test_norm_and_partition_function(self):
        rng = np.random.default_rng(6)
        h = random_hermitian(rng, 8)
        state = tfd.build_tfd(h, 5.0, REG)
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-12
        spectrum = np.linalg.eigvalsh(h)
        direct = float(np.exp(-5.0 * spectrum).sum())
        got = tfd.log_partition_function(spectrum, 5.0)
        assert abs(got - math.log(direct)) <= 1e-10

    def test_schmidt_coefficients(self):
        rng = np.random.default_rng(12)
        h = random_hermitian(rng, 8)
        beta = 3.0
        state = tfd.build_tfd(h, beta, REG)
        schmidt = np.sort(np.linalg.svd(state.reshape(8, 8), compute_uv=False))
        want = np.sort(tfd.boltzmann_weights(np.linalg.eigvalsh(h), beta))
        assert np.abs(schmidt - want).max() <= 1e-9

    def test_entropy_monotone_in_beta(self):
        rng = np.random.default_rng(15)
        h = random_hermitian(rng, 8)
        entropies = [tfd.entanglement_entropy(tfd.build_tfd(h, b, REG))
                     for b in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0)]
        assert all(b <= a + 1e-12 for a, b in zip(entropies, entropies[1:]))

    def test_extreme_beta_is_finite(self):
        rng = np.random.default_rng(18)
        h = random_hermitian(rng, 8)
        state = tfd.build_tfd(h, 1e4, REG)
        assert np.isfinite(state).all()
