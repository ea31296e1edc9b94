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
    """The squared Boltzmann weights are the Gibbs probabilities
    exp(-beta E_n)/Z."""

    def test_two_level_closed_form(self):
        # Z = 1 + 1/2 at beta = log 2
        got = tfd.boltzmann_weights([0.0, 1.0], math.log(2.0)) ** 2
        assert np.abs(got - [1 / 1.5, 0.5 / 1.5]).max() <= 1e-12

    def test_infinite_temperature(self):
        got = tfd.boltzmann_weights(np.zeros(8), 0.0) ** 2
        assert np.abs(got - 1 / 8).max() <= 1e-12

    def test_against_high_precision_sum(self):
        rng = np.random.default_rng(1)
        spectrum = np.sort(rng.normal(size=8))
        beta = 50.0
        with mpmath.workdps(60):
            terms = [mpmath.e ** (-beta * mpmath.mpf(e)) for e in spectrum]
            z = mpmath.fsum(terms)
            want = np.array([float(w / z) for w in terms])
        got = tfd.boltzmann_weights(spectrum, beta) ** 2
        # the ground state's probability to 1e-12 relative; every other
        # one is exp(-beta gap) smaller and held to the same absolute error
        assert np.abs(got - want).max() <= 1e-12

    def test_empty_spectrum(self):
        with pytest.raises(ValueError):
            tfd.boltzmann_weights([], 1.0)

    def test_boltzmann_weights_normalized(self):
        # the TFD amplitudes: their squares are the Gibbs probabilities
        c = models.sample_syk_couplings(6, 4, 5.0, 0)
        spectrum = np.linalg.eigvalsh(models.build_syk_side_matrix(c, "left", 3))
        w = tfd.boltzmann_weights(spectrum, 7.0) ** 2
        assert abs(w.sum() - 1.0) <= 1e-12


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
        state = tfd.build_tfd(qop.hermitian_eig(h), 0.0, REG)
        total = sum(layout.pair_number_op(3, j) for j in range(6))
        eig = qop.hermitian_eig(total)
        oracle = eig.vectors[:, 0]
        overlap = abs(np.vdot(oracle, state))
        assert overlap >= 1.0 - 1e-10

    def test_ground_state_dominance(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 8)  # random spectrum, nondegenerate
        state = tfd.build_tfd(qop.hermitian_eig(h), 1e4, REG)
        schmidt = np.linalg.svd(state.reshape(8, 8), compute_uv=False)
        assert schmidt[0] >= 1.0 - 1e-6

    @pytest.mark.parametrize("beta", [0.0, 1.0, 5.0, 20.0, 100.0])
    def test_gibbs_marginals(self, beta):
        rng = np.random.default_rng(int(beta) + 2)
        h = random_hermitian(rng, 8)
        state = tfd.build_tfd(qop.hermitian_eig(h), beta, REG)
        rho_left = qop.reduced_density(state, 6, [0, 1, 2])
        assert np.abs(rho_left - gibbs(h, beta)).max() <= 1e-9
        # right marginal is the Gibbs state of the right-side realization
        c = models.sample_syk_couplings(6, 4, 1.0, seed=3)
        a = models.build_syk_side_matrix(c, "left", 3)
        b = models.build_syk_side_matrix(c, "right", 3)
        state = tfd.build_tfd(qop.hermitian_eig(a), beta, REG)
        rho_right = qop.reduced_density(state, 6, [3, 4, 5])
        assert np.abs(rho_right - gibbs(b, beta)).max() <= 1e-9

    def test_norm_and_partition_function(self):
        rng = np.random.default_rng(6)
        h = random_hermitian(rng, 8)
        state = tfd.build_tfd(qop.hermitian_eig(h), 5.0, REG)
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-12
        # the Schmidt probabilities are exp(-beta E_n)/Z with the direct Z
        spectrum = np.linalg.eigvalsh(h)
        gibbs = np.exp(-5.0 * spectrum) / np.exp(-5.0 * spectrum).sum()
        schmidt = np.linalg.svd(state.reshape(8, 8), compute_uv=False)
        assert np.abs(np.sort(schmidt ** 2) - np.sort(gibbs)).max() <= 1e-10

    def test_schmidt_coefficients(self):
        rng = np.random.default_rng(12)
        h = random_hermitian(rng, 8)
        beta = 3.0
        state = tfd.build_tfd(qop.hermitian_eig(h), beta, REG)
        schmidt = np.sort(np.linalg.svd(state.reshape(8, 8), compute_uv=False))
        want = np.sort(tfd.boltzmann_weights(np.linalg.eigvalsh(h), beta))
        assert np.abs(schmidt - want).max() <= 1e-9

    def test_entropy_monotone_in_beta(self):
        # the entanglement entropy across the left/right cut, in nats
        rng = np.random.default_rng(15)
        h = random_hermitian(rng, 8)
        entropies = []
        for b in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
            state = tfd.build_tfd(qop.hermitian_eig(h), b, REG)
            p = np.linalg.svd(state.reshape(8, 8), compute_uv=False) ** 2
            p = p[p > 1e-300]
            entropies.append(float(-(p * np.log(p)).sum()))
        assert abs(entropies[0] - 3 * math.log(2)) <= 1e-12
        assert all(b <= a + 1e-12 for a, b in zip(entropies, entropies[1:]))

    def test_extreme_beta_is_finite(self):
        rng = np.random.default_rng(18)
        h = random_hermitian(rng, 8)
        state = tfd.build_tfd(qop.hermitian_eig(h), 1e4, REG)
        assert np.isfinite(state).all()
