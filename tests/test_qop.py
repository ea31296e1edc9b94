import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sykteleport import cli, models, qop


def brute_force_kron(a, b):
    """Elementwise definition of the Kronecker product (index oracle)."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


class TestKron:
    def test_identity(self):
        assert np.array_equal(qop.kron(qop.I2, qop.I2), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(qop.kron(qop.PAULI_Z, qop.I2), np.diag([1, 1, -1, -1]))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose(qop.kron(a, b), brute_force_kron(a, b), atol=1e-14)
        assert np.allclose(qop.kron(qop.PAULI_X, qop.PAULI_Z),
                           brute_force_kron(qop.PAULI_X, qop.PAULI_Z), atol=0)


class TestPauliOn:
    def test_single_site(self):
        assert np.array_equal(qop.pauli_on(1, 0, "Z"), qop.PAULI_Z)

    def test_embedding(self):
        assert np.array_equal(qop.pauli_on(2, 1, "X"), np.kron(qop.I2, qop.PAULI_X))

    def test_involution(self):
        op = qop.pauli_on(3, 0, "Y")
        assert np.allclose(op @ op, np.eye(8), atol=1e-14)

    def test_site_out_of_range(self):
        with pytest.raises(qop.QopError):
            qop.pauli_on(2, 2, "X")


class TestJordanWigner:
    def test_single_mode(self):
        assert np.array_equal(qop.jw_annihilation(1, 1), qop.LOWERING)

    def test_cross_mode_anticommutator_vanishes(self):
        c1 = qop.jw_annihilation(2, 1)
        c2 = qop.jw_annihilation(2, 2)
        assert np.abs(c1 @ c2 + c2 @ c1).max() <= 1e-12

    def test_canonical_anticommutator(self):
        c2 = qop.jw_annihilation(3, 2)
        acomm = c2 @ c2.conj().T + c2.conj().T @ c2
        assert np.abs(acomm - np.eye(8)).max() <= 1e-12

    def test_string_follows_the_mode(self):
        # mode 1 of 2 carries a Z letter on site 2
        assert np.array_equal(qop.jw_annihilation(2, 1),
                              np.kron(qop.LOWERING, qop.PAULI_Z))

    def test_index_out_of_range(self):
        with pytest.raises(qop.QopError):
            qop.jw_annihilation(2, 3)


class TestMajorana:
    def test_single_mode_even(self):
        # c + c^dag for one mode is exactly X
        assert np.allclose(qop.majorana(1, 0), qop.PAULI_X, atol=0)

    def test_single_mode_odd(self):
        # i(c - c^dag) expands to [[0, i], [-i, 0]]
        assert np.allclose(qop.majorana(1, 1),
                           np.array([[0, 1j], [-1j, 0]]), atol=0)

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
    def test_anticommutation(self, n_modes):
        dim = 2 ** n_modes
        gammas = [qop.majorana(n_modes, k) for k in range(2 * n_modes)]
        for a, ga in enumerate(gammas):
            for b, gb in enumerate(gammas):
                target = 2.0 * np.eye(dim) if a == b else np.zeros((dim, dim))
                assert np.abs(ga @ gb + gb @ ga - target).max() <= 1e-12

    def test_hermitian_and_squares_to_identity(self):
        for k in range(6):
            g = qop.majorana(3, k)
            assert qop.is_hermitian(g, 1e-14)
            assert np.abs(g @ g - np.eye(8)).max() <= 1e-12


class TestHermitianEig:
    def test_diagonal_input(self):
        eig = qop.hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(eig.values, [1.0, 2.0, 3.0])

    def test_pauli_spectrum(self):
        eig = qop.hermitian_eig(qop.PAULI_X)
        assert np.allclose(eig.values, [-1.0, 1.0])

    def test_reconstruction_8x8(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 8)
        eig = qop.hermitian_eig(h)
        recon = (eig.vectors * eig.values) @ eig.vectors.conj().T
        assert np.abs(recon - h).max() <= 1e-9

    def test_reconstruction_many_dims(self):
        # round trip over 200 random Hermitian matrices, dims 2..64
        rng = np.random.default_rng(5)
        for trial in range(200):
            dim = int(rng.integers(2, 65))
            h = random_hermitian(rng, dim)
            eig = qop.hermitian_eig(h)
            recon = (eig.vectors * eig.values) @ eig.vectors.conj().T
            assert np.abs(recon - h).max() <= 1e-9 * dim
            assert np.all(np.diff(eig.values) >= -1e-12)
            unit = eig.vectors.conj().T @ eig.vectors
            assert np.abs(unit - np.eye(dim)).max() <= 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 16)
        e1 = qop.hermitian_eig(h)
        e2 = qop.hermitian_eig(h.copy())
        assert np.array_equal(e1.values, e2.values)
        assert np.array_equal(e1.vectors, e2.vectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(qop.QopError):
            qop.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        # one bad matrix of a stack is enough
        stack = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
        with pytest.raises(qop.QopError, match="Hermitian"):
            qop.hermitian_eig(stack)
        with pytest.raises(qop.QopError, match="square"):
            qop.hermitian_eig(np.zeros((2, 2, 3)))

    @staticmethod
    def _reference(h):
        """eigh, then each column rotated alone, one scalar phase at a time."""
        values, vectors = np.linalg.eigh(h)
        vectors = vectors.copy()
        for j in range(vectors.shape[1]):
            col = vectors[:, j]
            k = int(np.argmax(np.abs(col)))
            vectors[:, j] = col / (col[k] / abs(col[k]))
        return values, vectors

    def test_stack_has_the_bits_of_lone_matrices(self):
        # the 20 disorder realizations of the sq1 preset, both sides, where
        # np.abs of the top component (not hypot) moves eigenvectors in the
        # last bit, and random matrices of several sizes
        seeds = [cli.substream_seed(0, "disorder", i) for i in range(20)]
        tables = models.sample_syk_couplings(6, 4, 5.0, seeds)
        stacks = [models.build_syk_side_matrix(tables, side, 3) for side in ("left", "right")]
        rng = np.random.default_rng(23)
        stacks += [np.stack([random_hermitian(rng, dim) for _ in range(6)])
                   for dim in (2, 8, 16)]
        stacks.append(stacks[-1].reshape(2, 3, 16, 16))
        for stack in stacks:
            eig = qop.hermitian_eig(stack)
            assert eig.values.shape == stack.shape[:-1]
            assert eig.vectors.shape == stack.shape
            flat_values = eig.values.reshape(-1, stack.shape[-1])
            flat_vectors = eig.vectors.reshape((-1,) + stack.shape[-2:])
            for h, values, vectors in zip(stack.reshape((-1,) + stack.shape[-2:]),
                                          flat_values, flat_vectors):
                lone = qop.hermitian_eig(h)
                ref_values, ref_vectors = self._reference(h)
                for want in (lone.values, ref_values):
                    assert values.tobytes() == want.tobytes()
                for want in (lone.vectors, ref_vectors):
                    assert vectors.view(float).tobytes() == want.view(float).tobytes()


class TestEvolve:
    def test_closed_form_pauli(self):
        u = qop.evolve(qop.PAULI_X, np.pi / 2)
        assert np.abs(u - (-1j) * qop.PAULI_X).max() <= 1e-12

    def test_zero_time(self):
        rng = np.random.default_rng(2)
        h = random_hermitian(rng, 8)
        assert np.abs(qop.evolve(h, 0.0) - np.eye(8)).max() <= 1e-12

    def test_inverse_pair(self):
        rng = np.random.default_rng(4)
        h = random_hermitian(rng, 8)
        prod = qop.evolve(h, -1.3) @ qop.evolve(h, 1.3)
        assert np.abs(prod - np.eye(8)).max() <= 1e-10

    def test_group_law(self):
        rng = np.random.default_rng(9)
        h = random_hermitian(rng, 8)
        lhs = qop.evolve(h, 0.7) @ qop.evolve(h, 1.9)
        rhs = qop.evolve(h, 2.6)
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_unitary(self):
        rng = np.random.default_rng(13)
        h = random_hermitian(rng, 16)
        u = qop.evolve(h, 3.7)
        assert np.abs(u @ u.conj().T - np.eye(16)).max() <= 1e-10


def brute_force_partial_trace(rho, n_qubits, keep):
    """Index-summation oracle for the partial trace."""
    keep = list(keep)
    drop = [s for s in range(n_qubits) if s not in keep]
    dk = 2 ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)

    def full_index(kept_bits, dropped_bits):
        bits = [0] * n_qubits
        for s, b in zip(keep, kept_bits):
            bits[s] = b
        for s, b in zip(drop, dropped_bits):
            bits[s] = b
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        return idx

    for i in range(dk):
        ib = [(i >> (len(keep) - 1 - p)) & 1 for p in range(len(keep))]
        for j in range(dk):
            jb = [(j >> (len(keep) - 1 - p)) & 1 for p in range(len(keep))]
            for d in range(2 ** len(drop)):
                db = [(d >> (len(drop) - 1 - p)) & 1 for p in range(len(drop))]
                out[i, j] += rho[full_index(ib, db), full_index(jb, db)]
    return out


class TestPartialTrace:
    """qop.reduced_density, the partial trace of a pure state."""

    def test_bell_pair(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        assert np.abs(qop.reduced_density(bell, 2, [0]) - np.eye(2) / 2).max() <= 1e-12

    def test_product_state(self):
        rng = np.random.default_rng(21)
        a = random_state(rng, 2)
        b = random_state(rng, 4)
        got = qop.reduced_density(np.kron(a, b), 3, [0])
        assert np.abs(got - np.outer(a, a.conj())).max() <= 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        psi = random_state(rng, 16)
        rho = np.outer(psi, psi.conj())
        for keep in ([0, 1], [2, 3], [1, 3], [3, 0]):
            got = qop.reduced_density(psi, 4, keep)
            want = brute_force_partial_trace(rho, 4, keep)
            assert np.abs(got - want).max() <= 1e-12
            assert abs(np.trace(got) - 1.0) <= 1e-12

    def test_trace_and_positivity_preserved(self):
        # a random n-qubit density matrix m m^dagger / tr through its
        # purification: m as a state of n system and n ancilla qubits
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            dim = 2 ** n
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = m @ m.conj().T
            rho /= np.trace(rho)
            keep = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            keep = [int(k) for k in keep]
            red = qop.reduced_density(m.reshape(-1) / np.linalg.norm(m), 2 * n, keep)
            assert np.abs(red - brute_force_partial_trace(rho, n, keep)).max() <= 1e-12
            assert abs(np.trace(red) - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(red).min() >= -1e-9

    def test_invalid_sites(self):
        with pytest.raises(qop.QopError):
            qop.reduced_density(np.eye(4)[0], 2, [0, 0])
        with pytest.raises(qop.QopError):
            qop.reduced_density(np.eye(4)[0], 2, [2])

    def test_reduced_density_agrees(self):
        # leading batch axes: one call on a (2, 3) stack of states agrees
        # with the brute-force partial trace of each state
        rng = np.random.default_rng(31)
        psi = np.stack([random_state(rng, 16) for _ in range(6)]).reshape(2, 3, 16)
        for keep in ([0], [1, 2], [0, 3]):
            batch = qop.reduced_density(psi, 4, keep)
            assert batch.shape == (2, 3, 2 ** len(keep), 2 ** len(keep))
            for idx in np.ndindex(2, 3):
                want = brute_force_partial_trace(np.outer(psi[idx], psi[idx].conj()), 4, keep)
                assert np.abs(batch[idx] - want).max() <= 1e-12


class TestExpectation:
    def test_z_on_zero(self):
        assert abs(qop.expectation(np.array([1, 0]), qop.PAULI_Z) - 1.0) <= 1e-14

    def test_bell_xx(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        val = qop.expectation(bell, qop.kron(qop.PAULI_X, qop.PAULI_X))
        assert abs(val - 1.0) <= 1e-14

    def test_identity_normalization(self):
        rng = np.random.default_rng(37)
        psi = random_state(rng, 8)
        assert abs(qop.expectation(psi, np.eye(8)) - 1.0) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(qop.QopError):
            qop.expectation(np.array([1, 0]), np.eye(4))


class TestSwapDecomposition:
    def test_two_qubit_coefficients(self):
        # oracle: evaluate Tr(P^dag SWAP)/4 over all 16 strings directly
        sw = qop.swap_matrix(2, 0, 1)
        table = {ps.letters: c for ps, c in qop.swap_pauli_decomposition(2, 0, 1)}
        for la in "IXYZ":
            for lb in "IXYZ":
                p = qop.kron(qop.PAULIS[la], qop.PAULIS[lb])
                want = np.trace(p.conj().T @ sw) / 4.0
                assert abs(table[la + lb] - want) <= 1e-14
        for letters in ("II", "XX", "YY", "ZZ"):
            assert abs(table[letters] - 0.5) <= 1e-14

    @pytest.mark.parametrize("n_qubits", [2, 3, 4])
    def test_reconstruction(self, n_qubits):
        for a in range(n_qubits):
            for b in range(n_qubits):
                if a == b:
                    continue
                recon = np.zeros((2 ** n_qubits,) * 2, dtype=complex)
                for ps, c in qop.swap_pauli_decomposition(n_qubits, a, b):
                    recon += c * ps.to_matrix()
                assert np.abs(recon - qop.swap_matrix(n_qubits, a, b)).max() <= 1e-12

    def test_swap_involution(self):
        sw = qop.swap_matrix(3, 0, 2)
        assert np.abs(sw @ sw - np.eye(8)).max() <= 1e-14

    def test_equal_sites_rejected(self):
        with pytest.raises(qop.QopError):
            qop.swap_pauli_decomposition(2, 1, 1)


@settings(max_examples=30, deadline=None)
@given(st.text(alphabet="IXYZ", min_size=1, max_size=4))
def test_pauli_string_matrix_properties(letters):
    m = qop.PauliString(letters).to_matrix()
    dim = 2 ** len(letters)
    assert np.abs(m @ m.conj().T - np.eye(dim)).max() <= 1e-12
    assert qop.is_hermitian(m, 1e-12)
