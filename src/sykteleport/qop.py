"""Dense operator toolbox for small qubit registers.

Everything here works on plain complex numpy arrays.  States are 1-D
arrays of length 2**n, operators are (2**n, 2**n) matrices, and qubit 0
is always the leftmost (most significant) Kronecker factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

HERMITICITY_TOL = 1e-10

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
LOWERING = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|

PAULIS = {"I": I2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


class QopError(ValueError):
    """Raised on invalid operator/state inputs."""


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with a's index major."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_all(ops) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for op in ops:
        out = np.kron(out, op)
    return out


def pauli_on(n_qubits: int, site: int, letter: str) -> np.ndarray:
    """Single-site Pauli embedded in an n-qubit register."""
    if not 0 <= site < n_qubits:
        raise QopError(f"site {site} out of range for {n_qubits} qubits")
    if letter not in PAULIS:
        raise QopError(f"unknown Pauli letter {letter!r}")
    return kron_all([PAULIS[letter] if k == site else I2 for k in range(n_qubits)])


def jw_annihilation(n_modes: int, i: int) -> np.ndarray:
    """Jordan-Wigner annihilation operator for mode i (1-based).

    The lowering operator sits at position i with Z letters on every
    later site, so modes with smaller index carry the longer string.
    """
    if not 1 <= i <= n_modes:
        raise QopError(f"mode {i} out of range for {n_modes} modes")
    ops = [I2] * (i - 1) + [LOWERING] + [PAULI_Z] * (n_modes - i)
    return kron_all(ops)


def majorana(n_modes: int, k: int) -> np.ndarray:
    """Majorana operator k (0-based, k in [0, 2*n_modes)).

    Even k is c + c^dag of mode k//2, odd k is i(c - c^dag); both are
    Hermitian and square to the identity.
    """
    if not 0 <= k < 2 * n_modes:
        raise QopError(f"majorana index {k} out of range for {n_modes} modes")
    i, odd = divmod(k, 2)
    c = jw_annihilation(n_modes, i + 1)
    cd = c.conj().T
    return 1j * (c - cd) if odd else c + cd


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """True when every matrix over the last two axes of m is Hermitian
    within tol, relative to its largest entry."""
    m = np.asarray(m)
    dev = np.abs(m - m.conj().swapaxes(-1, -2))
    # each matrix's bound tol max(1, max |m|) is at least tol, so a stack
    # within tol passes without the per-matrix bounds
    if dev.size and dev.max() <= tol:
        return True
    dev = dev.max(axis=(-2, -1))
    return bool(np.all(dev <= tol * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))))


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian
    matrix, or of each matrix of a stack (leading axes first)."""

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eig(h: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, or of a (..., d, d) stack
    of them, with fixed conventions.

    Eigenvalues come back ascending.  Each eigenvector is rotated so its
    largest-magnitude component is real and positive, which makes the
    output reproducible for a given input matrix; a matrix of a stack gets
    the bits it gets alone.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-2] != h.shape[-1]:
        raise QopError("hermitian_eig expects a square matrix or a stack of them")
    if not is_hermitian(h):
        raise QopError("matrix is not Hermitian within tolerance")
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise QopError(f"eigensolver failed to converge: {exc}") from exc
    # the first largest-magnitude component of each column; hypot has the
    # bits of the scalar abs(), which np.abs of a complex array need not
    k = np.abs(vectors).argmax(axis=-2)
    top = np.take_along_axis(vectors, k[..., None, :], axis=-2)
    vectors = vectors / (top / np.hypot(top.real, top.imag))
    return EigenSystem(values=values, vectors=vectors)


def evolve(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h via spectral decomposition; the
    backward step exp(+i h t) is its adjoint."""
    eig = hermitian_eig(h)
    phases = np.exp(-1j * eig.values * t)
    return (eig.vectors * phases) @ eig.vectors.conj().T


def apply_matrix_on_sites(state: np.ndarray, n_qubits: int, op: np.ndarray,
                          first: int, n_block: int) -> np.ndarray:
    """Apply op acting on the contiguous sites [first, first+n_block)."""
    pre = 2 ** first
    mid = 2 ** n_block
    post = 2 ** (n_qubits - first - n_block)
    t = state.reshape(pre, mid, post)
    return np.einsum("ab,ibj->iaj", op, t).reshape(-1)


def reduced_density(state: np.ndarray, n_qubits: int, keep) -> np.ndarray:
    """Reduced density matrix of a pure state on the qubits in `keep`.

    Leading axes of `state` are batch axes: (..., 2**n) gives
    (..., 2**k, 2**k) with k = len(keep).
    """
    keep = list(keep)
    if len(set(keep)) != len(keep) or any(not 0 <= s < n_qubits for s in keep):
        raise QopError(f"invalid site list {keep}")
    rest = [s for s in range(n_qubits) if s not in keep]
    state = np.asarray(state)
    lead = state.shape[:-1]
    nb = len(lead)
    t = state.reshape(lead + (2,) * n_qubits)
    t = np.transpose(t, list(range(nb)) + [nb + s for s in keep + rest])
    t = t.reshape(lead + (2 ** len(keep), -1))
    return t @ t.conj().swapaxes(-1, -2)


def expectation(state: np.ndarray, op: np.ndarray):
    """<state|op|state>; the real part alone is meaningful for Hermitian op."""
    state = np.asarray(state)
    op = np.asarray(op)
    if op.shape != (state.size, state.size):
        raise QopError("operator/state dimension mismatch")
    val = np.vdot(state, op @ state)
    return val


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis."""

    letters: str

    def __post_init__(self):
        if any(ch not in PAULIS for ch in self.letters):
            raise QopError(f"bad Pauli letters {self.letters!r}")

    def to_matrix(self) -> np.ndarray:
        return kron_all([PAULIS[ch] for ch in self.letters])


def swap_matrix(n_qubits: int, a: int, b: int) -> np.ndarray:
    """Permutation matrix exchanging qubits a and b."""
    if a == b:
        raise QopError("swap sites must differ")
    dim = 2 ** n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    sa = n_qubits - 1 - a
    sb = n_qubits - 1 - b
    for x in range(dim):
        ba = (x >> sa) & 1
        bb = (x >> sb) & 1
        y = x & ~(1 << sa) & ~(1 << sb)
        y |= bb << sa
        y |= ba << sb
        out[y, x] = 1.0
    return out


def swap_pauli_decomposition(n_qubits: int, a: int, b: int):
    """Expand SWAP(a, b) in the two-site Pauli basis.

    Returns the full 16-entry table [(PauliString, coefficient), ...]
    over letter pairs on sites (a, b); the identity-elsewhere embedding
    reconstructs the SWAP matrix exactly.
    """
    if a == b:
        raise QopError("swap sites must differ")
    sw2 = swap_matrix(2, 0, 1)
    table = []
    for la, lb in product("IXYZ", repeat=2):
        p2 = kron(PAULIS[la], PAULIS[lb])
        coeff = np.trace(p2.conj().T @ sw2) / 4.0
        letters = "".join(
            la if k == a else lb if k == b else "I" for k in range(n_qubits)
        )
        table.append((PauliString(letters), complex(coeff)))
    return table
