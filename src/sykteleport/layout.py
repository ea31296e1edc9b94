"""Register layout for the doubled (left + right) system plus message qubits.

Sites are ordered [message..., left..., right...].  The right block is
stored mirrored: left qubit k is maximally entangled with the right
qubit sitting at register site ``n - 1 - k`` (nested pairing), so the
partner of the first left qubit is the last register site.  One
Jordan-Wigner Majorana family on n_side qubits realizes the left modes,
and every right-side object is its register mirror (`mirror`).  On the
left+right block the left modes carry a Z string over the right factor,
which makes left and right fermions genuinely anticommute.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import qop


@dataclass(frozen=True)
class RegisterLayout:
    """Site bookkeeping for a protocol register."""

    n_message: int
    n_side: int = 3

    @property
    def n_qubits(self) -> int:
        return self.n_message + 2 * self.n_side

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    @property
    def block_qubits(self) -> int:
        return 2 * self.n_side

    @property
    def n_majorana(self) -> int:
        """Majorana modes per side."""
        return 2 * self.n_side

    @property
    def right_sites(self) -> tuple:
        return tuple(range(self.n_message + self.n_side, self.n_qubits))

    def left_site(self, k: int) -> int:
        """Register site of left qubit k (0-based)."""
        return self.n_message + k

    def default_readout(self) -> tuple:
        """Last right-block site(s): one for a single-qubit message, two for Bell."""
        if self.n_message == 1:
            return (self.n_qubits - 1,)
        return (self.n_qubits - 2, self.n_qubits - 1)


@lru_cache(maxsize=None)
def mirror_index(n_side: int) -> np.ndarray:
    """Basis-index permutation reversing the qubit order of one factor.

    This is the mirrored storage of the right block: a left-factor vector
    v reads v[mirror] on the right factor, and a left-factor matrix A
    reads A[mirror][:, mirror].
    """
    index = np.array([int(format(x, f"0{n_side}b")[::-1], 2)
                      for x in range(2 ** n_side)])
    index.setflags(write=False)
    return index


def mirror(a: np.ndarray, n_side: int) -> np.ndarray:
    """The right-factor image U a U^T of a left-factor operator a, or of
    each matrix of a (..., d, d) stack, as a new C-contiguous array, with
    U = diag(s) P for the bit reversal P (`mirror_index`) and the signs
    s_x = (-1)^(N(N-1)/2) for the popcount N of x.  It takes left Majorana
    j to right Majorana j (the right factor's Jordan-Wigner mode
    n_side - 1 - j//2), and so a left Hamiltonian to the right one of the
    same couplings; an entry with s_a s_b = -1 is 0 - a_ab, so a zero
    stays +0, as in a sum of terms."""
    count = np.array([bin(x).count("1") for x in range(2 ** n_side)])
    negative = count * (count - 1) // 2 % 2
    p = mirror_index(n_side)
    out = np.ascontiguousarray(np.asarray(a)[..., p[:, None], p])
    np.subtract(0.0, out, out=out, where=negative[:, None] != negative)
    return out


def left_majorana_local(n_side: int, j: int) -> np.ndarray:
    """Left Majorana restricted to its own n_side-qubit factor."""
    return qop.majorana(n_side, j)


@lru_cache(maxsize=None)
def _pair_number_ops(n_side: int) -> tuple:
    # on the block, left Majorana j is L_j (x) Z^(x n_side) and right
    # Majorana j is I (x) R_j, so gL_j gR_j = L_j (x) Z^(x n_side) R_j
    parity = qop.kron_all([qop.PAULI_Z] * n_side)
    ops = []
    for j in range(2 * n_side):
        gamma = left_majorana_local(n_side, j)
        pair = qop.kron(gamma, parity @ mirror(gamma, n_side))
        ops.append(0.5 * (np.eye(4 ** n_side) + 1j * pair))
    return tuple(ops)


def pair_number_op(n_side: int, j: int) -> np.ndarray:
    """Occupation of the fermion mode pairing left and right Majorana j.

    The operator is (1 + i gL_j gR_j)/2: idempotent, integer spectrum
    {0, 1}, and all the pair occupations commute with each other.
    """
    return _pair_number_ops(n_side)[j]


@lru_cache(maxsize=None)
def bell_vacuum(n_side: int) -> np.ndarray:
    """The joint vacuum of all paired modes on the left+right block.

    This is the maximally entangled state annihilated by every
    (gL_j + i gR_j)/2; it factorizes into one maximally entangled pair
    per (left qubit k, mirrored right qubit) and is the infinite
    temperature thermofield double of any side Hamiltonian built from
    these Majorana modes.
    """
    dim = 4 ** n_side
    # reference with left all |0>, right all |1>: nonzero vacuum overlap
    ref = np.zeros(dim, dtype=complex)
    ref[2 ** n_side - 1] = 1.0
    vec = ref
    for j in range(2 * n_side):
        vec = vec - pair_number_op(n_side, j) @ vec
    norm = np.linalg.norm(vec)
    if norm < 1e-9:
        raise qop.QopError("vacuum projection annihilated the reference state")
    vec = vec / norm
    k = int(np.argmax(np.abs(vec)))
    vec = vec * (abs(vec[k]) / vec[k])
    vec.setflags(write=False)
    return vec
