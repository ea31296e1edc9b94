"""Model builders: random quartic Majorana (SYK) Hamiltonians and the
self-dual Floquet transverse-field Ising baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.special import ndtri

from . import layout, qop

# stream tags for seed splitting; one substream per drawn quantity
STREAM_SYK = 101
STREAM_TFIM = 202
STREAM_HAAR = 303


def split_uniform(seed: int, stream: int, index: int) -> float:
    """One uniform draw in (0, 1) from the (seed, stream, index) substream.

    Each quantity gets its own counter-based substream, so tables are
    identical no matter how the sampling work is batched or parallelized.
    """
    ss = np.random.SeedSequence((int(seed) & 0xFFFFFFFFFFFFFFFF, stream, index))
    gen = np.random.Generator(np.random.PCG64(ss))
    raw = int(gen.integers(0, 1 << 53))
    return (raw + 0.5) / float(1 << 53)


def gaussian_draw(seed: int, stream: int, index: int, sigma: float) -> float:
    """Deterministic N(0, sigma^2) draw via the inverse normal CDF."""
    return float(sigma * ndtri(split_uniform(seed, stream, index)))


@dataclass(frozen=True)
class SykCouplings:
    """Antisymmetrized quartic coupling table J_{ijkl} with its seed.

    Entries are keyed by strictly increasing index quadruples over the
    0-based Majorana modes of one side; both sides share the table.
    """

    n_majorana: int
    q: int
    j_scale: float
    entries: dict = field(repr=False)
    seed: int = 0

    @property
    def sigma(self) -> float:
        """Std dev of each coupling: j_scale * sqrt((q-1)! / n^(q-1))."""
        return self.j_scale * math.sqrt(
            math.factorial(self.q - 1) / self.n_majorana ** (self.q - 1)
        )


def sample_syk_couplings(n: int, q: int, j_scale: float, seed: int) -> SykCouplings:
    """Draw the Gaussian coupling table for one disorder realization.

    Variance follows j_scale^2 (q-1)!/n^(q-1) with n the Majorana count
    per side.  Only q = 4 is supported.
    """
    if q != 4:
        raise ValueError(f"unsupported interaction order q={q}")
    if n < q:
        raise ValueError(f"need at least q={q} Majorana modes, got {n}")
    sigma = j_scale * math.sqrt(math.factorial(q - 1) / n ** (q - 1))
    entries = {}
    for index, quad in enumerate(combinations(range(n), q)):
        entries[quad] = gaussian_draw(seed, STREAM_SYK, index, sigma)
    return SykCouplings(n_majorana=n, q=q, j_scale=j_scale, entries=entries, seed=seed)


def _quartic_from_gammas(gammas, couplings: SykCouplings) -> np.ndarray:
    dim = gammas[0].shape[0]
    h = np.zeros((dim, dim), dtype=complex)
    pref = 1.0 / math.factorial(couplings.q)
    for (i, j, k, l), val in couplings.entries.items():
        h -= (pref * val) * (gammas[i] @ gammas[j] @ gammas[k] @ gammas[l])
    return h


def build_syk_hamiltonian(couplings: SykCouplings, side: str,
                          register: layout.RegisterLayout) -> np.ndarray:
    """Quartic Majorana Hamiltonian for one side, on the full register.

    -(1/q!) sum_{i<j<k<l} J_{ijkl} g_i g_j g_k g_l, identity on every
    site outside the side's block.  Left and right builds from the same
    table have identical spectra.
    """
    h_local = build_syk_side_matrix(couplings, side, register.n_side)
    n_msg, n_side = register.n_message, register.n_side
    if side == "left":
        return qop.kron_all([np.eye(2 ** n_msg), h_local, np.eye(2 ** n_side)])
    return qop.kron_all([np.eye(2 ** (n_msg + n_side)), h_local])


def build_syk_side_matrix(couplings: SykCouplings, side: str, n_side: int) -> np.ndarray:
    """The side Hamiltonian restricted to its own n_side-qubit factor."""
    if couplings.n_majorana != 2 * n_side:
        raise ValueError("coupling table does not match the register side size")
    if side == "left":
        gammas = [layout.left_majorana_local(n_side, j) for j in range(2 * n_side)]
    elif side == "right":
        gammas = [layout.right_majorana_local(n_side, j) for j in range(2 * n_side)]
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return _quartic_from_gammas(gammas, couplings)


@dataclass(frozen=True)
class TfimParams:
    """Kicked transverse-field Ising chain at the self-dual point."""

    n_sites: int
    j_coupling: float = math.pi / 4
    b_field: float = math.pi / 4
    h_fields: tuple = ()
    h_width: float = 0.5
    seed: int = 0
    periodic: bool = False

    @classmethod
    def sample(cls, n_sites: int, seed: int, j_coupling: float = math.pi / 4,
               b_field: float = math.pi / 4, h_width: float = 0.5,
               periodic: bool = False) -> "TfimParams":
        hs = tuple(
            gaussian_draw(seed, STREAM_TFIM, i, h_width) for i in range(n_sites)
        )
        return cls(n_sites=n_sites, j_coupling=j_coupling, b_field=b_field,
                   h_fields=hs, h_width=h_width, seed=seed, periodic=periodic)


def build_tfim_floquet(p: TfimParams) -> np.ndarray:
    """One Floquet period: exp(i b sum X) exp(i J sum ZZ + i sum h Z).

    Open boundary by default; the two factors are built in closed form
    (the transverse part is a product of single-site rotations, the
    longitudinal part is diagonal).
    """
    n = p.n_sites
    if n < 2:
        raise ValueError("need at least two sites")
    hs = p.h_fields if p.h_fields else (0.0,) * n
    if len(hs) != n:
        raise ValueError("h_fields length does not match n_sites")
    idx = np.arange(2 ** n)
    zbits = np.array([1.0 - 2.0 * ((idx >> (n - 1 - s)) & 1) for s in range(n)])
    diag = np.zeros(2 ** n)
    bonds = n if p.periodic else n - 1
    for s in range(bonds):
        diag += p.j_coupling * zbits[s] * zbits[(s + 1) % n]
    for s in range(n):
        diag += hs[s] * zbits[s]
    kick = math.cos(p.b_field) * qop.I2 + 1j * math.sin(p.b_field) * qop.PAULI_X
    transverse = qop.kron_all([kick] * n)
    return transverse @ np.diag(np.exp(1j * diag))


def floquet_effective_spectrum(u: np.ndarray):
    """Quasi-energies and eigenvectors with u = exp(-i H_eff), one period.

    Eigenphases are folded to (-pi, pi]; used for thermal weighting of
    Floquet models where no continuous generator exists.  Schur on a
    normal matrix yields exactly orthonormal eigenvectors.
    """
    from scipy.linalg import schur

    t, q = schur(np.asarray(u, dtype=complex), output="complex")
    energies = -np.angle(np.diag(t))
    order = np.argsort(energies)
    return energies[order], q[:, order]
