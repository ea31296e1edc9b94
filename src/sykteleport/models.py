"""Model builders: random quartic Majorana (SYK) Hamiltonians and the
self-dual Floquet transverse-field Ising baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

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


# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989; http://www.netlib.org/cephes/): rational approximations
# P/Q, with Q's leading coefficient 1 left out, on three ranges of y; the
# upper tail y > 1 - exp(-2) is evaluated at 1 - y
_NDTRI_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_NDTRI_EXPM2 = 0.13533528323661269189  # exp(-2)
# the central range exp(-2) < y <= 1 - exp(-2), in (y - 1/2)^2
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
# z = 1/sqrt(-2 log y) for sqrt(-2 log y) in [2, 8)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# the same for sqrt(-2 log y) in [8, 64]
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: float, coef: tuple) -> float:
    """Cephes polevl: the polynomial with coefficients coef, highest
    degree first, by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    """Cephes p1evl: as _polevl with a leading coefficient 1 prepended."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y: float) -> float:
    """Inverse of the standard normal CDF on [0, 1], operation for
    operation the Cephes routine, so bit for bit scipy.special.ndtri."""
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        raise ValueError(f"ndtri needs 0 <= y <= 1, got {y!r}")
    upper = y > 1.0 - _NDTRI_EXPM2
    if upper:
        y = 1.0 - y
    if y > _NDTRI_EXPM2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))
        return x * _NDTRI_S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2)
    x = x0 - x1
    return x if upper else -x


def gaussian_draw(seed: int, stream: int, index: int, sigma: float) -> float:
    """Deterministic N(0, sigma^2) draw via the inverse normal CDF."""
    return sigma * _ndtri(split_uniform(seed, stream, index))


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


@lru_cache(maxsize=None)
def _side_majoranas(side: str, n_side: int) -> tuple:
    """The 2 n_side Majorana matrices of one side on its own factor,
    read-only and built once per (side, n_side)."""
    local = layout.left_majorana_local if side == "left" else layout.right_majorana_local
    gammas = tuple(local(n_side, j) for j in range(2 * n_side))
    for gamma in gammas:
        gamma.setflags(write=False)
    return gammas


def build_syk_side_matrix(couplings: SykCouplings, side: str, n_side: int) -> np.ndarray:
    """The side Hamiltonian restricted to its own n_side-qubit factor."""
    if couplings.n_majorana != 2 * n_side:
        raise ValueError("coupling table does not match the register side size")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return _quartic_from_gammas(_side_majoranas(side, n_side), couplings)


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
