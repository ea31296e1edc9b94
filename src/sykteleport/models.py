"""Model builders: random quartic Majorana (SYK) Hamiltonians, whose right
side is the register mirror of the left one, and the self-dual Floquet
transverse-field Ising baseline.

Every random number comes from a counter-based substream keyed by (seed,
stream, index), and each drawn quantity is one batched call over its index
array, or over a seed array and its index array for the coupling tables of
many realizations; a side Hamiltonian is built for a stack of tables with
the bits of each table alone.  The draw of a key equals numpy 2.4's first
Generator(PCG64(SeedSequence((seed, stream, index)))).integers(0, 2^53),
but the scheme is pinned by the code here, not by numpy's Generator, whose
streams NEP 19 does not keep stable across numpy versions.  Both the
seed mixing and PCG64's step are integer array code over every key at
once, so no batching changes a bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import layout, qop

# stream tags for seed splitting; one substream per drawn quantity
STREAM_SYK = 101
STREAM_TFIM = 202
STREAM_HAAR = 303

# The draw of key (seed, stream, index), for a whole index array at once:
# numpy's SeedSequence mixing of the words (seed mod 2^64, stream, index)
# into a 4-word pool, as uint32 arithmetic (carried in uint64 and masked),
# then PCG64's seeding step and first XSL-RR output (O'Neill, 2014) as
# 128-bit arithmetic on pairs of uint64 words.
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, n: int) -> tuple:
    """SeedSequence's running hash constant: init, then n times * mult."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return tuple(out)


# the constants of the 16 hashes that mix the pool and of the 8 that
# draw the state from it
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64 from (initstate, initseq): the state is set to inc = 2 initseq + 1,
# stepped, added initstate to and stepped again; the first draw steps once
# more, so the state it outputs is initstate M^2 + inc (M^2 + M + 1)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_STATE = _PCG_MULT * _PCG_MULT & _MASK128
_PCG_INC = (_PCG_STATE + _PCG_MULT + 1) & _MASK128
# the two as (high, low) uint64 words
_PCG_STATE_WORDS = (np.uint64(_PCG_STATE >> 64), np.uint64(_PCG_STATE & _MASK64))
_PCG_INC_WORDS = (np.uint64(_PCG_INC >> 64), np.uint64(_PCG_INC & _MASK64))


def _seed_state(words: list) -> list:
    """SeedSequence(words).generate_state(4, uint64) for at most 4 entropy
    words, each a Python int or a uint64 array of 32-bit values (arrays
    broadcast against each other, one entry per key); the 4 state words in
    the same form."""
    pool = list(words) + [0] * (4 - len(words))
    for k in range(4):
        value = (pool[k] ^ _HASH_A[k]) * _HASH_A[k + 1] & _MASK32
        pool[k] = value ^ (value >> 16)
    k = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value = (pool[src] ^ _HASH_A[k]) * _HASH_A[k + 1] & _MASK32
                k += 1
                mixed = (_MIX_L * pool[dst] - _MIX_R * (value ^ (value >> 16))) & _MASK32
                pool[dst] = mixed ^ (mixed >> 16)
    state = []
    for k in range(8):
        value = (pool[k % 4] ^ _HASH_B[k]) * _HASH_B[k + 1] & _MASK32
        state.append(value ^ (value >> 16))
    return [state[k] | state[k + 1] << 32 for k in range(0, 8, 2)]


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """The high 64 bits of each 128-bit product a b of uint64 words, from
    their 32-bit limbs (every partial product fits in 64 bits)."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & np.uint64(_MASK32), b >> np.uint64(32)
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _mul128(a_hi: np.ndarray, a_lo: np.ndarray, b: tuple) -> tuple:
    """(high, low) uint64 words of a b mod 2^128 for the 128-bit a = (a_hi,
    a_lo) and the constant b = (high, low); uint64 products wrap mod 2^64."""
    b_hi, b_lo = b
    return _mulhi64(a_lo, b_lo) + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _pcg_first_draws(state: list) -> np.ndarray:
    """The uniform of each key from the PCG64 its 4 state words seed (uint64
    arrays of one shape): the first 64-bit XSL-RR output >> 11, which is
    what Generator.integers(0, 2^53) returns, on the midpoint lattice in
    (0, 1)."""
    s0, s1, s2, s3 = state
    # x = (s0 s1) PCG_STATE + (2 (s2 s3) + 1) PCG_INC mod 2^128
    x_hi, x_lo = _mul128(s0, s1, _PCG_STATE_WORDS)
    i_hi, i_lo = _mul128((s2 << 1) | (s3 >> 63), (s3 << 1) | 1, _PCG_INC_WORDS)
    x_lo = x_lo + i_lo
    x_hi = x_hi + i_hi + (x_lo < i_lo)
    rot = x_hi >> 58
    word = x_hi ^ x_lo
    # a rotation by 0 shifts left by 0, not 64, and ORs word with itself
    raw = (word >> rot) | (word << ((64 - rot) & 63))
    return ((raw >> 11).astype(float) + 0.5) / float(1 << 53)


def split_uniform(seed, stream: int, index):
    """Uniform draws in (0, 1) from the (seed, stream, index) substreams.

    Each quantity gets its own counter-based substream (Salmon et al.,
    SC'11), so tables are identical no matter how the sampling work is
    batched or parallelized.  `index` is an int, giving a float, or a 1-D
    integer array, giving one draw per index with the same bits; every
    index must lie in [0, 2^32) and so must the stream.  `seed` is an int
    (taken mod 2^64) or a 1-D sequence of them, which adds a leading seed
    axis: one row per seed, with the bits of that seed drawn alone.
    """
    stream = operator.index(stream)
    if not 0 <= stream <= _MASK32:
        raise ValueError(f"stream must lie in [0, 2^32), got {stream}")
    index = np.asarray(index)
    if index.ndim > 1 or not (index.dtype.kind in "iu" or index.size == 0):
        raise ValueError("index must be an int or a 1-D integer array")
    if index.size and (index.min() < 0 or index.max() > _MASK32):
        raise ValueError("every index must lie in [0, 2^32)")
    if np.ndim(seed) > 1:
        raise ValueError("seed must be an int or a 1-D sequence of ints")
    seeds = [int(s) & _MASK64 for s in ([seed] if np.ndim(seed) == 0 else seed)]
    keys = index.astype(np.uint64).reshape(-1)
    out = np.empty((len(seeds), keys.size))
    # SeedSequence's little-endian 32-bit words of (seed, stream, index): a
    # seed with a high word has one entropy word more, so the seeds with
    # and without one are drawn apart
    for wide in (False, True):
        rows = [k for k, s in enumerate(seeds) if (s >> 32 > 0) == wide]
        if not rows:
            continue
        words = [[seeds[k] & _MASK32 for k in rows]]
        if wide:
            words.append([seeds[k] >> 32 for k in rows])
        # (seed, key) pairs by broadcasting (every state word mixes in every
        # entropy word, so each has the full shape); a lone seed's words
        # stay Python ints, which mix faster than arrays of one
        words = [w[0] if len(w) == 1 else np.array(w, dtype=np.uint64)[:, None]
                 for w in words]
        state = _seed_state(words + [stream, keys])
        out[rows] = _pcg_first_draws(state).reshape(len(rows), -1)
    out = out.reshape(np.shape(seed) + index.shape)
    return float(out) if out.ndim == 0 else out


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


def gaussian_draw(seed, stream: int, index: np.ndarray, sigma: float) -> np.ndarray:
    """Deterministic N(0, sigma^2) draws via the inverse normal CDF, one
    per entry of a 1-D index array, and one row of them per seed for a 1-D
    sequence of seeds (see split_uniform)."""
    if np.ndim(index) != 1:
        raise ValueError("index must be a 1-D integer array")
    u = split_uniform(seed, stream, index)
    return np.array([sigma * _ndtri(v) for v in u.ravel().tolist()]).reshape(u.shape)


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


def sample_syk_couplings(n: int, q: int, j_scale: float, seed):
    """Draw the Gaussian coupling table for one disorder realization, or a
    tuple of tables, one per seed, for a 1-D sequence of seeds (one draw
    for all of them).

    Variance follows j_scale^2 (q-1)!/n^(q-1) with n the Majorana count
    per side.  Only q = 4 is supported.
    """
    if q != 4:
        raise ValueError(f"unsupported interaction order q={q}")
    if n < q:
        raise ValueError(f"need at least q={q} Majorana modes, got {n}")
    sigma = j_scale * math.sqrt(math.factorial(q - 1) / n ** (q - 1))
    quads = list(combinations(range(n), q))
    draws = gaussian_draw(seed, STREAM_SYK, np.arange(len(quads)), sigma)
    if np.ndim(seed) == 0:
        return SykCouplings(n_majorana=n, q=q, j_scale=j_scale,
                            entries=dict(zip(quads, draws.tolist())), seed=seed)
    return tuple(SykCouplings(n_majorana=n, q=q, j_scale=j_scale,
                              entries=dict(zip(quads, row)), seed=s)
                 for s, row in zip(seed, draws.tolist()))


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
def _side_majoranas(n_side: int) -> tuple:
    """The 2 n_side left Majorana matrices on their own factor, read-only
    and built once per n_side."""
    gammas = tuple(layout.left_majorana_local(n_side, j) for j in range(2 * n_side))
    for gamma in gammas:
        gamma.setflags(write=False)
    return gammas


@lru_cache(maxsize=None)
def _side_quartics(n_side: int) -> dict:
    """g_i g_j g_k g_l of the left Majoranas for every i < j < k < l, keyed
    by the quadruple: C(2 n_side, 4) read-only matrices, built once per
    n_side (15 KB at n_side 3, 287 KB at 4).  Their entries are 0, +-1 or
    +-i, so each product is exact whatever the order of multiplication."""
    gammas = _side_majoranas(n_side)
    quads = list(combinations(range(2 * n_side), 4))
    products = np.stack([gammas[i] @ gammas[j] @ gammas[k] @ gammas[l]
                         for i, j, k, l in quads])
    products.setflags(write=False)
    return dict(zip(quads, products))


def build_syk_side_matrix(couplings, side: str, n_side: int) -> np.ndarray:
    """The side Hamiltonian restricted to its own n_side-qubit factor; a
    sequence of tables gives the stack of their Hamiltonians, each with the
    bits of its own build.  The right side is the mirror of the left one
    (`layout.mirror`), with the bits of the sum over the right Majoranas."""
    batch = (couplings,) if isinstance(couplings, SykCouplings) else tuple(couplings)
    if not batch or any(c.n_majorana != 2 * n_side for c in batch):
        raise ValueError("coupling table does not match the register side size")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    products = _side_quartics(n_side)
    quads = list(batch[0].entries)
    values = np.array([[c.entries[quad] for quad in quads] for c in batch], dtype=float)
    h = np.zeros((len(batch), 2 ** n_side, 2 ** n_side), dtype=complex)
    pref = 1.0 / math.factorial(batch[0].q)
    # one term at a time in table order, as a lone table sums them
    for k, quad in enumerate(quads):
        h -= (pref * values[:, k])[:, None, None] * products[quad]
    if side == "right":
        h = layout.mirror(h, n_side)
    return h[0] if isinstance(couplings, SykCouplings) else h


# the kicked Ising chain at the self-dual point J = b = pi/4, open, with
# longitudinal fields drawn from N(0, TFIM_H_WIDTH^2)
TFIM_J_COUPLING = math.pi / 4
TFIM_B_FIELD = math.pi / 4
TFIM_H_WIDTH = 0.5


@dataclass(frozen=True)
class TfimParams:
    """Kicked transverse-field Ising chain at the self-dual point (the
    TFIM_* constants) with one longitudinal field per site."""

    n_sites: int
    h_fields: tuple
    seed: int = 0

    @classmethod
    def sample(cls, n_sites: int, seed):
        """The fields of one seed, or a tuple of params, one per seed, for a
        1-D sequence of seeds (one draw for all of them)."""
        hs = gaussian_draw(seed, STREAM_TFIM, np.arange(n_sites), TFIM_H_WIDTH).tolist()
        if np.ndim(seed) == 0:
            return cls(n_sites=n_sites, h_fields=tuple(hs), seed=seed)
        return tuple(cls(n_sites=n_sites, h_fields=tuple(row), seed=s)
                     for s, row in zip(seed, hs))


def build_tfim_floquet(params) -> np.ndarray:
    """One Floquet period: exp(i b sum X) exp(i J sum ZZ + i sum h Z); a
    sequence of params gives the stack of their unitaries, each with the
    bits of its own build.

    Open boundary; the two factors are built in closed form (the
    transverse part is a product of single-site rotations, the
    longitudinal part is diagonal).
    """
    batch = (params,) if isinstance(params, TfimParams) else tuple(params)
    n = batch[0].n_sites
    if n < 2:
        raise ValueError("need at least two sites")
    if any(p.n_sites != n or len(p.h_fields) != n for p in batch):
        raise ValueError("h_fields length does not match n_sites, or chain lengths differ")
    h = np.array([p.h_fields for p in batch], dtype=float)
    idx = np.arange(2 ** n)
    zbits = np.array([1.0 - 2.0 * ((idx >> (n - 1 - s)) & 1) for s in range(n)])
    diag = np.zeros((len(batch), 2 ** n))
    for s in range(n - 1):
        diag += TFIM_J_COUPLING * zbits[s] * zbits[s + 1]
    for s in range(n):
        diag += h[:, s, None] * zbits[s]
    kick = math.cos(TFIM_B_FIELD) * qop.I2 + 1j * math.sin(TFIM_B_FIELD) * qop.PAULI_X
    # the transverse factor times the diagonal one scales its columns
    u = qop.kron_all([kick] * n) * np.exp(1j * diag)[:, None, :]
    return u[0] if isinstance(params, TfimParams) else u


def floquet_effective_spectrum(u: np.ndarray):
    """Quasi-energies (ascending) and eigenvectors with u = exp(-i H_eff),
    one period, for a unitary or each unitary of a (..., d, d) stack, with
    the bits it gets alone.  Eigenphases are folded to [-pi, pi).

    The eigenvectors are those of the Hermitian Cayley transform
    i (I - V)(I + V)^{-1} of V = u e^{i a}, orthonormal to round-off also
    inside a degenerate quasi-energy.  The phase a moves -1 to the middle
    of the widest gap between u's eigenphases, at least 2 pi/d wide, so
    ||(I + V)^{-1}|| <= 1/(2 sin(pi/2d)), 2.6 at d = 8.
    """
    u = np.asarray(u, dtype=complex)
    phases = np.sort(np.angle(np.linalg.eigvals(u)), axis=-1)
    gaps = np.diff(phases, axis=-1, append=phases[..., :1] + 2 * np.pi)
    widest = gaps.argmax(axis=-1)[..., None]
    middle = np.take_along_axis(phases + gaps / 2, widest, axis=-1)
    v = u * np.exp(1j * (np.pi - middle))[..., None]
    eye = np.eye(u.shape[-1])
    q = qop.hermitian_eig(1j * np.linalg.solve(eye + v, eye - v)).vectors
    energies = -np.angle((q.conj() * (u @ q)).sum(axis=-2))
    order = np.argsort(energies, axis=-1)
    return (np.take_along_axis(energies, order, axis=-1),
            np.take_along_axis(q, order[..., None, :], axis=-1))
