"""The teleportation protocol: insert and size-coupling operators, the
wormhole unitary, and the three fidelity diagnostics.

Protocol sequence on |message> (x) |TFD>:

    U = exp(-i H_R t) exp(i g upsilon) exp(-i H_L t) INSERT exp(+i H_L t)

The size operator upsilon counts occupations of the fermion modes built
from matched left/right Majorana pairs; its integer spectrum makes every
fidelity exactly 2*pi periodic in g.  Readout happens on the last right
site(s), which under the nested pairing are the partners of the first
left qubit(s).  At beta > 0 the readout expectation is taken in the
Boltzmann-reweighted final state exp(-beta H_R/2)|psi_final> (normalized),
matching the thermal traces the sweep figures are built from; the bare
expectation is available via thermal_readout=False.

Every metric is evaluated by one staged pipeline in `Engine`, in the
order realization -> seed slice -> beta -> t -> g.  V_L and V_R are the
side eigenbases (2^n_side x 2^n_side), d = 2^n_side, Omega is the pair
vacuum `layout.bell_vacuum` as a d x d matrix and K0 = V_L^dagger Omega
V_R^*:

* realization (Engine construction): the coupling table and the side
  eigensystems (for the kicked-Ising baseline the Floquet quasi-energies,
  which make integer t a step count), shared read-only by the engines of
  one (model, seed, j_scale, n_side) through a cache of the last
  ENGINE_CACHE_SIZE of them; the distinct size levels p (L = 6 at
  n_side = 3) and the factor F of INSERT on the message and left sites
  (INSERT = F (x) I_right), built on those 2^(n_msg + n_side) sites
  alone by the signed permutation that `build_insert` scatters into the
  dense INSERT, the reference (no matrix product, and no dense INSERT is
  built for an engine).  F, the size eigenbasis B and its level tables
  are shared by every engine of one register geometry; F in the left
  eigenbasis, C (below) and the readout tensor are derived from V_L, V_R
  on first use.  The missing realizations of an engine's seeds are built
  at once: one draw, one side-matrix sum per side and one stacked
  eigendecomposition per side for all of them, each seed with the bits of
  its build alone.  The random
  draws behind a realization and behind the Haar messages are one
  batched `models.split_uniform` call per quantity.  The Haar messages
  have one draw, of any indices for a stack of seeds (`_haar_messages`):
  a sweep takes the first n_s of a whole slice of seeds in one call
  (`draw_haar_samples`) and passes them to `curve_arbitrary_avg`, and
  `haar_qubit` is one seed's message at one index.  Their scheme is
  pinned by `models`, not by numpy's Generator (see there);
* seed slice (a batched axis): an engine is built for one config and a
  scalar seed or a 1-D seed axis of at most ENGINE_CACHE_SIZE seeds, the
  slice of a sweep (`get_engine(cfg, seeds)`).  The seed axis follows the
  rule of beta, t and g: a 1-D seed axis puts its axis in front of every
  output, shape (n_s,) + np.shape(beta) + np.shape(t) + (n_g, ...), and a
  scalar seed has none, so `get_engine(cfg)` keeps its shapes.  The
  realizations and the tensors derived from them are stacks over the
  seeds, every later stage runs over rows (seed, beta, t), and a stacked
  product keeps each seed's operand shapes, so every seed of a slice has
  the bits of its lone engine.  A slice is one engine call per metric;
* beta (a batched axis): the thermofield double is exp(-beta H_L/2) on
  the infinite-temperature pair state Omega (J. Maldacena and X.-L. Qi,
  arXiv:1804.00491), so its coefficients over pairs of side eigenvectors
  are V_L^dagger T V_R^* = diag(w(beta)) K0, with w(beta) the Boltzmann
  amplitudes of the left levels (`Engine.tfd_weights`).  They and the
  thermal readout weights exp(-beta (E_R - E_min)/2), diagonal in V_R, are
  (n_s, n_b, d) arrays built per call;
* t (a batched axis, side eigenbases): U_L and U_R are the phase arrays
  exp(-i E t).  U_L^dagger on the TFD's left level a' and U_L on the
  output level a give exp(i (E_a' - E_a) t), so for any map Phi applied
  after the dressed state U_L INSERT U_L^dagger |m>|TFD>, its (beta, t)
  rows times Phi are sum_a' w_a'(beta) Y_a'(t) with Y_a'(t) = z_a'(t) (K0
  Phi)_a' and z the phases times F in the left eigenbasis
  (`Engine.dressed_state`).  Y is built once per (seed, t) for every
  beta, and each beta is one real weighting of its d terms
  (`Engine._rows`);
* g (a batched axis): `Engine.finish` applies the coupling,
  exp(i g upsilon) = B diag(exp(i g p_j)) B^dagger with p_j the level of
  size eigenvector j, in one of two orders, picked from the call's n_g
  values of g alone.  C = (V_L (x) V_R)^T B^* takes a dressed row to the
  size eigenbasis; the engine keeps it with K0 absorbed, as the Phi
  above.  "maps" (at most L/2 values of g, the t sweeps and single
  points): Phi is the 4^n_side-square map C diag(phases) B^T V_R^* of
  each g, rows over (left site, right eigenvector).  "levels" (more than
  L/2 values of g, the g sweeps): Phi = C, and each row back split into
  its L level components Pi_p x.  The orders agree to round-off, not bit
  for bit.

Every metric is a reading of the unnormalized readout density rho over
(input, readout sites), the one output of `Engine.finish`:
`Engine.basis_z_value` (<Z>), `Engine.bell_value` (the stabilizer
fidelity) and the branch overlaps of the Haar average; each (beta, t, g)
keeps its own density-matrix checks.  The maps order reads rho from the
Gram of each state's rows in the right eigenbasis, weighted by
W_R U_R after the sum and traced by a fixed tensor over the right sites
(`Engine._gram_readout`).  The level order builds no final state:
after W_R U_R (a diagonal multiply in V_R and a GEMM by V_R^T) it lays
each (seed, beta, t)'s level components out as a matrix A = (traced sites) x
(input, readout value, level) and keeps only its R factor from a
Householder QR, at most n_in 2^k L rows for k readout sites.  For every
g, y(g) = R phi(g) with phi_p(g) = exp(i g p) gives rho(g) = y^T y^*, since
Q is orthonormal.  QR is backward stable, so |R phi| = |A phi| keeps the
direct sum's eps/norm accuracy at large beta, where the weighted final
state is far smaller than its O(1) level components (norm about 2e-6 at
beta = 100); the Gram form phi^dagger A^dagger A phi would lose eps/norm^2
and is not used.  The level order takes the (seed, beta, t) rows in
groups whose level components fit G_BLOCK_BYTES, and each group's g
axis in blocks of about G_BLOCK_BYTES of y(g).  A call takes all its
seeds and betas at once and cuts each seed's t axis into chunks of
BATCH_BYTES; where one seed's t values fit, a level-order chunk takes
the rows of as many whole seeds as G_BLOCK_BYTES holds, and a maps-order
chunk one seed, whose coupling maps serve all its chunks.  The maps
order hands a reading the densities of consecutive chunks together, as
many as fit G_BLOCK_BYTES, so a reading's fixed cost is not paid per
chunk and the t grid does not set the memory a reading holds.  For a
fixed g grid no value depends on the seeds, betas and t that share its
call: the order follows from the g grid alone, a seed's rows are cut as
they are cut for that seed alone, and every GEMM whose rows run over
betas or (beta, t, g) points alone gets at least two rows per seed
(`_gemm`).  A scalar seed, beta or t, or a single g, is a batch of one
through the same stages, so `run_arbitrary_avg` and the sweeps in
`analysis` share them.  The dense
`wormhole_unitary` is the reference the pipeline is tested against.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from operator import attrgetter

import numpy as np

from . import layout, models, qop, tfd

DEFAULT_J_SCALE = 5.0
DEFAULT_T_SINGLE = 1.0
DEFAULT_T_BELL = 2.0
DEFAULT_TFIM_STEPS = 1
# bytes one chunk of Engine.finish holds for one seed's t values (see
# Engine._chunk): per t, input and message row, the t stage's products for
# the d TFD levels and the rows of every beta, 1 KiB each at n_side 3, n_g
# times as many in the maps order.  The 73-t Bell window of heatmap-t at
# one g and 8 betas is 5 chunks of 16 t (the last of 9) per seed, read in
# 3 readings per seed.  Each chunk pays the fixed cost of its stages'
# calls, and its arrays should stay in a core's L2 cache (K. Goto and
# R. A. van de Geijn, ACM TOMS 34(3), 2008): on a 2 MiB L2, warm 20-seed
# windows took 45.4 ms at 512 KiB, 43.0 ms at 1 MiB and 46.7 ms at 2 MiB
# (medians of 15).
BATCH_BYTES = 2 ** 20
# bytes of compressed readout coordinates y(g) per g block of
# Engine.finish's level order (see Engine._g_block), of level components
# per group of (seed, beta, t) rows there, and of the t stage and dressed
# rows of the whole seeds a level-order chunk takes (3 seeds of sq1, 4 of
# the Haar average, 1 of fig34): y(g) takes 384 bytes per g
# and (beta, t) for the basis message at n_side 3 and 1536 for the Bell
# message or the two Haar branches, so a 201-g basis sweep and a 49-g Haar
# average are one block per (beta, t) and a 201-g Bell sweep is 5; the
# level components take 12 KiB per (beta, t) for the basis message and
# 24 KiB for the other two, so groups of 5 and 2.  A block's transient
# memory is about three times its y(g) (y, its conjugate and one product).
# With 64 KiB the traced peak of a 1608-g call is within 1.35 times that of
# a 201-g call at n_side 3 and 4; at 128 KiB the 1608-g basis sweep at
# n_side 3 peaked 1.65 times higher.  The maps order hands one reading
# the readout densities of as many consecutive chunks as
# G_BLOCK_BYTES holds (see Engine._chunks_per_reading; 2 chunks of the
# heatmap-t window), and the Haar average takes its (point, message)
# values in slices of about G_BLOCK_BYTES.
G_BLOCK_BYTES = 2 ** 16
# seeds of the engines get_engine keeps, realizations they share, and the
# most seeds one engine (one batched realization build) takes: above the
# 20 seeds of a preset, whose slice engine its second sweep finds.  An
# engine holds about 74 KB (basis message) or 99 KB (Bell) per seed at
# n_side 3 and 1.1 MB at n_side 4 (see Engine).
ENGINE_CACHE_SIZE = 32

MESSAGES = ("basis_zero", "arbitrary", "bell_phi_plus")
VARIANTS = ("delta01", "delta02", "bell_sequential")
MODELS = ("syk", "tfim")


class ConfigError(ValueError):
    """Raised when a ProtocolConfig violates its invariants."""


@dataclass(frozen=True)
class ProtocolConfig:
    """One protocol instance; every run is a pure function of this."""

    message: str = "basis_zero"
    swap_variant: str = "delta01"
    g: float = 0.0
    t: float = DEFAULT_T_SINGLE
    beta: float = 0.0
    model: str = "syk"
    seed: int = 0
    j_scale: float = DEFAULT_J_SCALE
    n_side: int = 3
    size_modes: tuple | None = None       # None -> all pairs but the last
    readout_sites: tuple | None = None    # None -> last right site(s)
    thermal_readout: bool = True
    fermionic_insert: bool = False
    right_basis: str = "paired"           # TFD level pairing; only "paired"
    alpha: complex = 1.0 + 0j             # arbitrary-message amplitudes
    beta_msg: complex = 0.0 + 0j

    @property
    def n_message(self) -> int:
        return 2 if self.message == "bell_phi_plus" else 1

    @property
    def register(self) -> layout.RegisterLayout:
        return layout.RegisterLayout(n_message=self.n_message, n_side=self.n_side)

    def validate(self) -> "ProtocolConfig":
        if self.message not in MESSAGES:
            raise ConfigError(f"unknown message kind {self.message!r}")
        if self.swap_variant not in VARIANTS:
            raise ConfigError(f"unknown swap variant {self.swap_variant!r}")
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.right_basis != "paired":
            raise ConfigError(f"right_basis must be 'paired', got {self.right_basis!r}")
        bell_msg = self.message == "bell_phi_plus"
        bell_swap = self.swap_variant == "bell_sequential"
        if bell_msg != bell_swap:
            raise ConfigError(
                f"message {self.message!r} does not fit swap variant {self.swap_variant!r}"
            )
        if self.message == "arbitrary":
            norm = abs(self.alpha) ** 2 + abs(self.beta_msg) ** 2
            if abs(norm - 1.0) > 1e-10:
                raise ConfigError("arbitrary message amplitudes must be normalized")
        for name in ("g", "t"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if not _is_integer(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if not (math.isfinite(self.j_scale) and self.j_scale > 0):
            raise ConfigError("j_scale must be finite and positive")
        _check_beta(self.beta)
        for name in ("size_modes", "readout_sites"):
            # tuples, so that the engine cache can hash them
            if not isinstance(getattr(self, name), (tuple, type(None))):
                raise ConfigError(f"{name} must be a tuple or None")
        reg = self.register
        if self.size_modes is not None:
            if not self.size_modes:
                raise ConfigError("size mode set must not be empty")
            if any(not 0 <= m < reg.n_majorana for m in self.size_modes):
                raise ConfigError("size mode outside the register")
            if len(set(self.size_modes)) != len(self.size_modes):
                raise ConfigError("size modes must not repeat")
        if self.readout_sites is not None:
            if any(s not in reg.right_sites for s in self.readout_sites):
                raise ConfigError("readout sites must lie in the right block")
            if len(set(self.readout_sites)) != len(self.readout_sites):
                raise ConfigError("readout sites must not repeat")
            if len(self.readout_sites) != self.n_message:
                raise ConfigError(f"the {self.message!r} message needs "
                                  f"{self.n_message} readout site(s)")
        if self.model == "tfim":
            _check_step_counts(self.t)
        return self

    def swap_site_pairs(self) -> tuple:
        reg = self.register
        if self.swap_variant == "delta01":
            return ((0, reg.left_site(0)),)
        if self.swap_variant == "delta02":
            return ((0, reg.left_site(1)),)
        return ((0, reg.left_site(0)), (1, reg.left_site(1)))

    def resolved_size_modes(self) -> tuple:
        if self.size_modes is not None:
            return tuple(self.size_modes)
        return default_size_modes(self.register.n_majorana)

    def resolved_readout(self) -> tuple:
        if self.readout_sites is not None:
            return tuple(self.readout_sites)
        return self.register.default_readout()


def _is_integer(value) -> bool:
    """An int or a numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_beta(beta) -> None:
    """beta, a scalar or an array, must be finite and nonnegative."""
    beta = np.asarray(beta, dtype=float)
    if not np.isfinite(beta).all():
        raise ConfigError("beta must be finite")
    if (beta < 0).any():
        raise ConfigError("beta must be nonnegative")


def _check_step_counts(t, error=ConfigError) -> None:
    """Kicked-Ising evolution takes nonnegative integer step counts; t is
    a scalar or an array of them, and `error` is raised otherwise."""
    t = np.asarray(t, dtype=float)
    if np.abs(t - np.round(t)).max() > 1e-9:
        raise error("tfim evolution takes integer step counts")
    if (np.round(t) < 0).any():
        raise error("negative step count")


def default_size_modes(n_majorana: int) -> tuple:
    """All paired modes except the last one (the farthest from insertion)."""
    return tuple(range(n_majorana - 1))


@dataclass(frozen=True)
class SizeOperator:
    """Sum of paired-mode occupations on the left+right block."""

    n_side: int
    modes: tuple
    matrix: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)

    def exp_ig(self, g: float) -> np.ndarray:
        phases = np.exp(1j * g * self.eigenvalues)
        return (self.basis * phases) @ self.basis.conj().T

    @cached_property
    def level_tables(self) -> tuple:
        """(levels, columns, column levels), built once per operator: the
        distinct eigenvalues p ascending, the column slice of basis that
        spans each, and the level of every column; the arrays are
        read-only.  hermitian_eig sorts the eigenvalues, so every level's
        columns are contiguous; this is checked, not assumed."""
        values = self.eigenvalues
        if (np.diff(values) < 0).any():
            raise qop.QopError("size eigenvalues are not in ascending order")
        levels, starts = np.unique(values, return_index=True)
        stops = np.append(starts[1:], len(values))
        column_levels = np.repeat(levels, stops - starts)
        for array in (levels, column_levels):
            array.setflags(write=False)
        return levels, tuple(map(slice, starts.tolist(), stops.tolist())), column_levels

    def projectors(self) -> np.ndarray:
        """Spectral projectors Pi_p = B_p B_p^dagger, one per level,
        shape (L, d, d): exp(i g upsilon) = sum_p exp(i g p) Pi_p."""
        return np.stack([self.basis[:, cols] @ self.basis[:, cols].conj().T
                         for cols in self.level_tables[1]])

    def exp_ig_embedded(self, register: layout.RegisterLayout, g: float) -> np.ndarray:
        return qop.kron(np.eye(2 ** register.n_message), self.exp_ig(g))


@lru_cache(maxsize=None)
def _size_operator_cached(n_side: int, modes: tuple) -> SizeOperator:
    mat = np.zeros((4 ** n_side, 4 ** n_side), dtype=complex)
    for j in modes:
        mat = mat + layout.pair_number_op(n_side, j)
    eig = qop.hermitian_eig(mat)
    values = np.round(eig.values.real).astype(int)
    if np.abs(eig.values - values).max() > 1e-9:
        raise qop.QopError("size operator spectrum is not integer")
    values.setflags(write=False)
    return SizeOperator(n_side=n_side, modes=modes, matrix=mat,
                        eigenvalues=values, basis=eig.vectors)


def build_size_operator(register: layout.RegisterLayout, modes=None) -> SizeOperator:
    """Occupation-sum coupling generator over the selected paired modes."""
    if modes is None:
        modes = default_size_modes(register.n_majorana)
    modes = tuple(sorted(int(m) for m in modes))
    if not modes:
        raise qop.QopError("size operator needs a nonempty mode set")
    if len(set(modes)) != len(modes):
        raise qop.QopError("size modes must not repeat")
    if any(not 0 <= m < register.n_majorana for m in modes):
        raise qop.QopError("size mode index outside the register")
    return _size_operator_cached(register.n_side, modes)


@dataclass(frozen=True)
class InsertOperator:
    """Unitary encoding the message qubit(s) into the left block."""

    matrix: np.ndarray = field(repr=False)


def build_insert(cfg: ProtocolConfig) -> InsertOperator:
    """INSERT as a product of message-to-left swaps in circuit order, on
    the whole register (see _signed_swaps)."""
    return InsertOperator(matrix=_signed_swaps(cfg, cfg.register.n_qubits))


def _signed_swaps(cfg: ProtocolConfig, n_sites: int) -> np.ndarray:
    """The swaps of INSERT on the first n_sites qubits of the register,
    which hold the message and left sites, as a dense matrix.

    Every swap maps each basis state to one basis state with a sign, so the
    product is one signed permutation: the image and sign of each of the
    2^n_sites basis states through all the swaps, scattered into the
    matrix.  The fermionic swap, (I + X X S + Y Y S + Z Z)/2 with S the Z
    string over the left qubits after the swapped one (the Majorana
    realizations of the left Pauli factors), keeps a basis state whose two
    swapped bits agree and swaps the bits of one where they differ, with
    the sign S takes on it.  No swap or string reaches a right site, so
    INSERT on the whole register is the matrix on the message and left
    sites (x) I_right.
    """
    cfg.validate()
    reg = cfg.register
    pairs = cfg.swap_site_pairs()
    if len({s for p in pairs for s in p}) < 2 * len(pairs):
        raise ConfigError("swap site collision")
    dim = 2 ** n_sites
    states = np.arange(dim)
    image, sign = states.copy(), np.ones(dim)
    for a, b in pairs:
        # qubit 0 is the most significant bit
        shift_a, shift_b = n_sites - 1 - a, n_sites - 1 - b
        differ = ((image >> shift_a) ^ (image >> shift_b)) & 1
        if cfg.fermionic_insert:
            # the parity of the left bits after the swapped one
            string = np.zeros(dim, dtype=int)
            for site in range(b + 1, reg.n_message + reg.n_side):
                string ^= image >> (n_sites - 1 - site)
            sign = np.where(differ & string & 1, -sign, sign)
        image = image ^ (differ << shift_a) ^ (differ << shift_b)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[image, states] = sign
    return mat


@lru_cache(maxsize=None)
def _shared_insert_factor(message: str, swap_variant: str, n_side: int,
                          fermionic_insert: bool) -> np.ndarray:
    """The factor F of INSERT = F (x) I_right on the message and left sites
    for one register geometry, built on those sites alone, read-only and
    built once."""
    cfg = ProtocolConfig(message=message, swap_variant=swap_variant,
                         n_side=n_side, fermionic_insert=fermionic_insert)
    factor = _signed_swaps(cfg, cfg.n_message + n_side)
    factor.setflags(write=False)
    return factor


def _build_realizations(seeds: list, model: str, j_scale: float, n_side: int) -> list:
    """(eig_left, eig_right) of each seed's disorder realization, read-only
    (the Floquet quasi-energies for the kicked Ising baseline).  Either
    model takes one draw and one left build for all seeds, each with the
    bits of its build alone, mirrored onto the right factor: SYK's right
    side is the mirror of the left sum (`layout.mirror`), diagonalized on
    its own; the baseline's eigenvectors are a Cayley transform's, with
    ||(I + V)^{-1}|| <= 1/(2 sin(pi/2d)), 2.6 at d = 8."""
    if model == "syk":
        tables = models.sample_syk_couplings(2 * n_side, 4, j_scale, seeds)
        h_left = models.build_syk_side_matrix(tables, "left", n_side)
        left, right = (qop.hermitian_eig(h) for h in (h_left, layout.mirror(h_left, n_side)))
    else:
        left = qop.EigenSystem(*models.floquet_effective_spectrum(
            models.build_tfim_floquet(models.TfimParams.sample(n_side, seeds))))
        # the right factor runs the same chain on the mirrored sites
        right = qop.EigenSystem(left.values, left.vectors[:, layout.mirror_index(n_side)])
    for eig in (left, right):
        eig.values.setflags(write=False)
        eig.vectors.setflags(write=False)
    return [(qop.EigenSystem(*left_k), qop.EigenSystem(*right_k))
            for left_k, right_k in zip(zip(left.values, left.vectors),
                                       zip(right.values, right.vectors))]


class _SeedCache:
    """The values of the last maxsize keys (seed, *params) used, each
    built by `build(seeds, *params)`, which builds a batch of seeds with
    the bits each gets alone.  A lookup `cache(seed, *params)` that misses
    builds its value as a batch of one; `fill` builds every missing seed of
    a sweep slice in one batch.  `builds` counts the values built."""

    def __init__(self, build, maxsize: int):
        self._build = build
        self.maxsize = maxsize
        self.builds = 0
        self._store = OrderedDict()

    def __call__(self, seed, *params):
        return self.batch((seed,), *params)[0]

    def batch(self, seeds, *params) -> list:
        """The values of every seed in seeds, in order (see fill)."""
        self.fill(seeds, *params)
        return [self._store[(seed,) + params] for seed in seeds]

    def fill(self, seeds, *params) -> None:
        """Hold the value of every seed, building the missing ones in one
        batch; at most maxsize distinct seeds, so that none is evicted
        before it is used."""
        seeds = list(dict.fromkeys(seeds))
        if len(seeds) > self.maxsize:
            raise ConfigError(f"at most {self.maxsize} seeds per batched build, "
                              f"got {len(seeds)}")
        missing = [s for s in seeds if (s,) + params not in self._store]
        if missing:
            built = self._build(missing, *params)
            self._store.update(((s,) + params, v) for s, v in zip(missing, built))
            self.builds += len(missing)
        for seed in seeds:
            self._store.move_to_end((seed,) + params)
        while len(self._store) > self.maxsize:
            self._store.popitem(last=False)

    def clear(self) -> None:
        self._store.clear()
        self.builds = 0


# the realizations of (seed, model, j_scale, n_side), shared by the engines
# that differ only in message, swap variant or insert
_realization = _SeedCache(_build_realizations, ENGINE_CACHE_SIZE)


def _seed_axis(seeds) -> tuple:
    """A 1-D sequence of integer seeds as a tuple; at most
    ENGINE_CACHE_SIZE of them is checked by the realization build."""
    if np.ndim(seeds) != 1 or len(seeds) == 0:
        raise ConfigError("seeds must be a nonempty 1-D sequence")
    if not all(map(_is_integer, seeds)):
        raise ConfigError(f"seeds must be integers, got {seeds!r}")
    return tuple(seeds)


def _stacked(eigs) -> qop.EigenSystem:
    """One read-only eigensystem of stacks (n_s, d) and (n_s, d, d) from the
    eigensystems of n_s seeds."""
    values, vectors = np.stack([e.values for e in eigs]), np.stack([e.vectors for e in eigs])
    values.setflags(write=False)
    vectors.setflags(write=False)
    return qop.EigenSystem(values, vectors)


def wormhole_unitary(h_left: np.ndarray, h_right: np.ndarray, ins: InsertOperator,
                     size: SizeOperator, g: float, t: float,
                     register: layout.RegisterLayout) -> np.ndarray:
    """Dense protocol unitary on the full register.

    exp(-i H_R t) exp(i g upsilon) exp(-i H_L t) INSERT exp(+i H_L t)
    """
    dim = register.dim
    for m in (h_left, h_right):
        if np.asarray(m).shape != (dim, dim):
            raise qop.QopError("Hamiltonian does not match the register")
    u_fwd_l = qop.evolve(h_left, t)
    u_bwd_l = u_fwd_l.conj().T
    u_fwd_r = qop.evolve(h_right, t)
    coupling = size.exp_ig_embedded(register, g)
    return u_fwd_r @ coupling @ u_fwd_l @ ins.matrix @ u_bwd_l


class Engine:
    """Staged, cached evaluation of the protocol for one configuration at
    a scalar seed or a 1-D seed axis.

    An engine is built for cfg and either cfg.seed (a scalar seed) or
    `seeds`, a 1-D sequence of at most ENGINE_CACHE_SIZE seeds that takes
    cfg.seed's place.  The seed axis follows the rule of beta, t and g:
    every output of a 1-D seed axis has it in front, and a scalar seed has
    no seed axis.  The realization stage (the side eigensystems, shared
    with the engines of the same (model, seed, j_scale, n_side); the
    missing ones of a seed axis are built in one batch, and `eig_left` and
    `eig_right` hold them as stacks (n_s, d) and (n_s, d, d); the size
    level tables and the message (x) left factor of INSERT, shared per
    register geometry) is looked up or built here; the tensors derived
    from `eig_left`/`eig_right` are built from them on first use, as stacks
    over the seed axis (of one seed for a scalar seed).  Nothing with a
    beta, t or g axis is kept: every metric takes a whole beta array, a
    whole t array and a whole g array, and `finish` takes all seeds and
    betas of the call at once and its (seed, t) rows in chunks (see
    `_chunk`).  The t stage is built once per (seed, t) for every beta,
    and each beta is one real weighting of the TFD's left levels (see the
    module docstring).  Per seed an engine holds 2^n_side-sized arrays,
    the INSERT factor in its left eigenbasis, the readout tensor and, from
    its first g stage, the 4^n_side-square C with the pair vacuum
    absorbed: 74 KB (basis message) and 99 KB (Bell) at n_side 3, 1.08 MB
    and 1.18 MB at n_side 4.
    """

    def __init__(self, cfg: ProtocolConfig, seeds=None):
        cfg.validate()
        self.cfg = cfg
        self.reg = cfg.register
        params = (cfg.model, cfg.j_scale, cfg.n_side)
        if seeds is None:
            self.seeds, self._seed_shape = cfg.seed, ()
            self.eig_left, self.eig_right = _realization(cfg.seed, *params)
        else:
            self.seeds = _seed_axis(seeds)
            self._seed_shape = (len(self.seeds),)
            pairs = _realization.batch(self.seeds, *params)
            self.eig_left, self.eig_right = map(_stacked, zip(*pairs))
        self._n_seeds = len(self.seeds) if self._seed_shape else 1
        self.size = build_size_operator(self.reg, cfg.resolved_size_modes())
        self._insert_factor = _shared_insert_factor(
            cfg.message, cfg.swap_variant, cfg.n_side, cfg.fermionic_insert)
        self.readout = cfg.resolved_readout()
        # exp(i g upsilon) = sum_p exp(i g p) Pi_p over the few distinct size
        # levels p
        self._levels, self._level_columns, self._column_levels = self.size.level_tables

    def _vectors(self, side: str, seeds=slice(None)) -> np.ndarray:
        """V_L or V_R ("left" or "right") at the seed positions `seeds` (a
        slice), shape (k, 2^n_side, 2^n_side)."""
        eig = self.eig_left if side == "left" else self.eig_right
        d = 2 ** self.reg.n_side
        return eig.vectors.reshape(-1, d, d)[seeds]

    @cached_property
    def _insert_left(self) -> np.ndarray:
        """F~ = (I (x) V_L)^dagger F (I (x) V_L), the INSERT factor in the left
        eigenbasis of each seed, laid out (seed, input message, (input
        eigenvector, output message, output eigenvector)) as a (n_s,
        2^n_msg, 2^n_msg 4^n_side) stack, so that messages @ it is INSERT on
        each message."""
        m = 2 ** self.reg.n_message
        d = 2 ** self.reg.n_side
        v = self._vectors("left")
        # I (x) V_L on the input index, then its adjoint on the output index
        factor = (self._insert_factor.reshape(-1, d) @ v).reshape(len(v), m, d, m * d)
        factor = (v.conj().transpose(0, 2, 1)[:, None] @ factor).reshape(len(v), m, d, m, d)
        return np.ascontiguousarray(factor.transpose(0, 3, 4, 1, 2)).reshape(len(v), m, -1)

    # -- beta stage -------------------------------------------------------
    # Each stage takes a 1-D stack of n_b checked betas.
    def tfd_vector(self, beta: float) -> np.ndarray:
        """Thermofield double at beta from the left eigensystem of a scalar
        seed."""
        return tfd.build_tfd(self.eig_left, beta, self.reg)

    def tfd_weights(self, betas: np.ndarray) -> np.ndarray:
        """w(beta) with V_L^dagger T(beta) V_R^* = diag(w(beta)) K0 for the
        thermofield double T of tfd.build_tfd and K0 = V_L^dagger Omega
        V_R^* over the pair vacuum Omega: the Boltzmann amplitudes of the
        left levels, scaled to |T| = 1 (K0 is unitary over sqrt(d)), shape
        (n_b, d) for d = 2^n_side behind the seed axis."""
        w = _boltzmann(self.eig_left.values, betas)
        return w * np.sqrt(w.shape[-1] / (w * w).sum(axis=-1, keepdims=True))

    def thermal_weight_right(self, betas: np.ndarray) -> np.ndarray:
        """W_R(beta) = exp(-beta (H_R - E_min)/2) in the right eigenbasis
        for every beta of the stack: its diagonal, one weight per right
        eigenvector, shape (n_b, 2^n_side) behind the seed axis."""
        return _boltzmann(self.eig_right.values, betas)

    # -- t stage ----------------------------------------------------------
    # finish, which every metric calls, checks beta, t and g once with
    # _axes, before any stage is built; the stages below take the checked
    # values.  The t stages take the seed positions of one chunk, a slice,
    # for a 1-D seed axis; a scalar seed takes none.
    def _axes(self, beta, t, g_values) -> tuple:
        """beta, t and g as 1-D float arrays, each from a nonempty, finite
        scalar or 1-D array; beta must be nonnegative, and t integer step
        counts for the kicked-Ising model."""
        axes = []
        for name, values in (("beta", beta), ("t", t), ("g", g_values)):
            values = np.asarray(values, dtype=float)
            if values.ndim > 1 or values.size == 0:
                raise ConfigError(f"{name} must be a scalar or a nonempty 1-D array")
            if not np.isfinite(values).all():
                raise ConfigError(f"{name} must be finite")
            axes.append(values.reshape(-1))
        betas, t_values, g = axes
        _check_beta(betas)
        if self.cfg.model == "tfim":
            _check_step_counts(t_values)
            t_values = np.round(t_values)
        return betas, t_values, g

    def side_evolution(self, t_values: np.ndarray, side: str, seeds=slice(None)) -> np.ndarray:
        """Forward evolution exp(-i H t) on the "left" or "right" factor in
        its eigenbasis: the phases exp(-i E t), shape (n_t, 2^n_side), behind
        the seed axis or the k positions `seeds` of it; for the
        kicked-Ising model t counts Floquet periods."""
        eig = self.eig_left if side == "left" else self.eig_right
        return np.exp(-1j * t_values[:, None] * eig.values[seeds][..., None, :])

    def message_vector(self) -> np.ndarray:
        """The Bell pair, or |0> for both single-qubit messages: arbitrary
        amplitudes reach only curve_arbitrary_avg, as get_engine assumes."""
        if self.cfg.message == "bell_phi_plus":
            v = np.zeros(4, dtype=complex)
            v[0] = v[3] = 1 / math.sqrt(2)
            return v
        return np.array([1, 0], dtype=complex)

    # -- pipeline ---------------------------------------------------------
    # The stages below take stacks over the k seeds of one chunk in front.
    def insert_messages(self, msgs, seeds=slice(None)) -> np.ndarray:
        """INSERT on one message vector or each of a stack (n_in, 2^n_msg)
        of them in the left eigenbasis, F~[(message, a), a'] over (a',
        input, message, a), shape (d, n_in, 2^n_msg, d) for d = 2^n_side
        and the INSERT factor F~ in the left eigenbasis, behind the seed
        axis or the k positions `seeds` of it: the input of dressed_state,
        which finish builds once per seed."""
        d = 2 ** self.reg.n_side
        m = 2 ** self.reg.n_message
        msgs = np.asarray(msgs, dtype=complex).reshape(-1, m)
        insert = self._insert_left[seeds]
        ins = (msgs @ insert).reshape(len(insert), len(msgs), d, m, d).transpose(0, 2, 1, 3, 4)
        return ins if self._seed_shape else ins[0]

    def dressed_state(self, inserted: np.ndarray, t_values: np.ndarray,
                      seeds=slice(None)) -> np.ndarray:
        """Everything left of the coupling, U_L INSERT U_L^dagger |m>|TFD>,
        factored over the TFD's left level a' for every beta at once:
        z[a', (t, input, message), a] = exp(i (E_a' - E_a) t) F~[(message,
        a), a'], shape (d, n_t n_in 2^n_msg, d), from INSERT on the
        messages `inserted` (insert_messages) of the seed axis or of its k
        positions `seeds`, behind the same seed axis.  The dressed row over
        (a, right eigenvector k) at (beta, t) is sum_a' w_a'(beta) z[a',
        (t, ...), a] K0[a', k] (see tfd_weights and _rows)."""
        d = 2 ** self.reg.n_side
        ins = inserted.reshape((-1,) + inserted.shape[-4:])
        # U_L^dagger on the TFD's level a', U_L on the output level a:
        # (seed, a', t, a)
        phases = self.side_evolution(t_values, "left", seeds).reshape(len(ins), -1, d)
        pair = phases.transpose(0, 2, 1).conj()[..., None] * phases[:, None]
        z = (ins[:, :, None] * pair[:, :, :, None, None, :]).reshape(len(ins), d, -1, d)
        return z if self._seed_shape else z[0]

    @cached_property
    def _to_size(self) -> np.ndarray:
        """K0 C with C = (V_L (x) V_R)^T B^*, which takes a dressed row over
        (a, k) to the size eigenbasis, as rows over (TFD left level a', a)
        per seed: shape (n_s, 4^n_side, 4^n_side).  K0 V_R^T = V_L^dagger
        Omega, so V_R drops out: (K0 C)[(a', a), j] = sum_(l, r) V_L[l, a]
        (V_L^dagger Omega)[a', r] B^*[(l, r), j]."""
        d = 2 ** self.reg.n_side
        v = self._vectors("left")
        pair = v.conj().transpose(0, 2, 1) @ layout.bell_vacuum(self.reg.n_side).reshape(d, d)
        # the pair vacuum on the right-site index, then V_L^T on the left one
        out = pair[:, None] @ self.size.basis.conj().reshape(d, d, -1)
        return np.matmul(v.transpose(0, 2, 1)[:, None],
                         out.transpose(0, 2, 1, 3)).reshape(len(v), d * d, -1)

    def _rows(self, z: np.ndarray, weights: np.ndarray, target: np.ndarray) -> np.ndarray:
        """The dressed rows of the t stage z (k, d, n_rows, d) times
        `target` (_to_size or the coupling maps from it, (k, ..., 4^n_side,
        n_c), K0 absorbed) for the TFD weights (k, n_b, d): sum_a' w_a'(beta)
        z_a' (K0 target)_a', shape (k, ..., n_b, n_rows, n_c).  The d
        products are taken once for every beta, and each beta is one real
        weighting of them; they are formed for as many seeds at a time as
        G_BLOCK_BYTES holds, at least one."""
        d = z.shape[1]
        lead = (1,) * (target.ndim - 3)
        z = z.reshape(z.shape[:1] + lead + z.shape[1:])
        weights = weights.reshape(weights.shape[:1] + lead + weights.shape[1:])
        target = target.reshape(target.shape[:-2] + (d, d, -1))
        step = max(1, G_BLOCK_BYTES // (16 * z.shape[-2] * target[0].size // d))
        x = [_gemm(weights[s:s + step], np.matmul(z[s:s + step], target[s:s + step]).reshape(
            target[s:s + step].shape[:-2] + (-1,)).view(float)) for s in range(0, len(z), step)]
        x = x[0] if len(x) == 1 else np.concatenate(x)
        return x.view(complex).reshape(x.shape[:-1] + (z.shape[-2], target.shape[-1]))

    def _right_eigen(self, sites: np.ndarray, seeds: slice) -> np.ndarray:
        """Rows over (left site, right site) to rows over (left site, right
        eigenvector k), a stack over the k seed positions `seeds` in front:
        V_R^* on the right index."""
        v = self._vectors("right", seeds).conj()
        return (sites.reshape(len(v), -1, v.shape[-1]) @ v).reshape(sites.shape)

    @cached_property
    def _readout_tensor(self) -> np.ndarray:
        """The trace over the traced right sites of V_R |k><k'| V_R^dagger
        per seed, shape (n_s, 4^n_side, 4^k) over ((k, k'), (s, s')) for the
        k readout sites s in the order of `readout`."""
        n = self.reg.n_side
        first = self.reg.right_sites[0]
        sites = [s - first for s in self.readout]
        traced = [q for q in range(n) if q not in sites]
        v = self._vectors("right")
        v = v.reshape((len(v),) + (2,) * n + (-1,)).transpose(
            [0] + [1 + q for q in sites + traced] + [n + 1]).reshape(len(v), 2 ** len(sites),
                                                                      -1, 2 ** n)
        return np.einsum("zsck,zucl->zklsu", v, v.conj()).reshape(len(v), 4 ** n, -1)

    def _coupling_order(self, n_g: int) -> str:
        """The order in which finish applies exp(i g upsilon) for n_g values
        of g (see the module docstring): "levels" for more than L/2 values
        of g, else "maps"."""
        return "levels" if 2 * n_g > len(self._levels) else "maps"

    def _g_block(self, n_in: int, n_g: int) -> tuple:
        """(rows, values of g) per block of the level order's g stage, one
        block of the compressed coordinates y(g) of n_in inputs at a time.
        One (seed, beta, t) row's y(g) takes 16 n_in 2^k k_R bytes per g for
        k readout sites; its n_g values of g are cut into equal blocks, as
        many as G_BLOCK_BYTES goes into their total, rounded (at least
        one), so a block holds at most 1.5 G_BLOCK_BYTES of y(g) and a grid
        a little longer than one block is not split into a full block and a
        short one.  Rows whose whole g axis takes at most two thirds of
        G_BLOCK_BYTES share a block, as many as G_BLOCK_BYTES holds,
        rounded.  The block width, the N dimension of `r @ phases` in
        `_block_densities`, decides the bits of the values; the rows per
        block do not: a product cut into column blocks can round otherwise
        than the uncut one, and one cut into row blocks does not."""
        k = len(self.readout)
        width = n_in * 2 ** k
        rank = min(self.reg.dim >> k, width * len(self._levels))
        row_bytes = 16 * width * rank * n_g
        n_blocks = max(1, round(row_bytes / G_BLOCK_BYTES))
        return max(1, round(G_BLOCK_BYTES / row_bytes)), -(-n_g // n_blocks)

    def _level_phases(self, z: np.ndarray) -> np.ndarray:
        """exp(i g p) per level p for the values z = exp(i g), shape (L,
        n_g): the levels are nonnegative integers, so these are powers of
        z."""
        powers = np.empty((self._levels[-1] + 1, len(z)), dtype=complex)
        powers[0] = 1.0
        powers[1] = z
        for k in range(2, len(powers)):
            np.multiply(powers[k - 1], z, out=powers[k])
        return powers[self._levels]

    def _readout_matrix(self, coeffs: np.ndarray, right: np.ndarray, n_in: int,
                        seeds: slice) -> np.ndarray:
        """The level components Pi_p x of the size-eigenbasis rows `coeffs`
        (k, n_bt, rows per (beta, t), 4^n_side) of the k seed positions
        `seeds` through the right stage `right` (k, n_bt, 2^n_side), laid
        out as one matrix per (seed, beta, t), A = (traced sites) x (input,
        readout sites, level), shape (k n_bt, dim / 2^k, n_in 2^k L) for k
        readout sites.  Only A outlives the call, so the level components
        are dropped before the QR of A copies it."""
        (k, n_bt, d), n_levels = right.shape, len(self._levels)
        coeffs = coeffs.reshape(k, -1, coeffs.shape[-1])
        basis = self.size.basis
        parts = np.empty((k, n_levels) + coeffs.shape[1:], dtype=complex)
        for p, cols in enumerate(self._level_columns):
            np.matmul(coeffs[:, :, cols], basis[:, cols].T, out=parts[:, p])
        parts = self._right_eigen(parts, seeds).reshape(k, n_levels, n_bt, -1, d)
        # the right stage: a diagonal multiply in V_R, in place, then V_R^T
        np.multiply(parts, right[:, None, :, None, :], out=parts)
        parts = (parts.reshape(k, -1, d) @ self._vectors("right", seeds).transpose(0, 2, 1)
                 ).reshape(k, n_levels, n_bt, n_in, -1)
        n = self.reg.n_qubits
        traced = [s for s in range(n) if s not in self.readout]
        axes = ([0, 2] + [4 + s for s in traced] + [3] + [4 + s for s in self.readout]
                + [1])
        a = parts.reshape(parts.shape[:4] + (2,) * n).transpose(axes)
        return a.reshape(k * n_bt, 2 ** len(traced), -1)

    def _gram_readout(self, x: np.ndarray, right: np.ndarray, n_in: int,
                      seeds: slice) -> np.ndarray:
        """The unnormalized readout densities, shape (k, n_b, n_t, n_g, n_in
        2^k, n_in 2^k) for k readout sites, of the states with rows `x` (k,
        n_g, n_b, n_t n_in 2^n_msg, 4^n_side) over (left site, right
        eigenvector) of the k seed positions `seeds` before the right stage
        `right` (k, n_b, n_t, 2^n_side): rho = sum_(k, k') G[(i, k), (i',
        k')] r_k r_k'^* T[(k, k'), :] with the Gram G of the rows over
        (message, left site), r = W_R U_R and T the readout tensor.  The
        thermal weight, which makes a state small at large beta, comes after
        the Gram sum, so rho keeps about eps relative to its trace."""
        lead, n_g = right.shape[:3], x.shape[1]
        right = right.reshape(lead[0], -1, right.shape[-1])
        (n_s, n_bt, d), s = right.shape, 2 ** len(self.readout)
        # (input, right eigenvector) x (message, left site) per (seed, g,
        # beta, t)
        a = x.reshape(n_s * n_g * n_bt, n_in, -1, d).transpose(0, 1, 3, 2).reshape(
            n_s * n_g * n_bt, n_in * d, -1)
        gram = a @ a.conj().transpose(0, 2, 1)
        weight = right[..., :, None] * right.conj()[..., None, :]
        gram = (gram.reshape(n_s, n_g, n_bt, n_in, d, n_in, d)
                * weight[:, None, :, None, :, None, :])
        rho = _gemm(gram.transpose(0, 1, 2, 3, 5, 4, 6).reshape(n_s, -1, d * d),
                    self._readout_tensor[seeds])
        rho = rho.reshape(n_s, n_g, n_bt, n_in, n_in, s, s).transpose(0, 2, 1, 3, 5, 4, 6)
        return rho.reshape(lead + (n_g, n_in * s, n_in * s))

    def finish(self, msgs, beta, g_values, t, reading) -> np.ndarray:
        """`reading` of the protocol for the messages `msgs` (one vector or
        a stack (n_in, 2^n_msg)) at every (seed, beta, t, g) of the seed
        axis and a scalar or 1-D beta, t and g, all seeds and betas at once
        and the (seed, t) rows in chunks of _chunk.  Each axis must be
        nonempty and finite, beta nonnegative, and t integer step counts
        for the kicked Ising model.

        reading maps the unnormalized readout densities of n_r (seed, beta,
        t) rows and a run of n_v values of g, shape (n_r, n_v, n_in 2^k,
        n_in 2^k) over (input, readout sites) for k readout sites, to an
        array with leading axes (n_r, n_v): in the level order one group of
        rows and one block of _g_block(n_in, n_g) at a time, in the maps
        order the rows of _chunks_per_reading consecutive chunks and every
        value of g at once.  For a 1-D seed axis it may be a sequence of
        one reading per seed, each handed its own seed's rows alone.  The
        result is those arrays joined, shape seed axis + np.shape(beta) +
        np.shape(t) + (n_g, ...).
        """
        betas, t_values, g = self._axes(beta, t, g_values)
        d, m = 2 ** self.reg.n_side, 2 ** self.reg.n_message
        msgs = np.asarray(msgs, dtype=complex).reshape(-1, m)
        n_s, n_b, n_t, n_in = self._n_seeds, len(betas), len(t_values), len(msgs)
        if n_in & (n_in - 1):
            raise ConfigError("a reading needs a power-of-two number of inputs")
        if not callable(reading) and len(reading) != n_s:
            raise ConfigError(f"need one reading per seed, got {len(reading)}")
        weights = self.tfd_weights(betas).reshape(n_s, n_b, d)
        # W_R(beta) is 1.0 exactly at beta = 0, so its multiply keeps every bit
        thermal = (self.thermal_weight_right(betas) if self.cfg.thermal_readout
                   else np.ones((n_s, n_b, d))).reshape(n_s, n_b, 1, d)
        order = self._coupling_order(len(g))
        t_step = self._chunk(n_b, n_in, len(g), order)
        if order == "maps":
            # exp(i g upsilon) is the phase exp(i g p) on each size eigenvector
            phases = np.exp(1j * g[:, None, None] * self._column_levels)
            per_read = self._chunks_per_reading(n_b, n_in, len(g), t_step)
        else:
            # the level phases of each g block, made once per call and kept
            # for every group of rows where the whole grid's take at most
            # G_BLOCK_BYTES, else only the last block's are kept
            n_rows, step = self._g_block(n_in, len(g))
            unit = np.exp(1j * g)
            keep = 16 * len(self._levels) * len(g) <= G_BLOCK_BYTES
            level_phases = lru_cache(maxsize=None if keep else 1)(
                lambda start: self._level_phases(unit[start:start + step]))
            g_blocks = (level_phases, range(0, len(g), step), n_rows)
        if order == "maps" or t_step < n_t:
            # one seed per chunk, cut as it is cut alone; in the maps order
            # a seed's coupling maps serve all its chunks
            chunks = _tiles(n_s, n_t, min(t_step, n_t))
        else:
            # the rows of whole seeds, as many as G_BLOCK_BYTES holds of the
            # t stage and the dressed rows that a chunk keeps, 4^n_side
            # amplitudes per (input, message) row and per beta (_rows forms
            # the d products a few seeds at a time)
            kept = 16 * n_in * m * d * d * (1 + n_b)
            chunks = _tiles(n_s, n_t, n_t * max(1, G_BLOCK_BYTES // (n_t * kept)))
        out, held, inserted = None, [], None
        for i, (ss, ts) in enumerate(chunks):
            if inserted is None:
                # the first chunk of its seeds: INSERT on their messages and,
                # in the maps order, the coupling maps, once for all their
                # chunks
                inserted = self.insert_messages(msgs, ss)
                if order == "maps":
                    target = None
                    target = self._right_eigen(
                        (self._to_size[ss, None] * phases) @ self.size.basis.T, ss)
            x, right = self._chunk_rows(inserted, t_values[ts], ss, weights, thermal,
                                        self._to_size[ss] if order == "levels" else target)
            if ts.stop == n_t:
                inserted = None  # the last chunk of its seeds
            if order == "levels":
                for group_seeds, rows, values in self._level_readout(
                        x, right, n_in, g_blocks, reading, ss):
                    out = _place(out, (n_s, n_b, n_t), group_seeds, ts, rows, values)
            else:
                held.append((ss, ts, self._gram_readout(x, right, n_in, ss)))
            # a chunk's arrays are gone before the next chunk's are made
            x = right = None
            if order == "maps" and (len(held) == per_read or i + 1 == len(chunks)):
                # the densities of consecutive chunks, rows (seed, beta, t)
                for chunk_seeds, chunk_ts, values in _read_chunks(reading, held):
                    out = _place(out, (n_s, n_b, n_t), chunk_seeds, chunk_ts, None, values)
                held = []
        return out.reshape(self._seed_shape + np.shape(beta) + np.shape(t) + out.shape[3:])

    def _chunk_rows(self, inserted: np.ndarray, t_values: np.ndarray, seeds: slice,
                    weights: np.ndarray, thermal: np.ndarray, target: np.ndarray) -> tuple:
        """The dressed rows (see _rows) of the k seed positions `seeds` and
        the t values of one chunk, from INSERT on their messages `inserted`,
        through `target`, and their right stage
        W_R(beta) U_R(t), shape (k, n_b, n_t, 2^n_side), from the TFD and
        thermal weights of every seed, (n_s, n_b, d) and (n_s, n_b, 1,
        d)."""
        d = 2 ** self.reg.n_side
        stage_seeds = (seeds,) if self._seed_shape else ()
        right = (self.side_evolution(t_values, "right", *stage_seeds).reshape(
            -1, 1, len(t_values), d) * thermal[seeds])
        z = self.dressed_state(inserted, t_values, *stage_seeds)
        return self._rows(z.reshape(len(right), d, -1, d), weights[seeds], target), right

    def _level_readout(self, x: np.ndarray, right: np.ndarray, n_in: int,
                       g_blocks: tuple, reading, seeds: slice):
        """reading per (seed, beta, t, g) from the size-eigenbasis rows `x`
        (k, n_b, n_t n_in 2^n_msg, 4^n_side) of the k seed positions `seeds`
        and the right stage (k, n_b, n_t, 2^n_side): the (seed, beta, t)
        rows in groups whose level components fit G_BLOCK_BYTES, each
        through its own QR and the g stage of `g_blocks` (see
        _compressed_readout).  Yields each group's seed positions, its run
        of (beta, t) rows (None for all of them) and its values, rows
        (seed, beta, t) first."""
        k, n_bt = len(x), right.shape[1] * right.shape[2]
        coeffs, right = x.reshape(k, n_bt, -1, x.shape[-1]), right.reshape(k, n_bt, -1)
        group = max(1, G_BLOCK_BYTES // (16 * len(self._levels) * coeffs[0, 0].size))
        for ss, rs in _tiles(k, n_bt, group):
            at = slice(seeds.start + ss.start, seeds.start + ss.stop)
            r = np.linalg.qr(self._readout_matrix(coeffs[ss, rs], right[ss, rs], n_in, at),
                             mode="r")
            row_seeds = np.repeat(np.arange(at.start, at.stop), rs.stop - rs.start)
            yield (at, None if rs.stop - rs.start == n_bt else rs,
                   self._compressed_readout(r, n_in, g_blocks, reading, row_seeds))

    def _compressed_readout(self, r: np.ndarray, n_in: int, g_blocks: tuple,
                            reading, row_seeds: np.ndarray) -> np.ndarray:
        """reading over the g axis, block by block, from the R factors `r`
        (n_bt, k_R, n_in 2^k L) of the level components of n_in inputs, with
        k_R = min(dim / 2^k, n_in 2^k L) for k readout sites, whose rows
        belong to the seed positions `row_seeds`; g_blocks is (the level
        phases of the g block at a start, the starts, rows per block), see
        _g_block.  The final
        states at g are Q R phi(g) with A = QR (`_readout_matrix`), so
        rho(g) is a sum over the k_R coordinates y(g) = R phi(g) alone (see
        the module docstring; any sum_pq exp(i g (p - q)) M_pq would lose
        eps/norm^2, about 5e-5 at beta = 100)."""
        width = n_in * 2 ** len(self.readout)
        # rows (coordinate j, input and readout value c), columns level p
        r = r.reshape(len(r), -1, len(self._levels))
        level_phases, starts, n_rows = g_blocks
        out = [np.concatenate([
            _read(reading, _block_densities(r[j:j + n_rows], level_phases(start), width),
                  row_seeds[j:j + n_rows])
            for j in range(0, len(r), n_rows)]) for start in starts]
        return out[0] if len(out) == 1 else np.concatenate(out, axis=1)

    def _chunk(self, n_b: int, n_in: int, n_g: int, order: str) -> int:
        """t values of one seed per chunk of finish for n_b betas, n_in
        inputs and n_g values of g in the coupling order `order`, at least
        one.  Per t, input and message row a chunk holds the t stage's
        products for the d = 2^n_side TFD levels and the rows of the n_b
        betas, 4^n_side amplitudes each, and in the maps order n_g times as
        many (the level order takes the rows a group at a time, see
        finish); as many t as fit in BATCH_BYTES of these."""
        per_g = n_g if order == "maps" else 1
        row_bytes = (16 * n_in * 2 ** self.reg.n_message * 4 ** self.reg.n_side
                     * (2 ** self.reg.n_side + n_b) * per_g)
        return max(1, BATCH_BYTES // row_bytes)

    def _chunks_per_reading(self, n_b: int, n_in: int, n_g: int, t_step: int) -> int:
        """Chunks of t_step t values whose readout densities the maps order
        of finish hands to one reading, at least one: as many as
        G_BLOCK_BYTES holds of their 16 (n_in 2^k)^2 bytes per (beta, t,
        g) for k readout sites."""
        width = n_in * 2 ** len(self.readout)
        return max(1, G_BLOCK_BYTES // (16 * width * width * n_b * n_g * t_step))

    # -- metrics ----------------------------------------------------------
    # Each metric is a reading of the unnormalized readout density rho over
    # (input, readout sites) that finish hands it, in every coupling order.
    # The curves look basis_z_value and bell_value up on the engine at call
    # time, so a wrapper set on the class sees every reading.
    def basis_z_value(self, rho: np.ndarray) -> np.ndarray:
        """<Z> on the readout site from unnormalized densities (..., 2, 2)."""
        up, down = rho[..., 0, 0].real, rho[..., 1, 1].real
        return (up - down) / (up + down)

    def bell_value(self, rho: np.ndarray):
        """Stabilizer fidelity of the readout pair from unnormalized
        densities (..., 4, 4); the density-matrix checks run on every
        one."""
        trace = np.trace(rho, axis1=-2, axis2=-1).real
        return stabilizer_fidelity(rho / trace[..., None, None])

    def curve_basis_z(self, beta, t, g_values) -> np.ndarray:
        """<Z> per (seed, beta, t, g), shape seed axis + np.shape(beta) +
        np.shape(t) + (n_g,) for a scalar or 1-D beta and t."""
        return self.finish(self.message_vector(), beta, g_values, t, self.basis_z_value)

    def curve_bell(self, beta, t, g_values) -> np.ndarray:
        """Bell stabilizer fidelity per (seed, beta, t, g), shape as
        curve_basis_z."""
        return self.finish(self.message_vector(), beta, g_values, t, self.bell_value)

    @staticmethod
    def _fidelity_reading(messages):
        """The reading of <m| rho_out(m) |m> for every message m = (alpha,
        beta_msg) in `messages` from the branch densities r[(a, i), (b, j)]
        = Tr_rest |phi_a><phi_b| on the readout site, shape (n_bt, n_r, 4, 4)
        -> (n_bt, n_r, len(messages))."""
        c = np.asarray(messages, dtype=complex).reshape(-1, 2)
        cc = (c[:, :, None] * c.conj()[:, None, :]).reshape(-1, 4)  # c_a conj(c_b)
        # u_x conj(u_y) over x = (a, i), y = (b, j), with u_(a, i) = c_a conj(c_i)
        uu = (cc[:, :, None] * cc.conj()[:, None, :]).reshape(-1, 16)

        def reading(r):
            lead = r.shape[:2]
            r = r.reshape(-1, 16)
            overlap = _gemm(r, uu.T)
            # the branch blocks traced over the readout site: (a, b)
            r = r.reshape(-1, 2, 2, 2, 2)
            norm2 = _gemm((r[:, :, 0, :, 0] + r[:, :, 1, :, 1]).reshape(-1, 4), cc.T)
            return (overlap / norm2).real.reshape(lead + (-1,))
        return reading

    def curve_arbitrary_avg(self, beta, t, g_values, messages):
        """Mean and standard error over the n_m messages (alpha, beta_msg)
        of `messages` (a seed's `draw_haar_samples`, shape (n_m, 2), behind
        the seed axis: each seed takes its own) per (seed, beta, t, g), each
        of shape as curve_basis_z.  Both are taken per slice of about
        G_BLOCK_BYTES of (point, message) values inside each reading, so no
        (beta, t, g, message) array is held."""
        messages = np.asarray(messages, dtype=complex)
        if messages.shape[:-2] != self._seed_shape or messages.shape[-1:] != (2,):
            raise ConfigError(f"need messages of shape {self._seed_shape + ('n_m', 2)}, "
                              f"got {messages.shape}")
        if messages.shape[-2] < 1:
            raise ConfigError("need at least one sample")

        def averaged(seed_messages):
            fidelity = self._fidelity_reading(seed_messages)
            n_m = len(seed_messages)

            def summary(r):
                return np.stack(_mean_stderr(fidelity(r)), axis=-1)

            def reading(r):
                # the (point, message) values in slices of about
                # G_BLOCK_BYTES, as equal as can be and of at least two
                # points each
                points = r.reshape(-1, 1, 4, 4)
                n_parts = max(1, min(len(points) // 2,
                                     round(16 * n_m * len(points) / G_BLOCK_BYTES)))
                if n_parts == 1:
                    return summary(r)
                out = np.concatenate([summary(p) for p in np.array_split(points, n_parts)])
                return out.reshape(r.shape[:2] + (2,))
            return reading

        reading = (_SeedReadings(lambda k: averaged(messages[k]), len(messages))
                   if self._seed_shape else averaged(messages))
        out = self.finish(_BRANCH_INPUTS, beta, g_values, t, reading)
        return out[..., 0], out[..., 1]


class _SeedReadings:
    """One reading per seed position of a seed axis, made by make(k) when
    the rows of seed k come and kept until another seed's come, so that
    the readings of all seeds are not held at once."""

    def __init__(self, make, n_seeds: int):
        self._make, self._n_seeds = make, n_seeds
        self._seed = self._reading = None

    def __len__(self) -> int:
        return self._n_seeds

    def __getitem__(self, k):
        if k != self._seed:
            self._seed, self._reading = k, self._make(k)
        return self._reading


def _tiles(n_seeds: int, n_rows: int, step: int) -> list:
    """(seed slice, row slice) tiles of a (seed, row) grid with at most
    `step` rows each, in order: the rows of as many whole seeds as fit, or
    runs of one seed's rows where its rows do not fit.  A seed's rows are
    cut as they are cut for that seed alone."""
    if step >= n_rows:
        per = step // n_rows
        return [(slice(s, min(s + per, n_seeds)), slice(0, n_rows))
                for s in range(0, n_seeds, per)]
    return [(slice(s, s + 1), slice(j, min(j + step, n_rows)))
            for s in range(n_seeds) for j in range(0, n_rows, step)]


def _read(reading, rho: np.ndarray, row_seeds: np.ndarray) -> np.ndarray:
    """`reading` of the densities rho, whose rows belong to the ascending
    seed positions `row_seeds`: one reading takes every row at once, a
    sequence of one reading per seed takes each seed's rows alone."""
    if callable(reading):
        return reading(rho)
    if row_seeds[0] == row_seeds[-1]:
        return reading[row_seeds[0]](rho)
    cuts = (np.flatnonzero(np.diff(row_seeds)) + 1).tolist()
    return np.concatenate([reading[row_seeds[a]](rho[a:b])
                           for a, b in zip([0] + cuts, cuts + [len(rho)])])


def _place(out, shape: tuple, seeds: slice, ts: slice, rows, values: np.ndarray) -> np.ndarray:
    """The output `out` of finish, rows (seed, beta, t) of `shape`, with
    `values`, rows (seed, beta, t) in one axis, at the seed positions
    `seeds` and the t values `ts`: every (beta, t) row of them, or the run
    `rows` of one seed's (beta, t) rows over ts.  It is made at the first
    piece (None before), which is the output where it covers every row."""
    n_t = ts.stop - ts.start
    if out is None:
        if len(values) == shape[0] * shape[1] * shape[2]:
            return values.reshape(shape + values.shape[1:])
        out = np.empty(shape + values.shape[1:], values.dtype)
    if rows is None:
        out[seeds, :, ts] = values.reshape((seeds.stop - seeds.start, shape[1], n_t)
                                           + values.shape[1:])
    else:
        b, t = np.divmod(np.arange(rows.start, rows.stop), n_t)
        out[seeds.start, b, ts.start + t] = values
    return out


def _read_chunks(reading, held: list) -> list:
    """The (seed slice, t slice, values) pieces of the maps order's held
    chunks (seed slice, t slice, densities (k, n_b, n_t, ...)), read at
    once with rows (chunk, seed, beta, t); a piece's values have rows
    (seed, beta, t) in one axis."""
    rows = [rho.reshape((-1,) + rho.shape[3:]) for _, _, rho in held]
    row_seeds = np.concatenate([np.repeat(np.arange(ss.start, ss.stop), len(r) // len(rho))
                                for (ss, _, rho), r in zip(held, rows)])
    values = _read(reading, rows[0] if len(rows) == 1 else np.concatenate(rows), row_seeds)
    cuts = np.cumsum([len(r) for r in rows])[:-1]
    return [(ss, ts, v) for (ss, ts, _), v in zip(held, np.split(values, cuts))]


def _boltzmann(values: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """exp(-beta (E - E_min)/2) per beta and level of the levels `values`
    (..., d), shape (..., n_b, d)."""
    return np.exp(-0.5 * betas[:, None]
                  * (values - values.min(axis=-1, keepdims=True))[..., None, :])


def _mean_stderr(values: np.ndarray) -> tuple:
    """Mean and standard error (ddof 1) along the last axis; the standard
    error of one value is 0."""
    n = values.shape[-1]
    if n == 1:
        return values[..., 0], np.zeros(values.shape[:-1])
    # the operations of values.mean(axis=-1) and values.std(axis=-1,
    # ddof=1), with one sum for both
    mean = np.add.reduce(values, axis=-1, keepdims=True) / n
    dev = values - mean
    np.multiply(dev, dev, out=dev)
    return mean[..., 0], np.sqrt(np.add.reduce(dev, axis=-1) / (n - 1)) / math.sqrt(n)


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for an a whose rows run over betas or (beta, t, g) points, or a
    stack of such per seed, with a one-row a taken as two rows: BLAS sends a
    one-row product through another kernel, whose last bits can differ
    from the same row's inside a larger product, and no value may depend
    on what shares its call."""
    if a.shape[-2] > 1:
        return a @ b
    return (np.concatenate((a, a), axis=-2) @ b)[..., :1, :]


def _block_densities(r: np.ndarray, phases: np.ndarray, width: int) -> np.ndarray:
    """The unnormalized readout densities rho[t, g, a, b] = sum_j y[t, j, a,
    g] y*[t, j, b, g] of one g block, shape (n_bt, n_g, width, width), from
    the R factors `r` (n_bt, k_R width, L) and the level phases (L, n_g):
    y = r phases.  The coordinates y, their conjugate and one product are
    freed on return, before the block's reading runs or the next block's
    are made."""
    y = (r @ phases).reshape(len(r), -1, width, phases.shape[1])
    yc, y_ab = y.conj(), np.empty_like(y)
    # one row a at a time: a temporary of all (a, b) would be `width` times y
    rho = np.empty((len(r), width, width, y.shape[-1]), dtype=complex)
    for a in range(width):
        np.multiply(y[:, :, a, None], yc, out=y_ab)
        np.add.reduce(y_ab, axis=1, out=rho[:, a])
    return rho.transpose(0, 3, 1, 2)


# the |0> and |1> message inputs whose branches arbitrary messages are
# assembled from
_BRANCH_INPUTS = np.eye(2, dtype=complex)
_BRANCH_INPUTS.setflags(write=False)


# the ProtocolConfig fields an Engine depends on, message first: all but
# the sweep axes and the message amplitudes
_ENGINE_FIELDS = ("message",) + tuple(
    f.name for f in fields(ProtocolConfig)
    if f.name not in ("message", "g", "t", "beta", "alpha", "beta_msg"))
_engine_key = attrgetter(*_ENGINE_FIELDS)


class _EngineCache:
    """The engines of get_engine, least recently used first: as many as
    hold at most ENGINE_CACHE_SIZE seeds in all, an engine of a seed axis
    counting each of its seeds, and always the newest."""

    def __init__(self):
        self._store = OrderedDict()

    def __call__(self, key: tuple, seeds) -> Engine:
        eng = self._store.get((key, seeds))
        if eng is not None:
            self._store.move_to_end((key, seeds))
            return eng
        eng = Engine(ProtocolConfig(**dict(zip(_ENGINE_FIELDS, key))), seeds)
        self._store[(key, seeds)] = eng
        held = sum(e._n_seeds for e in self._store.values())
        while held > ENGINE_CACHE_SIZE:
            held -= self._store.popitem(last=False)[1]._n_seeds
        return eng

    def cache_clear(self) -> None:
        self._store.clear()


_engine_cached = _EngineCache()


def get_engine(cfg: ProtocolConfig, seeds=None) -> Engine:
    """Engine shared across calls with the same structural parameters, at
    cfg.seed or at the 1-D seed axis `seeds`, which takes its place.

    The sweep axes (g, t, beta) and the message amplitudes are not part
    of the key, so one cached engine serves a whole grid; the arbitrary
    message shares the engine of the basis message, since its fidelities
    are built from the two basis-input branches.
    """
    key = _engine_key(cfg)
    if key[0] == "arbitrary":
        key = ("basis_zero",) + key[1:]
    try:
        return _engine_cached(key, None if seeds is None else tuple(seeds))
    except TypeError:
        # an unhashable field (a list for a tuple) or seed is a config
        # error; validated here so that the cached path does no extra work
        cfg.validate()
        if seeds is not None:
            _seed_axis(seeds)
        raise


# XX + YY + ZZ as the vector v with Tr(rho (XX + YY + ZZ)) = rho.ravel() @ v;
# the sum is real, so only Re(rho) contributes
_STABILIZER_VECTOR = sum(qop.kron(p, p) for p in (qop.PAULI_X, qop.PAULI_Y, qop.PAULI_Z)
                         ).real.T.reshape(16)


def stabilizer_fidelity(rho2: np.ndarray):
    """(1 + <XX> + <YY> + <ZZ>)/2 on a two-qubit density matrix.

    A stack of density matrices (..., 4, 4) gives an array of fidelities;
    every matrix in it must pass the density-matrix checks.
    """
    rho2 = np.asarray(rho2, dtype=complex)
    if rho2.shape[-2:] != (4, 4):
        raise qop.QopError("stabilizer fidelity needs a 4x4 density matrix")
    trace = np.trace(rho2, axis1=-2, axis2=-1)
    if np.any(np.abs(trace - 1.0) > 1e-8) or not qop.is_hermitian(rho2, 1e-8):
        raise qop.QopError("input is not a density matrix")
    val = 0.5 * (1.0 + rho2.reshape(rho2.shape[:-2] + (16,)).real @ _STABILIZER_VECTOR)
    return float(val) if np.ndim(val) == 0 else val


def _haar_messages(seeds, indices: np.ndarray) -> np.ndarray:
    """The Bloch-sphere uniform messages (alpha, beta) of every seed at the
    indices, read-only, shape (n_seeds, n_indices, 2): azimuth 2 pi u_phi
    and cos(theta) = 2 u_cos - 1 from one draw of the index substreams.
    acos, cos and sin are scalar math calls, as numpy's ufuncs can differ
    in the last bit."""
    u = models.split_uniform(seeds, models.STREAM_HAAR,
                             (2 * indices[:, None] + np.arange(2)).reshape(-1))
    phi = 2 * math.pi * u[:, 0::2]
    half_theta = _scalar_map(math.acos, 2 * u[:, 1::2] - 1) / 2
    sin_half = _scalar_map(math.sin, half_theta)
    out = np.empty(phi.shape + (2,), dtype=complex)
    out[..., 0] = _scalar_map(math.cos, half_theta)
    out[..., 1].real = sin_half * _scalar_map(math.cos, phi)
    out[..., 1].imag = sin_half * _scalar_map(math.sin, phi)
    out.setflags(write=False)
    return out


def _scalar_map(fn, x: np.ndarray) -> np.ndarray:
    """fn of every entry of a float array, by a scalar math call each."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def haar_qubit(seed: int, index: int) -> np.ndarray:
    """The Haar message (alpha, beta) of one seed and index, as a read-only
    complex array of two."""
    return _haar_messages([seed], np.array([index]))[0, 0]


def draw_haar_samples(seeds, n_s: int) -> np.ndarray:
    """The first n_s Haar messages of each seed in seeds, read-only, shape
    (len(seeds), n_s, 2), from one draw of all seeds' 2 n_s uniforms."""
    return _haar_messages(seeds, np.arange(n_s))


def run_arbitrary_avg(cfg: ProtocolConfig, n_s: int = 100, seed: int = 0):
    """Mean and standard error of the fidelity over Haar-random inputs;
    cfg carries a single-qubit message, whose amplitudes are not used."""
    if cfg.message == "bell_phi_plus":
        raise ConfigError("run_arbitrary_avg expects a single-qubit message")
    cfg.validate()
    mean, stderr = get_engine(cfg).curve_arbitrary_avg(
        cfg.beta, cfg.t, (cfg.g,), draw_haar_samples([seed], n_s)[0])
    return float(mean[0]), float(stderr[0])
