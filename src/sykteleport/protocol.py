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

Every metric is evaluated by one staged pipeline in `Engine`.  V_L and
V_R are the side eigenbases (2^n_side x 2^n_side) and d = 2^n_side:

* realization (Engine construction): the coupling table and the side
  eigensystems (for the kicked-Ising baseline the Floquet quasi-energies,
  which make integer t a step count), shared read-only by the engines of
  one (model, seed, j_scale, n_side); the distinct size levels p (L = 6 at
  n_side = 3) and the factor F of INSERT on the message and left sites
  (INSERT = F (x) I_right, checked exactly once, after which the dense
  INSERT is dropped).  F and the size eigenbasis B are shared by every
  engine of one register geometry; F in the left eigenbasis and C (below)
  are derived from V_L, V_R on first use.  The random draws behind a
  realization and behind the Haar messages are one batched
  `models.split_uniform` call per quantity; their scheme is pinned by
  `models`, not by numpy's Generator (see there);
* beta (a batched axis): for a stack of n_b betas, the thermofield
  doubles T, each built by `tfd.build_tfd` from the cached left
  eigensystem and kept as K(beta) = V_L^dagger T V_R^*, an (n_b, d, d)
  stack, and the thermal readout weights exp(-beta (E_R - E_min)/2),
  diagonal in V_R, an (n_b, d) stack; both are kept for the latest stack;
* t (a batched axis, side eigenbases): U_L and U_R are the phase arrays
  exp(-i E t).  `Engine.dressed_state` (everything before the coupling)
  is two phase multiplies of the K stack and two small GEMMs (messages
  into F, then F onto K), a stack whose leading axis runs over (beta, t),
  beta outer, and whose rows are indexed by (left eigenvector, right
  eigenvector);
* g (a batched axis): `Engine.finish` applies the coupling,
  exp(i g upsilon) = B diag(exp(i g p_j)) B^dagger with p_j the level of
  size eigenvector j, in one of three orders, picked from the call's
  n_rows (beta, t, input, message) rows and n_g values of g.  Every row
  is taken to the size eigenbasis by the engine's C = (V_L (x) V_R)^T B^*
  and back by B^T and V_R^* on the right index (rows over (left site,
  right eigenvector)).  "phases" (at most L/2 values of g, few rows): each row
  through C, one phase per eigenvector for each g, each g back.  "maps"
  (at most L/2 values of g and n_rows > n_g 4^n_side): the same product
  associated the other way, one 4^n_side-square map C diag(phases) B^T
  per g, so each row is one product with it.  "levels" (more than L/2
  values of g, the g sweeps): each row through C and back split into its
  L level components Pi_p x.  W_R(beta) U_R(t) is one diagonal multiply in
  the right eigenbasis followed by a GEMM by V_R^T (in the level order on
  each level component, before the g combination).  The orders agree to
  round-off, not bit for bit.

Every metric is read from the readout density rho over (input, readout
sites), which `Engine.finish` hands the metric's reading, one g block at a
time; each (beta, t, g) keeps its own density-matrix checks.  The maps and
phases orders build the final states (at most L/2 values of g) and take
rho from them with `qop.reduced_density`.  The level order builds no final
state: for each (beta, t) it lays the level components out as a matrix A =
(traced sites) x (input, readout value, level) and keeps only its R factor
from a Householder QR, at most n_in 2^k L rows for k readout sites.  For
every g, y(g) = R phi(g) with phi_p(g) = exp(i g p) gives rho(g) = y^T y^*,
since Q is orthonormal.  QR is backward stable, so |R phi| = |A phi| keeps
the direct sum's eps/norm accuracy at large beta, where the weighted final
state is far smaller than its O(1) level components (norm about 2e-6 at
beta = 100); the Gram form phi^dagger A^dagger A phi would lose eps/norm^2
and is not used.  The level order takes the (beta, t) rows in groups
whose level components fit G_BLOCK_BYTES, and each group's g axis in
blocks of about G_BLOCK_BYTES of y(g); only the per-(beta, t, g) values
are joined, so a call's memory grows with neither its g grid nor its beta
grid beyond arrays of n_g values per (beta, t).  Without a reading,
`finish` returns the unnormalized final states, from the phases or maps
order for any number of g, since the level order has no final state to
return (`final_state` normalizes its one).  A call's (beta, t) rows are
cut into chunks of at most BATCH_BYTES of dressed states (and of final
states in the maps and phases orders): whole betas while they fit, runs
of t within one beta where one beta's t axis does not.  A scalar beta or
t, or a single g, is a batch of one through the same stages (the g stage
picks its order by size), so
`run_single_qubit`, `run_bell`, `run_arbitrary_avg` and the sweeps in
`analysis` share them.  The dense `wormhole_unitary` is the reference the
pipeline is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from operator import attrgetter

import numpy as np

from . import layout, models, qop, tfd

DEFAULT_J_SCALE = 5.0
DEFAULT_T_SINGLE = 1.0
DEFAULT_T_BELL = 2.0
DEFAULT_TFIM_STEPS = 1
# bytes one chunk of Engine._curve holds for all its (beta, t) rows at
# once (see Engine._chunk): the dressed states, 2 KiB per row for the basis
# message and 4 KiB for the Bell message or the two Haar branches at
# n_side 3, and in the maps and phases orders the final states, n_g times
# that.  The 8 betas of a g sweep are one chunk; the 73-t Bell window at
# one g takes 292 KiB per beta and is one chunk per beta (larger Bell
# chunks were slower).
BATCH_BYTES = 2 ** 19
# bytes of compressed readout coordinates y(g) per g block of
# Engine.finish's level order (see Engine._g_block), and of level
# components per group of (beta, t) rows there: y(g) takes 384 bytes per g
# and (beta, t) for the basis message at n_side 3 and 1536 for the Bell
# message or the two Haar branches, so a 201-g basis sweep and a 49-g Haar
# average are one block per (beta, t) and a 201-g Bell sweep is 5; the
# level components take 12 KiB per (beta, t) for the basis message and
# 24 KiB for the other two, so groups of 5 and 2.  A block's transient
# memory is about three times its y(g) (y, its conjugate and one product).
# With 64 KiB the traced peak of a 1608-g call is within 1.35 times that of
# a 201-g call at n_side 3 and 4; at 128 KiB the 1608-g basis sweep at
# n_side 3 peaked 1.65 times higher.
G_BLOCK_BYTES = 2 ** 16
# engines kept by get_engine, and realizations they share: above the 20
# seeds a two-stage preset revisits, so its second sweep finds every
# engine.  An engine holds about 72 KB (basis message) or 84 KB (Bell) at
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


def _check_beta(beta) -> None:
    """beta, a scalar or an array, must be finite and nonnegative."""
    beta = np.asarray(beta, dtype=float)
    if not np.isfinite(beta).all():
        raise ConfigError("beta must be finite")
    if (beta < 0).any():
        raise ConfigError("beta must be nonnegative")


def _beta_axis(beta) -> np.ndarray:
    """A scalar or 1-D beta as a checked 1-D float array."""
    beta = np.asarray(beta, dtype=float)
    if beta.ndim > 1 or beta.size == 0:
        raise ConfigError("beta must be a scalar or a nonempty 1-D array")
    _check_beta(beta)
    return beta.reshape(-1)


def _check_step_counts(t) -> None:
    """Kicked-Ising evolution takes nonnegative integer step counts; t is
    a scalar or an array of them."""
    t = np.asarray(t, dtype=float)
    if np.abs(t - np.round(t)).max() > 1e-9:
        raise ConfigError("tfim evolution takes integer step counts")
    if (np.round(t) < 0).any():
        raise ConfigError("negative step count")


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

    def levels(self) -> tuple:
        """(p, columns) per distinct eigenvalue p, ascending, where
        basis[:, columns] spans level p.  hermitian_eig sorts the
        eigenvalues, so every level's columns are contiguous; this is
        checked, not assumed."""
        values = self.eigenvalues
        if (np.diff(values) < 0).any():
            raise qop.QopError("size eigenvalues are not in ascending order")
        levels, starts = np.unique(values, return_index=True)
        stops = np.append(starts[1:], len(values))
        return tuple((int(p), slice(int(a), int(b)))
                     for p, a, b in zip(levels, starts, stops))

    def projectors(self) -> np.ndarray:
        """Spectral projectors Pi_p = B_p B_p^dagger, one per level,
        shape (L, d, d): exp(i g upsilon) = sum_p exp(i g p) Pi_p."""
        return np.stack([self.basis[:, cols] @ self.basis[:, cols].conj().T
                         for _, cols in self.levels()])

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
    modes = tuple(sorted(set(int(m) for m in modes)))
    if not modes:
        raise qop.QopError("size operator needs a nonempty mode set")
    if any(not 0 <= m < register.n_majorana for m in modes):
        raise qop.QopError("size mode index outside the register")
    return _size_operator_cached(register.n_side, modes)


@dataclass(frozen=True)
class InsertOperator:
    """Unitary encoding the message qubit(s) into the left block."""

    matrix: np.ndarray = field(repr=False)


def _fermionic_swap(register: layout.RegisterLayout, msg_site: int, left_site: int) -> np.ndarray:
    """SWAP whose left-side Pauli factors are replaced by their Majorana
    realizations, which attach a Z string over the remaining left qubits."""
    n = register.n_qubits
    k = left_site - register.n_message
    string = np.eye(2 ** n, dtype=complex)
    for j in range(k + 1, register.n_side):
        string = string @ qop.pauli_on(n, register.n_message + j, "Z")
    xm, ym, zm = (qop.pauli_on(n, msg_site, p) for p in "XYZ")
    xl, yl, zl = (qop.pauli_on(n, left_site, p) for p in "XYZ")
    return 0.5 * (np.eye(2 ** n) + xm @ xl @ string + ym @ yl @ string + zm @ zl)


def build_insert(cfg: ProtocolConfig) -> InsertOperator:
    """INSERT as a product of message-to-left swaps in circuit order."""
    cfg.validate()
    reg = cfg.register
    pairs = cfg.swap_site_pairs()
    if len({s for p in pairs for s in p}) < 2 * len(pairs):
        raise ConfigError("swap site collision")
    mat = np.eye(reg.dim, dtype=complex)
    for (a, b) in pairs:
        if cfg.fermionic_insert:
            step = _fermionic_swap(reg, a, b)
        else:
            step = qop.swap_matrix(reg.n_qubits, a, b)
        mat = step @ mat
    return InsertOperator(matrix=mat)


def _message_left_factor(matrix: np.ndarray, register: layout.RegisterLayout) -> np.ndarray:
    """The factor F on the message and left sites with matrix = F (x) I_right
    exactly, shape (2^n_msg 2^n_side, 2^n_msg 2^n_side); raises when the
    matrix acts on a right site."""
    d = 2 ** register.n_side
    md = register.dim // d
    factor = np.ascontiguousarray(np.asarray(matrix).reshape(md, d, md, d)[:, 0, :, 0])
    if not np.array_equal(qop.kron(factor, np.eye(d)), matrix):
        raise qop.QopError("INSERT does not act on the message and left sites alone")
    return factor


@lru_cache(maxsize=None)
def _shared_insert_factor(message: str, swap_variant: str, n_side: int,
                          fermionic_insert: bool) -> np.ndarray:
    """The factor F on the message and left sites of build_insert for one
    register geometry, read-only and built once; INSERT = F (x) I_right is
    checked here, and the dense INSERT is not kept."""
    cfg = ProtocolConfig(message=message, swap_variant=swap_variant,
                         n_side=n_side, fermionic_insert=fermionic_insert)
    factor = _message_left_factor(build_insert(cfg).matrix, cfg.register)
    factor.setflags(write=False)
    return factor


@lru_cache(maxsize=ENGINE_CACHE_SIZE)
def _realization(model: str, seed: int, j_scale: float, n_side: int) -> tuple:
    """(couplings, eig_left, eig_right) of one disorder realization, with
    read-only eigensystems: the SYK coupling table (None for the kicked
    Ising baseline) and the side eigensystems (the Floquet quasi-energies
    for the baseline).  Engines that differ only in message, swap variant
    or insert share it."""
    couplings = None
    if model == "syk":
        couplings = models.sample_syk_couplings(2 * n_side, 4, j_scale, seed)
        eig_left = qop.hermitian_eig(models.build_syk_side_matrix(couplings, "left", n_side))
        eig_right = qop.hermitian_eig(models.build_syk_side_matrix(couplings, "right", n_side))
    else:
        params = models.TfimParams.sample(n_side, seed)
        ev, vec = models.floquet_effective_spectrum(models.build_tfim_floquet(params))
        # the right factor runs the same chain on the mirrored sites
        eig_left = qop.EigenSystem(values=ev, vectors=vec)
        eig_right = qop.EigenSystem(values=ev, vectors=vec[layout.mirror_index(n_side)])
    for eig in (eig_left, eig_right):
        eig.values.setflags(write=False)
        eig.vectors.setflags(write=False)
    return couplings, eig_left, eig_right


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
    """Staged, cached evaluation of the protocol for one realization.

    The realization stage (couplings and side eigensystems, shared with
    the engines of the same (model, seed, j_scale, n_side); the size
    levels; the message (x) left factor of INSERT, shared per register
    geometry) is looked up or built here; the tensors derived from
    `eig_left`/`eig_right` are built from them on first use.  The beta
    stages (the stacks of K(beta) = V_L^dagger T V_R^* and of the diagonal
    thermal weights) are built for a call's stack of betas and keep their
    latest value, which the call's chunks revisit.  Nothing with a t or g
    axis is kept: every metric takes a whole beta array, a whole t array
    and a whole g array, evaluates the (beta, t) rows in chunks of at most
    BATCH_BYTES (see `_chunk`) and reads its value from the readout
    density rho (`finish` with a reading).  In the level order (the g
    sweeps) rho comes from QR-compressed readout coordinates y(g) =
    R phi(g), a group of (beta, t) rows and a block of about G_BLOCK_BYTES
    of y(g) at a time, and no final state is built; the Gram form of the
    same sum is not used, since at large beta it loses eps/norm^2 where the
    QR form keeps eps/norm (see `_compressed_readout`).

    The t stage works in the side eigenbases V_L, V_R and the g stage in
    the order the call's row and g counts select (see the module
    docstring).  An engine holds 2^n_side-sized arrays, the INSERT factor
    in its left eigenbasis and, from its first g stage, the 4^n_side-square
    C: 72 KB (basis message) and 84 KB (Bell) at n_side 3, 1.03 MB and
    1.08 MB at n_side 4.  The INSERT factor and the size eigenbasis are
    shared per register geometry.
    """

    def __init__(self, cfg: ProtocolConfig):
        cfg.validate()
        self.cfg = cfg
        self.reg = cfg.register
        self.couplings, self.eig_left, self.eig_right = _realization(
            cfg.model, cfg.seed, cfg.j_scale, cfg.n_side)
        self.size = build_size_operator(self.reg, cfg.resolved_size_modes())
        self._insert_factor = _shared_insert_factor(
            cfg.message, cfg.swap_variant, cfg.n_side, cfg.fermionic_insert)
        self.readout = cfg.resolved_readout()
        # exp(i g upsilon) = sum_p exp(i g p) Pi_p over the few distinct size
        # levels p
        levels = self.size.levels()
        self._levels = np.array([p for p, _ in levels])
        self._level_columns = tuple(cols for _, cols in levels)
        self._column_levels = np.concatenate(
            [np.full(cols.stop - cols.start, p) for p, cols in levels])
        self._latest: dict = {}  # beta stage name -> (beta, value)

    @cached_property
    def _insert_left(self) -> np.ndarray:
        """F~ = (I (x) V_L)^dagger F (I (x) V_L), the INSERT factor in the left
        eigenbasis, laid out (input message, (output message, output
        eigenvector), input eigenvector) as a (2^n_msg, 2^n_msg 4^n_side)
        matrix, so that messages @ it is INSERT on each message."""
        m = 2 ** self.reg.n_message
        d = 2 ** self.reg.n_side
        v = self.eig_left.vectors
        # I (x) V_L on the input index, then its adjoint on the output index
        factor = (self._insert_factor.reshape(-1, d) @ v).reshape(m, d, m * d)
        factor = (v.conj().T @ factor).reshape(m, d, m, d)
        return np.ascontiguousarray(factor.transpose(2, 0, 1, 3)).reshape(m, -1)

    def _cached(self, stage: str, key, build):
        """The value of a stage at key, rebuilt by build() when the key
        differs from the stage's latest one."""
        latest = self._latest.get(stage)
        if latest is None or latest[0] != key:
            latest = self._latest[stage] = (key, build())
        return latest[1]

    # -- beta stage -------------------------------------------------------
    # Each stage takes a 1-D stack of n_b checked betas and keeps the value
    # of its latest stack, which a call's chunks revisit.
    def tfd_vector(self, beta: float) -> np.ndarray:
        """Thermofield double at beta from the left eigensystem."""
        return tfd.build_tfd(self.eig_left, beta, self.reg)

    def _tfd_eigen(self, betas: np.ndarray) -> np.ndarray:
        """K(beta) = V_L^dagger T V_R^* for every beta of the stack: the
        thermofield double's coefficients over (left eigenvector, right
        eigenvector), shape (n_b, 2^n_side, 2^n_side)."""
        def build():
            d = 2 ** self.reg.n_side
            k = np.stack([self.eig_left.vectors.conj().T @ self.tfd_vector(beta).reshape(d, d)
                          @ self.eig_right.vectors.conj() for beta in betas.tolist()])
            k.setflags(write=False)
            return k
        return self._cached("tfd_eigen", tuple(betas.tolist()), build)

    def thermal_weight_right(self, betas: np.ndarray) -> np.ndarray:
        """W_R(beta) = exp(-beta (H_R - E_min)/2) in the right eigenbasis
        for every beta of the stack: its diagonal, one weight per right
        eigenvector, shape (n_b, 2^n_side)."""
        def build():
            e = self.eig_right.values
            weight = np.exp(-0.5 * betas[:, None] * (e - e.min()))
            weight.setflags(write=False)
            return weight
        return self._cached("weight", tuple(betas.tolist()), build)

    # -- t stage ----------------------------------------------------------
    # The public entry points (the curves, arbitrary_fidelity, final_state)
    # check beta once with _beta_axis and t once with _t_axis, before any
    # stage is built; the stages below take the checked values.
    def _t_axis(self, t) -> np.ndarray:
        """A scalar or 1-D t as a checked 1-D float array."""
        t = np.asarray(t, dtype=float)
        if t.ndim > 1 or t.size == 0:
            raise ConfigError("t must be a scalar or a nonempty 1-D array")
        t = t.reshape(-1)
        if not np.isfinite(t).all():
            raise ConfigError("t must be finite")
        if self.cfg.model == "tfim":
            _check_step_counts(t)
            t = np.round(t)
        return t

    def side_evolution(self, t_values: np.ndarray, side: str) -> np.ndarray:
        """Forward evolution exp(-i H t) on the "left" or "right" factor in
        its eigenbasis: the phases exp(-i E t), shape (n_t, 2^n_side); for
        the kicked-Ising model t counts Floquet periods."""
        eig = self.eig_left if side == "left" else self.eig_right
        return np.exp(-1j * t_values[:, None] * eig.values)

    def message_vector(self) -> np.ndarray:
        """The Bell pair, or |0> for both single-qubit messages: arbitrary
        amplitudes reach only arbitrary_fidelity, as get_engine assumes."""
        if self.cfg.message == "bell_phi_plus":
            v = np.zeros(4, dtype=complex)
            v[0] = v[3] = 1 / math.sqrt(2)
            return v
        return np.array([1, 0], dtype=complex)

    # -- pipeline ---------------------------------------------------------
    def dressed_state(self, msgs, betas, t_values: np.ndarray) -> np.ndarray:
        """Everything left of the coupling, U_L INSERT U_L^dagger |m>|TFD>,
        in the side eigenbases: each row is indexed by (left eigenvector,
        right eigenvector).

        `msgs` is one message vector or a stack (n_in, 2^n_msg) of them and
        `betas` one beta or a 1-D stack of n_b; the result has shape
        (n_b n_t, n_in, 2^n_msg, 4^n_side), its leading axis (beta, t) with
        beta outer.
        """
        d = 2 ** self.reg.n_side
        m = 2 ** self.reg.n_message
        msgs = np.asarray(msgs, dtype=complex).reshape(-1, m)
        k = self._tfd_eigen(np.reshape(betas, -1))
        phases = self.side_evolution(t_values, "left")
        n_b, n_t, n_in = len(k), len(phases), len(msgs)
        # U_L^dagger on the TFD's left index: exp(+i E_a t) K[beta, a, k],
        # laid out (a, (beta, t, k))
        back = k.transpose(1, 0, 2)[:, :, None, :] * phases.T.conj()[:, None, :, None]
        # INSERT on each message, then on every (beta, t) at once: rows
        # (input, message, a'), columns (beta, t, k)
        ins = (msgs @ self._insert_left).reshape(n_in * m * d, d)
        psi = (ins @ back.reshape(d, -1)).reshape(n_in, m, d, n_b, n_t, d)
        # U_L on the left index, moving (beta, t) to the front
        out = np.empty((n_b, n_t, n_in, m, d, d), dtype=complex)
        np.multiply(psi.transpose(3, 4, 0, 1, 2, 5), phases[:, None, None, :, None], out=out)
        return out.reshape(n_b * n_t, n_in, m, d * d)

    @cached_property
    def _to_size(self) -> np.ndarray:
        """C = (V_L (x) V_R)^T B^*, shape (4^n_side, 4^n_side): a row over the
        side eigenbases (a, k') times C is the row of its size-eigenbasis
        coefficients."""
        d = 2 ** self.reg.n_side
        conj = self.size.basis.conj().reshape(d, d, -1)
        # V_R^T on the right-site index, then V_L^T on the left-site index
        out = (self.eig_right.vectors.T @ conj).reshape(d, -1)
        return (self.eig_left.vectors.T @ out).reshape(d * d, -1)

    def _right_eigen(self, sites: np.ndarray) -> np.ndarray:
        """Rows over (left site, right site) to rows over (left site, right
        eigenvector k): V_R^* on the right index."""
        d = 2 ** self.reg.n_side
        return (sites.reshape(-1, d) @ self.eig_right.vectors.conj()).reshape(sites.shape)

    def _coupling_order(self, n_rows: int, n_g: int) -> str:
        """The order in which finish applies exp(i g upsilon) to n_rows rows
        for n_g values of g (see the module docstring): "levels" for more
        than L/2 values of g (which finish takes only with a reading, and
        the phases order without one); else "maps" when the rows outnumber
        n_g 4^n_side (building a map is one 4^n_side-square product, about
        what 4^n_side rows cost through the size eigenbasis), and "phases"
        otherwise."""
        if 2 * n_g > len(self._levels):
            return "levels"
        return "maps" if n_rows > n_g * 4 ** self.reg.n_side else "phases"

    def _right_stage(self, psi: np.ndarray, right: np.ndarray) -> np.ndarray:
        """W_R(beta) U_R(t) on (lead, n_bt, rows, k) states over the right
        eigenbasis: one diagonal multiply by `right` (n_bt, 2^n_side), in
        place, then V_R^T back to the right sites."""
        np.multiply(psi, right[:, None, :], out=psi)
        return (psi.reshape(-1, psi.shape[-1]) @ self.eig_right.vectors.T).reshape(psi.shape)

    def _g_block(self, n_in: int, n_g: int) -> tuple:
        """(rows, values of g) per block of the level order's g stage, one
        block of the compressed coordinates y(g) of n_in inputs at a time.
        One (beta, t) row's y(g) takes 16 n_in 2^k k_R bytes per g for k
        readout sites; its n_g values of g are cut into equal blocks, as
        many as G_BLOCK_BYTES goes into their total, rounded (at least
        one), so a block holds at most 1.5 G_BLOCK_BYTES of y(g) and a grid
        a little longer than one block is not split into a full block and a
        short one.  Rows whose whole g axis takes at most two thirds of
        G_BLOCK_BYTES share a block, as many as G_BLOCK_BYTES holds,
        rounded."""
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

    def _readout_matrix(self, rows: np.ndarray, right: np.ndarray, n_in: int) -> np.ndarray:
        """The level components Pi_p x of the dressed `rows` through the
        right stage `right` (n_bt, 2^n_side), laid out as one matrix per
        (beta, t), A = (traced sites) x (input, readout sites, level), shape
        (n_bt, dim / 2^k, n_in 2^k L) for k readout sites.  Only A
        outlives the call, so the level components are dropped before the
        QR of A copies it."""
        n_bt, d, block = len(right), right.shape[1], rows.shape[1]
        basis = self.size.basis
        coeffs = rows @ self._to_size
        parts = np.empty((len(self._levels), len(rows), block), dtype=complex)
        for p, cols in enumerate(self._level_columns):
            np.matmul(coeffs[:, cols], basis[:, cols].T, out=parts[p])
        del coeffs
        parts = self._right_eigen(parts).reshape(len(self._levels), n_bt, -1, d)
        parts = self._right_stage(parts, right).reshape(len(parts), n_bt, n_in, -1)
        n = self.reg.n_qubits
        traced = [s for s in range(n) if s not in self.readout]
        axes = ([1] + [3 + s for s in traced] + [2] + [3 + s for s in self.readout]
                + [0])
        a = parts.reshape(parts.shape[:3] + (2,) * n).transpose(axes)
        return a.reshape(n_bt, 2 ** len(traced), -1)

    def finish(self, dressed: np.ndarray, betas, g_values, t_values: np.ndarray,
               reading=None) -> np.ndarray:
        """Coupling phases, right evolution and thermal weight for every
        (beta, t, g).

        `dressed` is the (n_bt, n_in, 2^n_msg, 4^n_side) output of
        dressed_state at the same betas and t_values, with n_bt = n_b n_t
        (beta, t) rows, beta outer.  Without `reading` the result is the
        unnormalized final states, shape (n_bt, n_g, n_in, dim) in the
        computational basis, from the phases or maps order.  With it,
        reading maps the unnormalized readout densities of n_s of the rows
        and a run of n_r values of g, shape (n_s, n_r, n_in 2^k, n_in 2^k)
        over (input, readout sites) for k readout sites, to an array with
        leading axes (n_s, n_r), and the result is those arrays joined over
        the rows and g.  The level order then takes the rows in groups whose
        level components fit G_BLOCK_BYTES, reads the densities off each
        group's compressed coordinates one block of _g_block(n_in, n_g) at
        a time, and builds no final state; the other orders read all rows
        and values of g at once.
        """
        g = np.asarray(g_values, dtype=float).reshape(-1)
        if not np.isfinite(g).all():
            raise ConfigError("g must be finite")
        betas = np.reshape(betas, -1)
        n_bt, n_in, m, block = dressed.shape
        d = 2 ** self.reg.n_side
        # W_R(beta) U_R(t) per (beta, t) row
        right = self.side_evolution(t_values, "right")
        if self.cfg.thermal_readout and betas.any():
            right = right * self.thermal_weight_right(betas)[:, None, :]
        right = np.broadcast_to(right, (len(betas),) + right.shape[-2:]).reshape(n_bt, d)
        rows = dressed.reshape(-1, block)
        basis = self.size.basis
        order = self._coupling_order(len(rows), len(g))
        if order == "levels" and reading is not None:
            # the (beta, t) rows in groups whose level components fit
            # G_BLOCK_BYTES, each through its own QR and g stage
            per_row = n_in * m
            group = max(1, G_BLOCK_BYTES // (16 * len(self._levels) * per_row * block))
            out = [self._compressed_readout(
                np.linalg.qr(self._readout_matrix(rows[i * per_row:(i + group) * per_row],
                                                  right[i:i + group], n_in), mode="r"),
                n_in, g, reading) for i in range(0, n_bt, group)]
            return out[0] if len(out) == 1 else np.concatenate(out)
        # exp(i g upsilon) is the phase exp(i g p) on each size eigenvector
        phases = np.exp(1j * g[:, None, None] * self._column_levels)
        if order == "maps":
            psi = rows @ self._right_eigen((self._to_size * phases) @ basis.T)
        else:
            psi = self._right_eigen(((rows @ self._to_size) * phases) @ basis.T)
        psi = self._right_stage(psi.reshape(len(g), n_bt, -1, d), right)
        if reading is None:
            return psi.reshape(len(g), n_bt, n_in, -1).swapaxes(0, 1)
        # the input index as leading qubits of one state per (beta, t, g)
        extra = n_in.bit_length() - 1
        if n_in != 1 << extra:
            raise ConfigError("a reading needs a power-of-two number of inputs")
        psi = psi.reshape(len(g), n_bt, -1).swapaxes(0, 1)
        keep = list(range(extra)) + [s + extra for s in self.readout]
        return reading(qop.reduced_density(psi, self.reg.n_qubits + extra, keep))

    def _compressed_readout(self, r: np.ndarray, n_in: int, g: np.ndarray,
                            reading) -> np.ndarray:
        """reading over the g axis, block by block (_g_block), from the R
        factors `r` (n_bt, k_R, n_in 2^k L) of the level components of n_in
        inputs, with k_R = min(dim / 2^k, n_in 2^k L) for k readout sites.

        For one (beta, t) the final states at g, laid out (traced sites) x
        (input, readout sites), are sum_p exp(i g p) A_p = Q R phi(g) with
        A = QR (`_readout_matrix`) and phi_p(g) = exp(i g p).  Q is
        orthonormal, so the readout densities rho(g)[r, s] = sum_j y_rj
        y*_sj are sums over the k_R coordinates y(g) = R phi(g) alone, and
        no final state is built.  |R phi| = |A phi| and Householder QR is backward stable,
        so this keeps the direct sum's accuracy, about eps/norm relative
        for a weighted final state of norm `norm`.  The Gram form
        phi^dagger (A^dagger A) phi, or any sum_pq exp(i g (p - q)) M_pq,
        is not used: at large beta the state is far smaller than its O(1)
        level components (norm about 2e-6 at beta = 100), and the Gram
        form loses eps/norm^2 instead (about 5e-5 there).
        """
        width = n_in * 2 ** len(self.readout)
        # rows (coordinate j, input and readout value c), columns level p
        r = r.reshape(len(r), -1, len(self._levels))
        z = np.exp(1j * g)
        n_rows, step = self._g_block(n_in, len(g))
        out = []
        for i in range(0, len(g), step):
            phases = self._level_phases(z[i:i + step])
            out.append(np.concatenate([
                reading(_block_densities(r[j:j + n_rows], phases, width))
                for j in range(0, len(r), n_rows)]))
        return np.concatenate(out, axis=1)

    def final_state(self, beta: float | None = None, g: float | None = None,
                    t: float | None = None) -> np.ndarray:
        cfg = self.cfg
        beta = cfg.beta if beta is None else beta
        g = cfg.g if g is None else g
        _check_beta(beta)
        t_values = self._t_axis(cfg.t if t is None else t)
        dressed = self.dressed_state(self.message_vector(), beta, t_values)
        psi = self.finish(dressed, beta, (g,), t_values)[0, 0, 0]
        return psi * (1.0 / np.linalg.norm(psi))

    def _chunk(self, n_t: int, n_in: int, n_g: int) -> tuple:
        """(betas, t values) per chunk of _curve for n_in inputs and n_g
        values of g.  What a chunk holds for all its (beta, t) rows at once
        is its dressed state, 4^n_side amplitudes per row, input and
        message index, and in the maps and phases orders its final states,
        n_g times as many (the level order takes the rows a group at a time,
        see finish).  A chunk takes as many whole betas as fit in
        BATCH_BYTES of these; only when one beta's n_t rows do not fit is
        its t axis cut, one beta per chunk."""
        per_row = 1 if 2 * n_g > len(self._levels) else n_g
        row_bytes = 16 * n_in * 2 ** self.reg.n_message * 4 ** self.reg.n_side * per_row
        rows = BATCH_BYTES // row_bytes
        if rows >= n_t:
            return rows // n_t, n_t
        return 1, max(1, rows)

    def _curve(self, beta, t, g_values, msgs, reading) -> np.ndarray:
        """reading of the inputs `msgs` per (beta, t, g), joined to
        np.shape(beta) + np.shape(t) + trailing, in the chunks of _chunk,
        after beta and t are checked."""
        betas, t_values = _beta_axis(beta), self._t_axis(t)
        msgs = np.asarray(msgs, dtype=complex).reshape(-1, 2 ** self.reg.n_message)
        b_step, t_step = self._chunk(len(t_values), len(msgs), np.size(g_values))
        # (beta, t) rows in order: several betas per chunk, or runs of t
        # within one beta
        chunks = []
        for i in range(0, len(betas), b_step):
            for j in range(0, len(t_values), t_step):
                b_chunk, t_chunk = betas[i:i + b_step], t_values[j:j + t_step]
                # not bound to a name, so no chunk's dressed state outlives it
                chunks.append(self.finish(self.dressed_state(msgs, b_chunk, t_chunk),
                                          b_chunk, g_values, t_chunk, reading=reading))
        out = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        return out.reshape(np.shape(beta) + np.shape(t) + out.shape[1:])

    # -- metrics ----------------------------------------------------------
    # Each metric is read from the unnormalized readout density rho over
    # (input, readout sites) that finish hands its reading, in every
    # coupling order; basis_z_value and bell_value read it off final
    # states through qop.reduced_density.
    def _readout_density(self, psi: np.ndarray) -> np.ndarray:
        return qop.reduced_density(psi, self.reg.n_qubits, list(self.readout))

    def basis_z_value(self, psi: np.ndarray):
        """<Z> on the readout site; a float for one state, an array over
        the leading axes for a stack of states."""
        values = _z_reading(self._readout_density(np.atleast_2d(psi)))
        return float(values[0]) if np.ndim(psi) == 1 else values

    def bell_value(self, psi: np.ndarray):
        """Stabilizer fidelity of the readout pair; float or array as
        basis_z_value."""
        return _bell_reading(self._readout_density(psi))

    def curve_basis_z(self, beta, t, g_values) -> np.ndarray:
        """<Z> per (beta, t, g), shape np.shape(beta) + np.shape(t) + (n_g,)
        for a scalar or 1-D beta and t."""
        return self._curve(beta, t, g_values, self.message_vector(), _z_reading)

    def curve_bell(self, beta, t, g_values) -> np.ndarray:
        """Bell stabilizer fidelity per (beta, t, g), shape as
        curve_basis_z."""
        return self._curve(beta, t, g_values, self.message_vector(), _bell_reading)

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
            overlap = r @ uu.T
            # the branch blocks traced over the readout site: (a, b)
            r = r.reshape(-1, 2, 2, 2, 2)
            norm2 = (r[:, :, 0, :, 0] + r[:, :, 1, :, 1]).reshape(-1, 4) @ cc.T
            return (overlap / norm2).real.reshape(lead + (-1,))
        return reading

    def arbitrary_fidelity(self, beta, t, g_values, messages) -> np.ndarray:
        """<m| rho_out(m) |m> for every (beta, t, g) and every message m =
        (alpha, beta_msg) in `messages`; shape np.shape(beta) + np.shape(t)
        + (n_g, len(messages)).

        rho_out(m) is assembled from the two basis-input branches, so any
        number of messages costs one protocol run per branch.
        """
        return self._curve(beta, t, g_values, _BRANCH_INPUTS,
                           self._fidelity_reading(messages))

    def curve_arbitrary_avg(self, beta, t, g_values, n_s: int = 100,
                            seed: int = 0):
        """Mean and standard error over n_s Haar-random messages per
        (beta, t, g), each of shape as curve_basis_z.  Both are taken per
        g block, so no (beta, t, g, message) array is held."""
        if n_s < 1:
            raise ConfigError("need at least one sample")
        fidelity = self._fidelity_reading(_haar_samples(seed, n_s))

        def reading(r):
            values = fidelity(r)
            if n_s == 1:
                return np.stack((values[..., 0], np.zeros(values.shape[:-1])), axis=-1)
            return np.stack((values.mean(axis=-1),
                             values.std(axis=-1, ddof=1) / math.sqrt(n_s)), axis=-1)
        out = self._curve(beta, t, g_values, _BRANCH_INPUTS, reading)
        return out[..., 0], out[..., 1]


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


def _z_reading(rho: np.ndarray) -> np.ndarray:
    """<Z> on the readout site from unnormalized densities (..., 2, 2)."""
    up, down = rho[..., 0, 0].real, rho[..., 1, 1].real
    return (up - down) / (up + down)


def _bell_reading(rho: np.ndarray):
    """Stabilizer fidelity from unnormalized densities (..., 4, 4); the
    density-matrix checks run on every one."""
    trace = np.trace(rho, axis1=-2, axis2=-1).real
    return stabilizer_fidelity(rho / trace[..., None, None])


# the ProtocolConfig fields an Engine depends on, message first: all but
# the sweep axes and the message amplitudes
_ENGINE_FIELDS = ("message",) + tuple(
    f.name for f in fields(ProtocolConfig)
    if f.name not in ("message", "g", "t", "beta", "alpha", "beta_msg"))
_engine_key = attrgetter(*_ENGINE_FIELDS)


@lru_cache(maxsize=ENGINE_CACHE_SIZE)
def _engine_cached(key: tuple) -> Engine:
    structure = dict(zip(_ENGINE_FIELDS, key))
    t = 0.0 if structure["model"] == "tfim" else DEFAULT_T_SINGLE
    return Engine(ProtocolConfig(t=t, **structure))


def get_engine(cfg: ProtocolConfig) -> Engine:
    """Engine shared across calls with the same structural parameters.

    The sweep axes (g, t, beta) and the message amplitudes are not part
    of the key, so one cached engine serves a whole grid; the arbitrary
    message shares the engine of the basis message, since its fidelities
    are built from the two basis-input branches.
    """
    key = _engine_key(cfg)
    if key[0] == "arbitrary":
        key = ("basis_zero",) + key[1:]
    return _engine_cached(key)


def run_single_qubit(cfg: ProtocolConfig) -> float:
    """<Z> on the readout qubit for the |0> message; in [-1, 1]."""
    if cfg.message != "basis_zero":
        raise ConfigError("run_single_qubit expects the basis_zero message")
    cfg.validate()
    return float(get_engine(cfg).curve_basis_z(cfg.beta, cfg.t, (cfg.g,))[0])


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


def run_bell(cfg: ProtocolConfig) -> float:
    """Stabilizer fidelity of the readout pair for the Bell message."""
    if cfg.message != "bell_phi_plus" or cfg.swap_variant != "bell_sequential":
        raise ConfigError("run_bell expects the Bell message with sequential swaps")
    cfg.validate()
    return float(get_engine(cfg).curve_bell(cfg.beta, cfg.t, (cfg.g,))[0])


def run_single_qubit_arbitrary(cfg: ProtocolConfig) -> float:
    """Overlap of the input qubit with the teleported output state.

    The output density matrix is assembled from the two basis-input
    branches, so the fidelity of any superposition costs no extra
    protocol runs; value in [0, 1].
    """
    if cfg.message != "arbitrary":
        raise ConfigError("run_single_qubit_arbitrary expects the arbitrary message")
    cfg.validate()
    values = get_engine(cfg).arbitrary_fidelity(
        cfg.beta, cfg.t, (cfg.g,), [(cfg.alpha, cfg.beta_msg)])
    return float(values[0, 0])


def _bloch_message(u_phi: float, u_cos: float):
    """(alpha, beta) at azimuth 2 pi u_phi and cos(theta) = 2 u_cos - 1."""
    phi = 2 * math.pi * u_phi
    cos_theta = 2 * u_cos - 1
    theta = math.acos(cos_theta)
    return math.cos(theta / 2), math.sin(theta / 2) * complex(math.cos(phi), math.sin(phi))


def haar_qubit(seed: int, index: int):
    """Bloch-sphere uniform (alpha, beta) from the per-iteration substream."""
    return _bloch_message(models.split_uniform(seed, models.STREAM_HAAR, 2 * index),
                          models.split_uniform(seed, models.STREAM_HAAR, 2 * index + 1))


@lru_cache(maxsize=16)
def _haar_samples(seed: int, n_s: int) -> np.ndarray:
    """The first n_s Haar messages of a seed as a read-only (n_s, 2) array,
    from one draw of all 2 n_s uniforms; bit for bit haar_qubit(seed, i)
    for i < n_s (scalar math calls, not numpy ufuncs, whose last bit can
    differ)."""
    u = models.split_uniform(seed, models.STREAM_HAAR, np.arange(2 * n_s)).tolist()
    out = np.array([_bloch_message(u[2 * i], u[2 * i + 1]) for i in range(n_s)],
                   dtype=complex)
    out.setflags(write=False)
    return out


def run_arbitrary_avg(cfg: ProtocolConfig, n_s: int = 100, seed: int = 0):
    """Mean and standard error of the fidelity over Haar-random inputs;
    cfg carries a single-qubit message, whose amplitudes are not used."""
    if cfg.message == "bell_phi_plus":
        raise ConfigError("run_arbitrary_avg expects a single-qubit message")
    cfg.validate()
    mean, stderr = get_engine(cfg).curve_arbitrary_avg(cfg.beta, cfg.t, (cfg.g,), n_s, seed)
    return float(mean[0]), float(stderr[0])
