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

Every metric is evaluated by one staged pipeline in `Engine`:

* realization (Engine construction): the side eigensystems (for the
  kicked-Ising baseline the Floquet quasi-energies, which make integer t
  a step count), the size-operator eigenbasis B and the INSERT matrix
  (shared by every engine of one register geometry);
* beta (cached per beta): the thermofield double, built by
  `tfd.build_tfd` from the cached left eigensystem, and the thermal
  readout weight W_R(beta) = exp(-beta H_R/2);
* t (a batched axis): U_L and U_R for a whole t array from one
  exponentiated eigenvalue array exp(-i E t) and one stacked matmul;
  `Engine.dressed_state` (everything before the coupling, in the size
  eigenbasis) and the right-hand map (I (x) W_R(beta) U_R) B are stacks
  with a leading t axis;
* g (a batched axis): `Engine.finish` multiplies the dressed rows by the
  phases exp(i g n) for every g at once, maps every (t, g, message) row
  through the right-hand map of its t in one stacked matmul and
  normalizes each row.

The metrics reduce over the (t, g) rows, each row keeping its own
density-matrix checks.  The t axis is cut into chunks of at most
MAX_BATCH_ROWS (t, g) rows, which bounds the memory of any one call.  A
scalar t or a single g is a batch of one through the same code, so
`run_single_qubit`, `run_bell`, `run_arbitrary_avg` and the sweeps in
`analysis` share it.  The dense `wormhole_unitary` is the reference the
pipeline is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import layout, models, qop, tfd

DEFAULT_J_SCALE = 5.0
DEFAULT_T_SINGLE = 1.0
DEFAULT_T_BELL = 2.0
DEFAULT_TFIM_STEPS = 1
# most (t, g) rows one pipeline call evaluates at once: one default g grid
# and some headroom; the t axis is chunked to stay under it
MAX_BATCH_ROWS = 256

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
        for name in ("g", "t", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.beta < 0:
            raise ConfigError("beta must be nonnegative")
        reg = self.register
        if self.size_modes is not None:
            if not self.size_modes:
                raise ConfigError("size mode set must not be empty")
            if any(not 0 <= m < reg.n_majorana for m in self.size_modes):
                raise ConfigError("size mode outside the register")
        if self.readout_sites is not None:
            if any(s not in reg.right_sites for s in self.readout_sites):
                raise ConfigError("readout sites must lie in the right block")
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
    site_pairs: tuple = ()


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
    return InsertOperator(matrix=mat, site_pairs=pairs)


@lru_cache(maxsize=None)
def _shared_insert(message: str, swap_variant: str, n_side: int, fermionic_insert: bool):
    """build_insert for one register geometry, read-only and built once,
    with its gather form: INSERT is a signed permutation, so
    INSERT @ v = sign * v[source]."""
    ins = build_insert(ProtocolConfig(message=message, swap_variant=swap_variant,
                                      n_side=n_side, fermionic_insert=fermionic_insert))
    mat = ins.matrix
    source = np.argmax(np.abs(mat), axis=1)
    sign = mat[np.arange(len(mat)), source]
    if (np.count_nonzero(mat, axis=1) != 1).any() or (np.abs(sign) != 1).any():
        raise qop.QopError("INSERT is not a signed permutation")
    for a in (mat, source, sign):
        a.setflags(write=False)
    return ins, source, sign


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
    u_fwd_l = qop.evolve(h_left, t, -1)
    u_bwd_l = u_fwd_l.conj().T
    u_fwd_r = qop.evolve(h_right, t, -1)
    coupling = size.exp_ig_embedded(register, g)
    return u_fwd_r @ coupling @ u_fwd_l @ ins.matrix @ u_bwd_l


class Engine:
    """Staged, cached evaluation of the protocol for one realization.

    The realization stage (side eigensystems, the size-operator
    eigenbasis, the insert matrix) depends only on (model, seed, j_scale,
    variant geometry) and is built here.  The beta stages (TFD, thermal
    weight) are built on first use and keep their latest value, which is
    what a sweep revisits (beta is its outer loop).  Nothing with a t or g
    axis is kept: every metric takes a whole t array and a whole g array
    and evaluates them in chunks of at most MAX_BATCH_ROWS (t, g) rows.
    """

    def __init__(self, cfg: ProtocolConfig):
        cfg.validate()
        self.cfg = cfg
        self.reg = cfg.register
        n_side = cfg.n_side
        if cfg.model == "syk":
            self.couplings = models.sample_syk_couplings(
                2 * n_side, 4, cfg.j_scale, cfg.seed)
            a = models.build_syk_side_matrix(self.couplings, "left", n_side)
            b = models.build_syk_side_matrix(self.couplings, "right", n_side)
            self.eig_left = qop.hermitian_eig(a)
            self.eig_right = qop.hermitian_eig(b)
        else:
            params = models.TfimParams.sample(n_side, cfg.seed)
            ev, vec = models.floquet_effective_spectrum(models.build_tfim_floquet(params))
            # the right factor runs the same chain on the mirrored sites
            self.eig_left = qop.EigenSystem(values=ev, vectors=vec)
            self.eig_right = qop.EigenSystem(
                values=ev, vectors=vec[layout.mirror_index(n_side)])
        self.size = build_size_operator(self.reg, cfg.resolved_size_modes())
        self.insert, self._insert_source, self._insert_sign = _shared_insert(
            cfg.message, cfg.swap_variant, n_side, cfg.fermionic_insert)
        self.readout = cfg.resolved_readout()
        # the size spectrum has few distinct levels: one exp per level and g
        self._levels, self._level_index = np.unique(self.size.eigenvalues,
                                                    return_inverse=True)
        self._latest: dict = {}  # beta stage name -> (beta, value)

    def _cached(self, stage: str, key, build):
        """The value of a stage at key, rebuilt by build() when the key
        differs from the stage's latest one."""
        latest = self._latest.get(stage)
        if latest is None or latest[0] != key:
            latest = self._latest[stage] = (key, build())
        return latest[1]

    # -- beta stage -------------------------------------------------------
    def tfd_vector(self, beta: float) -> np.ndarray:
        """Thermofield double at beta from the cached left eigensystem."""
        def build():
            state = tfd.build_tfd(self.eig_left, beta, self.reg)
            state.setflags(write=False)
            return state
        return self._cached("tfd", beta, build)

    def thermal_weight_right(self, beta: float) -> np.ndarray:
        """W_R(beta) = exp(-beta (H_R - E_min)/2) on the right factor."""
        def build():
            e = self.eig_right.values
            w = np.exp(-0.5 * beta * (e - e.min()))
            weight = (self.eig_right.vectors * w) @ self.eig_right.vectors.conj().T
            weight.setflags(write=False)
            return weight
        return self._cached("weight", beta, build)

    # -- t stage ----------------------------------------------------------
    # The public entry points (the curves, arbitrary_fidelity,
    # branch_states, final_state) check t once with _t_axis; the stages
    # below take the checked 1-D array.
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
        """Forward evolution exp(-i H t) on the "left" or "right" factor for
        every t, shape (n_t, d, d); for the kicked-Ising model t counts
        Floquet periods."""
        eig = self.eig_left if side == "left" else self.eig_right
        phases = np.exp(-1j * t_values[:, None] * eig.values)
        return (eig.vectors * phases[:, None, :]) @ eig.vectors.conj().T

    def _right_map(self, beta: float, t_values: np.ndarray) -> np.ndarray:
        """(I (x) W_R(beta) U_R(t)) B per t, shape (n_t, 64, 64): from the
        size eigenbasis to the (thermally weighted) final state."""
        ur = self.side_evolution(t_values, "right")
        if self.cfg.thermal_readout and beta > 0:
            ur = self.thermal_weight_right(beta) @ ur
        # (I (x) A) B: A acts on the right-factor part of B's row index
        d = 2 ** self.reg.n_side
        basis = self.size.basis.reshape(d, d, -1)
        return (ur[:, None] @ basis[None]).reshape(len(ur), d * d, -1)

    def message_vector(self) -> np.ndarray:
        if self.cfg.message == "bell_phi_plus":
            v = np.zeros(4, dtype=complex)
            v[0] = v[3] = 1 / math.sqrt(2)
            return v
        if self.cfg.message == "arbitrary":
            return np.array([self.cfg.alpha, self.cfg.beta_msg], dtype=complex)
        return np.array([1, 0], dtype=complex)

    # -- pipeline ---------------------------------------------------------
    def dressed_state(self, msgs, beta: float, t_values: np.ndarray) -> np.ndarray:
        """Everything left of the coupling: insert between backward and
        forward left evolution, expressed in the size-operator eigenbasis.

        `msgs` is one message vector or a stack (n_in, 2^n_msg) of them;
        the result has shape (n_t, n_in, 2^n_msg, 64).
        """
        d = 2 ** self.reg.n_side
        m = 2 ** self.reg.n_message
        msgs = np.asarray(msgs, dtype=complex).reshape(-1, m)
        ul = self.side_evolution(t_values, "left")
        n_t, n_in = len(ul), len(msgs)
        # the backward left evolution acts on the TFD factor alone
        back = ul.conj().transpose(0, 2, 1) @ self.tfd_vector(beta).reshape(d, d)
        psi = msgs[None, :, :, None] * back.reshape(n_t, 1, 1, d * d)
        psi = psi.reshape(n_t * n_in, -1)[:, self._insert_source] * self._insert_sign
        psi = ul[:, None] @ psi.reshape(n_t, n_in * m, d, d)
        psi = psi.reshape(-1, d * d) @ self.size.basis.conj()
        return psi.reshape(n_t, n_in, m, d * d)

    def finish(self, dressed: np.ndarray, beta: float, g_values, t_values: np.ndarray,
               normalize: bool = True) -> np.ndarray:
        """Coupling phases, right evolution and thermal weight for every
        (t, g).

        `dressed` is the (n_t, n_in, 2^n_msg, 64) output of dressed_state
        at the same t_values; the result has shape (n_t, n_g, n_in, dim),
        each final state normalized unless normalize=False.
        """
        g = np.asarray(g_values, dtype=float).reshape(-1)
        if not (np.isfinite(g).all() and math.isfinite(beta)):
            raise ConfigError("g and beta must be finite")
        n_t, n_in, m, block = dressed.shape
        right = self._right_map(beta, t_values).transpose(0, 2, 1)
        # take, unlike [:, index], keeps the phases (and so the phased rows)
        # C-ordered, so the reshape below is a view and not a copy
        phases = np.exp(1j * g[:, None] * self._levels).take(self._level_index, axis=1)
        psi = (dressed.reshape(n_t, 1, -1, block) * phases[None, :, None, :]
               ).reshape(n_t, -1, block) @ right
        psi = psi.reshape(n_t, len(g), n_in, m * block)
        if normalize:
            psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
        return psi

    def final_state(self, beta: float | None = None, g: float | None = None,
                    t: float | None = None) -> np.ndarray:
        cfg = self.cfg
        beta = cfg.beta if beta is None else beta
        g = cfg.g if g is None else g
        t_values = self._t_axis(cfg.t if t is None else t)
        dressed = self.dressed_state(self.message_vector(), beta, t_values)
        return self.finish(dressed, beta, (g,), t_values)[0, 0, 0]

    def _branches(self, beta: float, t_values: np.ndarray, g_values) -> np.ndarray:
        dressed = self.dressed_state(np.eye(2, dtype=complex), beta, t_values)
        return self.finish(dressed, beta, g_values, t_values, normalize=False)

    def branch_states(self, beta: float, t, g_values) -> np.ndarray:
        """Unnormalized weighted final states for the |0> and |1> message
        inputs, shape np.shape(t) + (n_g, 2, dim)."""
        phi = self._branches(beta, self._t_axis(t), g_values)
        return phi.reshape(np.shape(t) + phi.shape[1:])

    def _over_t(self, t, g_values, evaluate) -> np.ndarray:
        """evaluate(t_chunk) over chunks of the t axis of at most
        MAX_BATCH_ROWS (t, g) rows, joined to np.shape(t) + trailing."""
        t_values = self._t_axis(t)
        step = max(1, MAX_BATCH_ROWS // max(1, np.size(g_values)))
        out = np.concatenate([evaluate(t_values[i:i + step])
                              for i in range(0, len(t_values), step)])
        return out.reshape(np.shape(t) + out.shape[1:])

    # -- metrics ----------------------------------------------------------
    def basis_z_value(self, psi: np.ndarray):
        """<Z> on the readout site; a float for one state, an array over
        the leading axes for a stack of states."""
        site = self.readout[0]
        z = 1.0 - 2.0 * (
            (np.arange(self.reg.dim) >> (self.reg.n_qubits - 1 - site)) & 1)
        values = (np.abs(np.atleast_2d(psi)) ** 2) @ z
        return float(values[0]) if np.ndim(psi) == 1 else values

    def bell_value(self, psi: np.ndarray):
        """Stabilizer fidelity of the readout pair; float or array as
        basis_z_value."""
        rho = qop.reduced_density(psi, self.reg.n_qubits, list(self.readout))
        return stabilizer_fidelity(rho)

    def _curve(self, beta: float, t, g_values, metric) -> np.ndarray:
        msg = self.message_vector()

        def evaluate(t_chunk):
            dressed = self.dressed_state(msg, beta, t_chunk)
            return metric(self.finish(dressed, beta, g_values, t_chunk)[:, :, 0])
        return self._over_t(t, g_values, evaluate)

    def curve_basis_z(self, beta: float, t, g_values) -> np.ndarray:
        """<Z> per (t, g), shape np.shape(t) + (n_g,)."""
        return self._curve(beta, t, g_values, self.basis_z_value)

    def curve_bell(self, beta: float, t, g_values) -> np.ndarray:
        """Bell stabilizer fidelity per (t, g), shape np.shape(t) + (n_g,)."""
        return self._curve(beta, t, g_values, self.bell_value)

    def arbitrary_fidelity(self, beta: float, t, g_values, messages) -> np.ndarray:
        """<m| rho_out(m) |m> for every (t, g) and every message m = (alpha,
        beta_msg) in `messages`; shape np.shape(t) + (n_g, len(messages)).

        rho_out(m) is assembled from the two basis-input branches, so any
        number of messages costs one protocol run per branch.
        """
        c = np.asarray(messages, dtype=complex).reshape(-1, 2)
        u = (c[:, :, None] * c.conj()[:, None, :]).reshape(-1, 4)  # c_a conj(c_i)

        def evaluate(t_chunk):
            phi = self._branches(beta, t_chunk, g_values)
            lead = phi.shape[:2]
            # the branch index as one extra leading qubit: blocks
            # r[row, (a, i), (b, j)] = Tr_rest |phi_a><phi_b| on the readout site
            r = qop.reduced_density(phi.reshape(lead[0] * lead[1], -1),
                                    self.reg.n_qubits + 1, [0, self.readout[0] + 1])
            overlap = np.einsum("gxy,sx,sy->gs", r, u, u.conj())
            norm2 = np.einsum("gaibi,sa,sb->gs", r.reshape(-1, 2, 2, 2, 2), c, c.conj())
            return (overlap / norm2).real.reshape(lead + (-1,))
        return self._over_t(t, g_values, evaluate)

    def curve_arbitrary_avg(self, beta: float, t, g_values, n_s: int = 100,
                            seed: int = 0):
        """Mean and standard error over n_s Haar-random messages per
        (t, g), each of shape np.shape(t) + (n_g,)."""
        if n_s < 1:
            raise ConfigError("need at least one sample")
        values = self.arbitrary_fidelity(beta, t, g_values, _haar_samples(seed, n_s))
        if n_s == 1:
            return values[..., 0], np.zeros(values.shape[:-1])
        return values.mean(axis=-1), values.std(axis=-1, ddof=1) / math.sqrt(n_s)


@lru_cache(maxsize=8)
def _engine_cached(key: tuple) -> Engine:
    return Engine(ProtocolConfig(**dict(key)))


def get_engine(cfg: ProtocolConfig) -> Engine:
    """Engine shared across calls with the same structural parameters.

    The sweep axes (g, t, beta) and the message amplitudes are
    canonicalized away so one cached engine serves a whole grid; the
    arbitrary message shares the engine of the basis message, since its
    fidelities are built from the two basis-input branches.
    """
    message = "basis_zero" if cfg.message == "arbitrary" else cfg.message
    base = replace(cfg, message=message, g=0.0,
                   t=0.0 if cfg.model == "tfim" else DEFAULT_T_SINGLE,
                   beta=0.0, alpha=1.0 + 0j, beta_msg=0.0 + 0j)
    key = tuple(sorted((k, v) for k, v in base.__dict__.items()))
    try:
        return _engine_cached(key)
    except TypeError:
        return Engine(base)


def run_single_qubit(cfg: ProtocolConfig) -> float:
    """<Z> on the readout qubit for the |0> message; in [-1, 1]."""
    if cfg.message != "basis_zero":
        raise ConfigError("run_single_qubit expects the basis_zero message")
    cfg.validate()
    return float(get_engine(cfg).curve_basis_z(cfg.beta, cfg.t, (cfg.g,))[0])


_STABILIZERS = tuple(qop.kron(p, p) for p in (qop.PAULI_X, qop.PAULI_Z, qop.PAULI_Y))


def stabilizer_fidelity(rho2: np.ndarray):
    """(1 + <XX> + <ZZ> + <YY>)/2 on a two-qubit density matrix.

    A stack of density matrices (..., 4, 4) gives an array of fidelities;
    every matrix in it must pass the density-matrix checks.
    """
    rho2 = np.asarray(rho2, dtype=complex)
    if rho2.shape[-2:] != (4, 4):
        raise qop.QopError("stabilizer fidelity needs a 4x4 density matrix")
    trace = np.trace(rho2, axis1=-2, axis2=-1)
    if np.any(np.abs(trace - 1.0) > 1e-8) or not qop.is_hermitian(rho2, 1e-8):
        raise qop.QopError("input is not a density matrix")
    val = 1.0
    for pp in _STABILIZERS:
        val = val + np.trace(rho2 @ pp, axis1=-2, axis2=-1).real
    val = 0.5 * val
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


def haar_qubit(seed: int, index: int):
    """Bloch-sphere uniform (alpha, beta) from the per-iteration substream."""
    u_phi = models.split_uniform(seed, models.STREAM_HAAR, 2 * index)
    u_cos = models.split_uniform(seed, models.STREAM_HAAR, 2 * index + 1)
    phi = 2 * math.pi * u_phi
    cos_theta = 2 * u_cos - 1
    theta = math.acos(cos_theta)
    return math.cos(theta / 2), math.sin(theta / 2) * complex(math.cos(phi), math.sin(phi))


@lru_cache(maxsize=16)
def _haar_samples(seed: int, n_s: int) -> np.ndarray:
    """The first n_s Haar messages of a seed as a read-only (n_s, 2) array."""
    out = np.array([haar_qubit(seed, i) for i in range(n_s)], dtype=complex)
    out.setflags(write=False)
    return out


def run_arbitrary_avg(cfg: ProtocolConfig, n_s: int = 100, seed: int = 0):
    """Mean and standard error of the fidelity over Haar-random inputs."""
    base = replace(cfg, message="arbitrary", alpha=1.0 + 0j, beta_msg=0.0 + 0j)
    base.validate()
    mean, stderr = get_engine(base).curve_arbitrary_avg(
        base.beta, base.t, (base.g,), n_s, seed)
    return float(mean[0]), float(stderr[0])


@dataclass(frozen=True)
class OverlapTable:
    """Term-by-term decomposition of a two-sided channel correlator.

    Each entry is one eigenstate-pair contribution; the sum of the whole
    table is the thermal correlator, so destructive interference between
    entries shows up directly as a vanishing coherent mean.
    """

    variant: str
    beta: float
    values: np.ndarray = field(repr=False)

    def coherent_mean(self) -> complex:
        return complex(self.values.mean())

    def coherent_sum(self) -> complex:
        return complex(self.values.sum())


def paired_right_basis(eig_left: qop.EigenSystem, n_side: int) -> np.ndarray:
    """Right-factor eigenbasis matched level-by-level to the left one.

    Column n is the right-side partner of left eigenvector n under the
    pair structure of the infinite-temperature state; the columns are
    eigenvectors of the right-side Hamiltonian built from the same
    couplings, with the degenerate/phase freedom fixed consistently.
    """
    d = 2 ** n_side
    m = layout.bell_vacuum(n_side).reshape(d, d)
    return math.sqrt(d) * (m.T @ eig_left.vectors.conj())


def overlap_coefficients(eig_left: qop.EigenSystem, variant: str, beta: float,
                         n_side: int = 3) -> OverlapTable:
    """Boltzmann-weighted eigenstate-pair overlap coefficients of a
    single-qubit variant ("delta01" or "delta02").

    With gL the first Majorana of the inserted left qubit and gR the
    (string-dressed) first Majorana of the readout partner qubit,

        C[n, m] = c_n c_m <n|gL|m> <n~|gR|m~>,

    where c_n = exp(-beta E_n/2)/sqrt(Z) and |n~> is the paired right
    eigenvector.  The table sums to the two-sided thermal correlator, so
    the matched variant keeps a coherent mean of unit scale while the
    mismatched one interferes destructively to ~0.  The single entries
    depend on the eigenvectors chosen inside a degenerate level; the
    coherent sum and mean do not.
    """
    if variant not in ("delta01", "delta02"):
        raise ConfigError(f"overlap table needs a single-qubit variant, got {variant!r}")
    c = tfd.boltzmann_weights(eig_left.values, beta)
    qubit = 0 if variant == "delta01" else 1
    g_left = layout.left_majorana_local(n_side, 2 * qubit)
    string = qop.kron_all([qop.PAULI_Z] * n_side)
    g_right = string @ layout.right_majorana_local(n_side, 0)
    v_pair = paired_right_basis(eig_left, n_side)
    a = eig_left.vectors.conj().T @ g_left @ eig_left.vectors
    b = v_pair.conj().T @ g_right @ v_pair
    values = np.outer(c, c) * a * b
    return OverlapTable(variant=variant, beta=beta, values=values)


def thermal_majorana_correlation(i: int, j: int, beta: float, h_side: np.ndarray,
                                 n_side: int = 3) -> complex:
    """Two-sided Majorana correlator in the thermofield double.

    <TFD(beta)| gL_i gR_j |TFD(beta)> computed on the doubled block; at
    beta = 0 the matched pair i = j has unit magnitude and mismatched
    pairs are suppressed.
    """
    reg = layout.RegisterLayout(n_message=1, n_side=n_side)
    state = tfd.build_tfd(h_side, beta, reg)
    op = layout.left_majorana_block(n_side, i) @ layout.right_majorana_block(n_side, j)
    return complex(qop.expectation(state, op))
