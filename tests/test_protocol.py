import itertools
import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from functools import lru_cache, partial

import numpy as np
import pytest
from scipy.linalg import eigh, expm, logm

from sykteleport import analysis, layout, models, protocol, qop, tfd

REG1 = layout.RegisterLayout(n_message=1, n_side=3)
REG2 = layout.RegisterLayout(n_message=2, n_side=3)

BELLS = {
    "phi_plus": np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
    "phi_minus": np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2),
    "psi_plus": np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
    "psi_minus": np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2),
}


class TestConfig:
    def test_variant_message_mismatch(self):
        with pytest.raises(protocol.ConfigError):
            protocol.ProtocolConfig(message="basis_zero",
                                    swap_variant="bell_sequential").validate()
        with pytest.raises(protocol.ConfigError):
            protocol.ProtocolConfig(message="bell_phi_plus",
                                    swap_variant="delta01").validate()

    def test_arbitrary_normalization(self):
        with pytest.raises(protocol.ConfigError):
            protocol.ProtocolConfig(message="arbitrary", alpha=1.0,
                                    beta_msg=1.0).validate()

    def test_readout_must_be_right_block(self):
        with pytest.raises(protocol.ConfigError):
            protocol.ProtocolConfig(readout_sites=(1,)).validate()

    def test_readout_sites_match_the_message(self):
        # one distinct right-block site per message qubit: two sites for a
        # one-qubit message would read a 4x4 density as a 2x2 one
        for cfg in (protocol.ProtocolConfig(readout_sites=(5, 6)),
                    protocol.ProtocolConfig(readout_sites=()),
                    protocol.ProtocolConfig(message="arbitrary", readout_sites=(5, 6)),
                    _bell_cfg(readout_sites=(7,)),
                    _bell_cfg(readout_sites=(5, 6, 7))):
            with pytest.raises(protocol.ConfigError, match="readout site"):
                cfg.validate()
        with pytest.raises(protocol.ConfigError, match="repeat"):
            _bell_cfg(readout_sites=(7, 7)).validate()
        protocol.ProtocolConfig(readout_sites=(5,)).validate()
        _bell_cfg(readout_sites=(6, 5)).validate()
        # the arbitrary message's engine is the basis message's, and its
        # lookup checks the sites too
        with pytest.raises(protocol.ConfigError, match="readout site"):
            protocol.get_engine(protocol.ProtocolConfig(
                message="arbitrary", readout_sites=(5, 6)))

    def test_size_modes_must_not_repeat(self):
        # the size operator counts each pair once, so a repeated mode would
        # run as if given once
        for modes in ((0, 0), (2, 1, 2)):
            with pytest.raises(protocol.ConfigError, match="size modes must not repeat"):
                protocol.ProtocolConfig(size_modes=modes).validate()
        protocol.ProtocolConfig(size_modes=(2, 1)).validate()

    def test_list_fields_are_config_errors(self):
        # the engine cache hashes these fields, and a list cannot be hashed
        for name, value in (("size_modes", [5]), ("readout_sites", [6])):
            with pytest.raises(protocol.ConfigError, match=f"{name} must be a tuple"):
                protocol.get_engine(protocol.ProtocolConfig(**{name: value}))

    def test_right_basis_must_be_paired(self):
        protocol.ProtocolConfig(right_basis="paired").validate()
        for bad in ("literal", "conjugate", "nope"):
            with pytest.raises(protocol.ConfigError, match="paired"):
                protocol.ProtocolConfig(right_basis=bad).validate()

    def test_seed_must_be_an_integer(self):
        # a float or bool seed would be drawn as int(seed)
        for bad in (1.5, 2.0, True, np.bool_(False), np.float64(1.0), "1"):
            with pytest.raises(protocol.ConfigError, match="seed must be an integer"):
                protocol.ProtocolConfig(seed=bad).validate()
            with pytest.raises(protocol.ConfigError, match="seed must be an integer"):
                protocol.run_arbitrary_avg(protocol.ProtocolConfig(seed=bad), 2)
        for seed in (3, np.int64(3), np.uint64(2 ** 63), -1, 2 ** 70):
            protocol.ProtocolConfig(seed=seed).validate()

    def test_tfim_integer_steps(self):
        with pytest.raises(protocol.ConfigError):
            protocol.ProtocolConfig(model="tfim", t=1.5).validate()

    def test_non_finite_axes_rejected(self):
        for name in ("g", "t", "beta"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(protocol.ConfigError, match="finite"):
                    protocol.ProtocolConfig(**{name: bad}).validate()

    def test_j_scale_must_be_finite_and_positive(self):
        # checked up front: a nan scale would otherwise surface from
        # hermitian_eig as a matrix that is "not Hermitian"
        for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
            cfg = protocol.ProtocolConfig(j_scale=bad)
            with pytest.raises(protocol.ConfigError, match="j_scale"):
                cfg.validate()
            with pytest.raises(protocol.ConfigError, match="j_scale"):
                protocol.get_engine(cfg)
        protocol.ProtocolConfig(j_scale=0.5).validate()

    def test_default_readout_is_partner_of_insertion(self):
        cfg = protocol.ProtocolConfig()
        reg = cfg.register
        assert cfg.resolved_readout() == (6,)
        # the readout site and left qubit 0 form a maximally entangled pair
        # of the pair vacuum (block sites count from the first left site)
        pair = [reg.left_site(0) - reg.n_message, 6 - reg.n_message]
        rho = qop.reduced_density(layout.bell_vacuum(3), 6, pair)
        assert abs(np.real(np.trace(rho @ rho)) - 1.0) <= 1e-10
        cfgb = protocol.ProtocolConfig(message="bell_phi_plus",
                                       swap_variant="bell_sequential")
        assert cfgb.resolved_readout() == (6, 7)


class TestSizeOperator:
    def test_occupation_counting(self):
        size = protocol.build_size_operator(REG1, modes=(0, 1, 2))
        hist = Counter(int(v) for v in size.eigenvalues)
        # 3 two-level modes on a 64-dim block: binomial pattern times 8
        assert hist == {0: 8, 1: 24, 2: 24, 3: 8}

    def test_integer_range(self):
        size = protocol.build_size_operator(REG1)
        assert size.modes == (0, 1, 2, 3, 4)
        assert size.eigenvalues.min() == 0
        assert size.eigenvalues.max() == len(size.modes)

    def test_two_pi_period_exact(self):
        size = protocol.build_size_operator(REG1)
        assert np.abs(size.exp_ig(2 * math.pi) - np.eye(64)).max() <= 1e-12

    def test_coupling_unitary(self):
        size = protocol.build_size_operator(REG1)
        u = size.exp_ig(1.234)
        assert np.abs(u @ u.conj().T - np.eye(64)).max() <= 1e-10

    def test_empty_modes_rejected(self):
        with pytest.raises(qop.QopError):
            protocol.build_size_operator(REG1, modes=())

    def test_repeated_modes_rejected(self):
        # the rule of ProtocolConfig.validate: a repeated mode is an error,
        # not a mode counted once
        for modes in ((0, 0), (1, 0, 1)):
            with pytest.raises(qop.QopError, match="repeat"):
                protocol.build_size_operator(REG1, modes=modes)
        # the order of distinct modes does not matter: one cached operator
        assert (protocol.build_size_operator(REG1, modes=(1, 0))
                is protocol.build_size_operator(REG1, modes=(0, 1)))
        assert protocol.build_size_operator(REG1, modes=(1, 0)).modes == (0, 1)


class TestInsert:
    def test_swap_moves_message(self):
        cfg = protocol.ProtocolConfig()
        ins = protocol.build_insert(cfg)
        rng = np.random.default_rng(0)
        msg = rng.normal(size=2) + 1j * rng.normal(size=2)
        msg /= np.linalg.norm(msg)
        rest = rng.normal(size=64) + 1j * rng.normal(size=64)
        rest /= np.linalg.norm(rest)
        psi = np.kron(msg, rest)
        out = ins.matrix @ psi
        # qubits 0 and 1 exchanged
        want = np.swapaxes(psi.reshape(2, 2, 32), 0, 1).reshape(-1)
        assert np.abs(out - want).max() <= 1e-12

    def test_involution(self):
        for variant in ("delta01", "delta02"):
            cfg = protocol.ProtocolConfig(swap_variant=variant)
            ins = protocol.build_insert(cfg)
            assert np.abs(ins.matrix @ ins.matrix - np.eye(REG1.dim)).max() <= 1e-12

    def test_bell_sequential_moves_pair(self):
        cfg = protocol.ProtocolConfig(message="bell_phi_plus",
                                      swap_variant="bell_sequential")
        ins = protocol.build_insert(cfg)
        # |Phi+> on the message pair, |0...0> elsewhere
        psi = np.zeros(REG2.dim, dtype=complex)
        phi = BELLS["phi_plus"]
        psi[: 4 << 6 : 1 << 6][[0, 3]] = phi[[0, 3]]
        out = ins.matrix @ psi
        # oracle: the pair must now occupy qubits 2 and 3
        want = np.zeros(REG2.dim, dtype=complex)
        for b0, b1 in ((0, 0), (1, 1)):
            idx = (b0 << 5) | (b1 << 4)
            want[idx] = 1 / math.sqrt(2)
        assert np.abs(out - want).max() <= 1e-12

    # the three swap variants at n_side 3 and 4
    GEOMETRIES = [dict(swap_variant=v, n_side=n) for n in (3, 4)
                  for v in ("delta01", "delta02")] + [
        dict(message="bell_phi_plus", swap_variant="bell_sequential", n_side=n)
        for n in (3, 4)]

    def test_plain_insert_is_swap_product(self):
        # the Pauli expansion of each swap is checked in test_qop; the
        # signed permutation has the bits of the dense product (compared as
        # integers, so that -0.0 differs from 0.0)
        for kw in self.GEOMETRIES:
            cfg = protocol.ProtocolConfig(**kw)
            want = _dense_insert_reference(cfg, qop.swap_matrix)
            got = protocol.build_insert(cfg).matrix
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_fermionic_insert_is_pauli_swap_product(self):
        for kw in self.GEOMETRIES:
            cfg = protocol.ProtocolConfig(fermionic_insert=True, **kw)
            want = _dense_insert_reference(cfg, partial(_fermionic_swap, cfg.register))
            got = protocol.build_insert(cfg).matrix
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_fermionic_insert_is_signed_swap(self):
        plain = protocol.build_insert(protocol.ProtocolConfig())
        ferm = protocol.build_insert(
            protocol.ProtocolConfig(fermionic_insert=True))
        m = ferm.matrix
        assert np.abs(m @ m.conj().T - np.eye(REG1.dim)).max() <= 1e-12
        assert qop.is_hermitian(m, 1e-12)
        assert np.abs(m @ m - np.eye(REG1.dim)).max() <= 1e-12
        # same permutation support, entries differing at most by sign
        assert np.abs(np.abs(m) - np.abs(plain.matrix)).max() <= 1e-12
        assert np.abs(m - plain.matrix).max() > 0.5


def _haar(n_s: int, seed: int = 0) -> np.ndarray:
    """The first n_s Haar messages of seed, as a sweep passes them to
    curve_arbitrary_avg."""
    return protocol.draw_haar_samples([seed], n_s)[0]


def _fidelities(eng, beta, t, g_values, messages) -> np.ndarray:
    """<m| rho_out(m) |m> per (beta, t, g) and message m, shape
    np.shape(beta) + np.shape(t) + (n_g, len(messages)): the reading that
    curve_arbitrary_avg averages, over the two basis-input branches."""
    return eng.finish(protocol._BRANCH_INPUTS, beta, g_values, t,
                      eng._fidelity_reading(messages))


def _fermionic_swap(register: layout.RegisterLayout, n_qubits: int, msg_site: int,
                    left_site: int) -> np.ndarray:
    """The fermionic SWAP on the first n_qubits sites as its Pauli product:
    the left-side Pauli factors are replaced by their Majorana realizations,
    which attach a Z string over the remaining left qubits."""
    k = left_site - register.n_message
    string = np.eye(2 ** n_qubits, dtype=complex)
    for j in range(k + 1, register.n_side):
        string = string @ qop.pauli_on(n_qubits, register.n_message + j, "Z")
    xm, ym, zm = (qop.pauli_on(n_qubits, msg_site, p) for p in "XYZ")
    xl, yl, zl = (qop.pauli_on(n_qubits, left_site, p) for p in "XYZ")
    return 0.5 * (np.eye(2 ** n_qubits) + xm @ xl @ string + ym @ yl @ string + zm @ zl)


def _dense_insert_reference(cfg, swap) -> np.ndarray:
    """INSERT as the dense product of swap(n, a, b) over the swap pairs in
    circuit order.  At n_side 3 the product runs on the full register; at
    n_side 4 on the message and left sites, and it is laid onto the
    diagonal blocks of I_right by assignment, since a kron multiplies -1 by
    0 into -0.0."""
    reg = cfg.register
    n = reg.n_qubits if cfg.n_side == 3 else reg.n_message + reg.n_side
    want = np.eye(2 ** n, dtype=complex)
    for a, b in cfg.swap_site_pairs():
        want = swap(n, a, b) @ want
    if n == reg.n_qubits:
        return want
    d = 2 ** reg.n_side
    full = np.zeros((2 ** n, d, 2 ** n, d), dtype=complex)
    for k in range(d):
        full[:, k, :, k] = want
    return full.reshape(reg.dim, reg.dim)


class TestWormholeUnitary:
    def _pieces(self, seed=0, variant="delta01"):
        cfg = protocol.ProtocolConfig(swap_variant=variant, seed=seed)
        c = models.sample_syk_couplings(6, 4, cfg.j_scale, seed)
        h_l = models.build_syk_hamiltonian(c, "left", REG1)
        h_r = models.build_syk_hamiltonian(c, "right", REG1)
        ins = protocol.build_insert(cfg)
        size = protocol.build_size_operator(REG1)
        return cfg, h_l, h_r, ins, size

    def test_collapses_to_insert(self):
        _, h_l, h_r, ins, size = self._pieces()
        u = protocol.wormhole_unitary(h_l, h_r, ins, size, g=0.0, t=0.0,
                                      register=REG1)
        assert np.abs(u - ins.matrix).max() <= 1e-12

    def test_two_pi_periodic(self):
        _, h_l, h_r, ins, size = self._pieces(seed=1)
        u1 = protocol.wormhole_unitary(h_l, h_r, ins, size, 1.1, 0.8, REG1)
        u2 = protocol.wormhole_unitary(h_l, h_r, ins, size, 1.1 + 2 * math.pi,
                                       0.8, REG1)
        assert np.abs(u1 - u2).max() <= 1e-10

    def test_unitarity(self):
        _, h_l, h_r, ins, size = self._pieces(seed=2)
        u = protocol.wormhole_unitary(h_l, h_r, ins, size, 2.2, 1.7, REG1)
        assert np.abs(u @ u.conj().T - np.eye(REG1.dim)).max() <= 1e-10

    def test_engine_matches_dense_path(self):
        # dual route: full dense unitary on the initial state vs the
        # engine's blockwise pipeline (thermal weighting off)
        cfg = protocol.ProtocolConfig(seed=3, beta=4.0, g=1.3, t=0.9,
                                      thermal_readout=False)
        eng = protocol.Engine(cfg)
        c = models.sample_syk_couplings(6, 4, cfg.j_scale, cfg.seed)
        h_l = models.build_syk_hamiltonian(c, "left", REG1)
        h_r = models.build_syk_hamiltonian(c, "right", REG1)
        u = protocol.wormhole_unitary(h_l, h_r, protocol.build_insert(cfg), eng.size,
                                      cfg.g, cfg.t, REG1)
        tfd_state = eng.tfd_vector(cfg.beta)
        _check_readouts(eng, cfg.beta, cfg.g, cfg.t, lambda m: u @ np.kron(m, tfd_state),
                        1e-10)


def _normalized(rho):
    """The reading that returns each readout density over its trace."""
    return rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None]


def _dense_readout(states, n_qubits: int, sites) -> np.ndarray:
    """The normalized readout density over (input, readout sites) of the
    final states (n_in, 2^n_qubits) of n_in message inputs, the input index
    as leading qubits, as Engine.finish lays it out."""
    states = np.asarray(states)
    extra = len(states).bit_length() - 1
    rho = qop.reduced_density(states.reshape(-1), n_qubits + extra,
                              list(range(extra)) + [s + extra for s in sites])
    return rho / np.trace(rho)


def _check_readouts(eng, beta, g, t, final, tol):
    """The engine's normalized readout density at (beta, g, t) against
    that of the dense final states final(message), within tol: for the
    engine's single-qubit message, and for the |0> and |1> branches read
    together, whose 4x4 density holds their relative phase."""
    for msgs in (eng.message_vector()[None], protocol._BRANCH_INPUTS):
        want = _dense_readout([final(m) for m in msgs], eng.reg.n_qubits, eng.readout)
        got = eng.finish(msgs, beta, [g], t, _normalized)[0]
        assert np.abs(got - want).max() <= tol


@lru_cache(maxsize=None)
def _dense_model_pieces(seed: int, beta: float, j_scale: float, n_side: int,
                        n_message: int) -> tuple:
    """Full-register H_L, H_R and W_R, the TFD, and the eigensystem
    (values, vectors) of H_R, of one SYK realization at beta: W_R is built
    from that eigensystem and the TFD from a dense exponential of the side
    matrix.  H_R is the identity on the message qubits, so a second message
    qubit takes the eigensystem and W_R of the one-qubit register with an
    identity in front.  Read-only and built once per key, since at n_side 4
    a build takes a 512-square eigensolve."""
    reg = layout.RegisterLayout(n_message=n_message, n_side=n_side)
    c = models.sample_syk_couplings(2 * n_side, 4, j_scale, seed)
    h_l = models.build_syk_hamiltonian(c, "left", reg)
    h_r = models.build_syk_hamiltonian(c, "right", reg)
    h_side = models.build_syk_side_matrix(c, "left", n_side)
    shift = np.linalg.eigvalsh(h_side).min() * np.eye(2 ** n_side)
    weight = expm(-0.5 * beta * (h_side - shift))
    vac = np.kron(weight, np.eye(2 ** n_side)) @ layout.bell_vacuum(n_side)
    tfd_state = vac / np.linalg.norm(vac)
    if n_message > 1:
        *_, w_r, _, e_r, v_r = _dense_model_pieces(seed, beta, j_scale, n_side, n_message - 1)
        e_r, v_r, w_r = np.tile(e_r, 2), np.kron(np.eye(2), v_r), np.kron(np.eye(2), w_r)
    else:
        e_r, v_r = np.linalg.eigh(h_r)
        w_r = (v_r * np.exp(-0.5 * beta * (e_r - e_r.min()))) @ v_r.conj().T
    pieces = (h_l, h_r, w_r, tfd_state, e_r, v_r)
    for piece in pieces:
        piece.setflags(write=False)
    return pieces


@lru_cache(maxsize=None)
def _dense_geometry(n_side: int, n_message: int, swap_pairs: tuple, modes: tuple):
    """Full-register INSERT and size operator of one register geometry,
    built without the Engine's helpers, once per key."""
    reg = layout.RegisterLayout(n_message=n_message, n_side=n_side)
    ins = np.eye(reg.dim)
    for a, b in swap_pairs:
        ins = qop.swap_matrix(reg.n_qubits, a, b) @ ins
    return protocol.InsertOperator(matrix=ins), _dense_size_operator(n_side, modes)


@lru_cache(maxsize=None)
def _dense_size_operator(n_side: int, modes: tuple):
    """The size operator on the two sides' 2 n_side qubits, shared by
    every geometry of the same modes."""
    mat = sum(layout.pair_number_op(n_side, j) for j in modes).astype(complex)
    values, basis = eigh(mat)
    return protocol.SizeOperator(n_side=n_side, modes=modes, matrix=mat,
                                 eigenvalues=values, basis=basis)


def _dense_t_batch(cfg, message, t_values):
    """Normalized (thermally weighted when cfg says so) U(t) |m> (x) |TFD>
    for every t on the full register, each side's evolution applied
    through a dense eigendecomposition of its register Hamiltonian."""
    h_l, _, ins, size, w_r, tfd_state, (e_r, v_r) = TestPipelineAgainstDense._dense_pieces(cfg)
    e_l, v_l = np.linalg.eigh(h_l)
    coupling = size.exp_ig_embedded(cfg.register, cfg.g)
    psi0 = np.kron(message, tfd_state)
    states = []
    for t in t_values:
        phase_l, phase_r = np.exp(-1j * e_l * t), np.exp(-1j * e_r * t)
        psi = v_l @ (phase_l.conj() * (v_l.conj().T @ psi0))
        psi = v_l @ (phase_l * (v_l.conj().T @ (ins.matrix @ psi)))
        psi = v_r @ (phase_r * (v_r.conj().T @ (coupling @ psi)))
        if cfg.thermal_readout:
            psi = w_r @ psi
        states.append(psi / np.linalg.norm(psi))
    return states


def _bell_stabilizer(n_qubits: int, a: int, b: int) -> np.ndarray:
    """(1 + XX + YY + ZZ)/2 on sites a and b, each Pauli pair one Kronecker
    product (its entries are 0, +-1 and +-i, so this is exact)."""
    pairs = (qop.kron_all([qop.PAULIS[p] if k in (a, b) else qop.I2
                           for k in range(n_qubits)]) for p in "XYZ")
    return 0.5 * (np.eye(2 ** n_qubits) + sum(pairs))


def _dense_unitary(cfg, g: float) -> np.ndarray:
    """protocol.wormhole_unitary at g of cfg's realization, register
    geometry and t, read-only.  Built once per cfg at g with its readout
    settings reset, as the unitary does not depend on them: at n_side 4
    one build diagonalizes and multiplies 1024-square register matrices."""
    return _dense_unitary_cached(replace(cfg, g=g, readout_sites=None, thermal_readout=True))


@lru_cache(maxsize=None)
def _dense_unitary_cached(cfg) -> np.ndarray:
    h_l, h_r, ins, size, *_ = TestPipelineAgainstDense._dense_pieces(cfg)
    u = protocol.wormhole_unitary(h_l, h_r, ins, size, cfg.g, cfg.t, cfg.register)
    u.setflags(write=False)
    return u


@pytest.fixture(scope="module", autouse=True)
def _release_dense_model_pieces():
    """The cached pieces take about 130 MB at n_side 4; drop them with the
    module."""
    yield
    _dense_model_pieces.cache_clear()
    _dense_geometry.cache_clear()
    _dense_size_operator.cache_clear()
    _dense_unitary_cached.cache_clear()


class TestPipelineAgainstDense:
    """The staged, g-batched Engine against the dense protocol unitary on
    random (seed, beta <= 20, g, t).  Larger beta is left out: there the
    thermal renormalization amplifies round-off of either route."""

    @staticmethod
    def _dense_states(cfg, messages):
        """Thermally weighted, unnormalized W_R U |m> (x) |TFD> per message
        at cfg.g, from the dense protocol unitary on the full register."""
        return TestPipelineAgainstDense._dense_g_batch(cfg, messages, [cfg.g])[0]

    @staticmethod
    def _dense_pieces(cfg):
        """Full-register H_L, H_R, INSERT, size operator and W_R, the TFD
        and the eigensystem (values, vectors) of H_R, all built without the
        Engine's helpers."""
        reg = cfg.register
        h_l, h_r, w_r, tfd_state, *eig_r = _dense_model_pieces(
            cfg.seed, cfg.beta, cfg.j_scale, reg.n_side, reg.n_message)
        ins, size = _dense_geometry(reg.n_side, reg.n_message, cfg.swap_site_pairs(),
                                    cfg.resolved_size_modes())
        return h_l, h_r, ins, size, w_r, tfd_state, eig_r

    @staticmethod
    def _dense_g_batch(cfg, messages, g_values):
        """Thermally weighted, unnormalized W_R U(g) |m> (x) |TFD>, one row
        per message, for every g from the cached dense wormhole_unitary at
        g = 0: U(g) = U_R exp(i g upsilon) U_R^dagger U(0), U_R applied
        through the eigensystem of H_R."""
        _, _, _, size, w_r, tfd_state, (e_r, v_r) = TestPipelineAgainstDense._dense_pieces(cfg)
        u0 = _dense_unitary(cfg, 0.0)
        phase = np.exp(-1j * e_r * cfg.t)[:, None]
        psi0 = np.stack([np.kron(m, tfd_state) for m in messages], axis=1)
        before = v_r @ (phase.conj() * (v_r.conj().T @ (u0 @ psi0)))
        return [(w_r @ (v_r @ (phase * (v_r.conj().T @ (
            size.exp_ig_embedded(cfg.register, g) @ before))))).T for g in g_values]

    def _cases(self, n=6):
        rng = np.random.default_rng(20250)
        for _ in range(n):
            yield (int(rng.integers(0, 10 ** 6)), float(rng.uniform(0.0, 20.0)),
                   float(rng.uniform(0.0, 4 * math.pi)), float(rng.uniform(0.0, 3.0)))

    def _check_basis_z(self, cases, n_side=3):
        for seed, beta, g, t in cases:
            for variant in ("delta01", "delta02"):
                cfg = protocol.ProtocolConfig(seed=seed, beta=beta, g=g, t=t,
                                              swap_variant=variant, n_side=n_side)
                (psi,) = self._dense_states(cfg, [np.array([1, 0], dtype=complex)])
                psi = psi / np.linalg.norm(psi)
                z = qop.pauli_on(cfg.register.n_qubits, cfg.resolved_readout()[0], "Z")
                want = float(np.real(qop.expectation(psi, z)))
                got = protocol.get_engine(cfg).curve_basis_z(beta, t, [g])[0]
                assert abs(got - want) <= 1e-12

    def _check_bell(self, cases, n_side=3):
        for seed, beta, g, t in cases:
            cfg = protocol.ProtocolConfig(message="bell_phi_plus",
                                          swap_variant="bell_sequential",
                                          seed=seed, beta=beta, g=g, t=t, n_side=n_side)
            (psi,) = self._dense_states(cfg, [BELLS["phi_plus"]])
            psi = psi / np.linalg.norm(psi)
            stab = _bell_stabilizer(cfg.register.n_qubits, *cfg.resolved_readout())
            want = float(np.real(qop.expectation(psi, stab)))
            got = protocol.get_engine(cfg).curve_bell(beta, t, [g])[0]
            assert abs(got - want) <= 1e-12

    def test_basis_z(self):
        self._check_basis_z(self._cases())

    def test_bell(self):
        self._check_bell(self._cases())

    @pytest.mark.parametrize("n_side", [2, 4])
    def test_other_side_sizes(self, n_side):
        # 4 and 8 size levels; at n_side 4 the dense register has 2^9 and
        # 2^10 states, so one point there
        cases = list(self._cases(3 if n_side == 2 else 1))
        self._check_basis_z(cases, n_side)
        self._check_bell(cases, n_side)

    @pytest.mark.parametrize("n_side, n_levels", [(2, 4), (3, 6), (4, 8)])
    def test_g_batches_in_every_coupling_order(self, n_side, n_levels, monkeypatch):
        # 1, L/2, L/2 + 1, L - 1 and L values of g, each in the order finish
        # picks (maps up to L/2, the level split above) and forced into
        # each of the two orders; basis_z and Bell against the dense unitary
        rng = np.random.default_rng(31 + n_side)
        gs = rng.uniform(0.0, 4 * math.pi, n_levels)
        counts = (1, n_levels // 2, n_levels // 2 + 1, n_levels - 1, n_levels)
        for seed, beta, _, t in self._cases(1 if n_side == 4 else 2):
            cfg = protocol.ProtocolConfig(seed=seed, beta=beta, t=t, n_side=n_side)
            bell = replace(cfg, message="bell_phi_plus", swap_variant="bell_sequential")
            n = cfg.register.n_qubits
            z = qop.pauli_on(n, cfg.resolved_readout()[0], "Z")
            stab = _bell_stabilizer(n + 1, *bell.resolved_readout())
            basis_msg = np.array([1, 0], dtype=complex)
            want_z = [float(np.real(qop.expectation(psi / np.linalg.norm(psi), z)))
                      for (psi,) in self._dense_g_batch(cfg, [basis_msg], gs)]
            want_bell = [float(np.real(qop.expectation(psi / np.linalg.norm(psi), stab)))
                         for (psi,) in self._dense_g_batch(bell, [BELLS["phi_plus"]], gs)]
            eng, engb = protocol.get_engine(cfg), protocol.get_engine(bell)
            assert len(eng._levels) == len(engb._levels) == n_levels
            for order in (None, "maps", "levels"):
                if order is None:
                    monkeypatch.undo()
                    orders = _record_coupling_orders(monkeypatch)
                else:
                    _force_coupling_order(monkeypatch, order)
                for k in counts:
                    got_z = eng.curve_basis_z(beta, t, gs[:k])
                    got_bell = engb.curve_bell(beta, t, gs[:k])
                    assert np.abs(got_z - want_z[:k]).max() <= 1e-12
                    assert np.abs(got_bell - want_bell[:k]).max() <= 1e-12
                if order is None:
                    assert orders == [o for o in ("maps",) * 2 + ("levels",) * 3
                                      for _ in (0, 1)]

    def test_arbitrary_branches(self):
        for seed, beta, g, t in self._cases():
            for variant in ("delta01", "delta02"):
                cfg = protocol.ProtocolConfig(seed=seed, beta=beta, g=g, t=t,
                                              swap_variant=variant)
                want = self._dense_states(cfg, np.eye(2, dtype=complex))
                got = _branch_densities(protocol.get_engine(cfg), beta, t, [g])[0]
                n, site = cfg.register.n_qubits, cfg.resolved_readout()[0]
                dense = qop.reduced_density(np.concatenate(want), n + 1, [0, site + 1])
                assert np.abs(got - dense).max() <= 1e-12
                # the fidelity of a superposition assembled from the branches
                a, b = protocol.haar_qubit(seed, 0)
                msg = np.array([a, b], dtype=complex)
                psi = a * want[0] + b * want[1]
                psi = psi / np.linalg.norm(psi)
                proj = qop.kron_all([np.outer(msg, msg.conj()) if k == site else qop.I2
                                     for k in range(n)])
                fid = float(np.real(qop.expectation(psi, proj)))
                mean, stderr = protocol.get_engine(cfg).curve_arbitrary_avg(
                    beta, t, [g], [(a, b)])
                assert abs(mean[0] - fid) <= 1e-12
                assert stderr[0] == 0.0

    def test_batch_matches_single_points(self, monkeypatch):
        # with 8 KiB g blocks, 9 g at n_side 3 are one block for the basis
        # message and two for the others; at n_side 4, 53 g are 3 blocks of
        # at most 18 for the basis message and 11 blocks of at most 5 for
        # the Bell message and the two arbitrary-message branches, the last
        # one partial on every curve
        monkeypatch.setattr(protocol, "G_BLOCK_BYTES", 2 ** 13)
        for n_side, n_g in ((3, 9), (4, 53)):
            gs = np.linspace(0.0, 4 * math.pi, n_g)
            cfg = protocol.ProtocolConfig(seed=3, beta=7.0, t=1.2, n_side=n_side)
            eng = protocol.get_engine(cfg)
            cfgb = _bell_cfg(seed=3, beta=7.0, t=2.0, n_side=n_side)
            engb = protocol.get_engine(cfgb)
            if n_side == 4:
                assert [eng._g_block(1, n_g), eng._g_block(2, n_g),
                        engb._g_block(1, n_g)] == [(1, 18), (1, 5), (1, 5)]
            curve = eng.curve_basis_z(cfg.beta, cfg.t, gs)
            single = [eng.curve_basis_z(cfg.beta, cfg.t, [g])[0] for g in gs]
            assert np.abs(curve - single).max() <= 1e-13
            haar = _haar(20, 1)
            mean, _ = eng.curve_arbitrary_avg(cfg.beta, cfg.t, gs, haar)
            single = [eng.curve_arbitrary_avg(cfg.beta, cfg.t, [g], haar)[0][0] for g in gs]
            assert np.abs(mean - single).max() <= 1e-13
            curve = engb.curve_bell(cfgb.beta, cfgb.t, gs)
            single = [engb.curve_bell(cfgb.beta, cfgb.t, [g])[0] for g in gs]
            assert np.abs(curve - single).max() <= 1e-13


class TestReadoutSites:
    """Readout sites other than the default, against the dense protocol
    unitary: at one point and over a batched t sweep, both in the maps
    order, with thermal and with bare readout.  The Bell pair is also read
    in reversed site order, which the readout density shows and the
    (symmetric) stabilizer fidelity does not."""

    T_GRID = np.linspace(0.2, 3.0, 40)

    @pytest.mark.parametrize("thermal", [True, False], ids=["thermal", "bare"])
    @pytest.mark.parametrize("sites", [(5,), (6,), (6, 5), (5, 7)], ids=str)
    def test_against_dense(self, sites, thermal, monkeypatch):
        cfg = protocol.ProtocolConfig(seed=11, beta=6.0, g=1.9, t=1.3, readout_sites=sites,
                                      thermal_readout=thermal)
        bell = len(sites) == 2
        if bell:
            cfg = replace(cfg, message="bell_phi_plus", swap_variant="bell_sequential")
        msg = BELLS["phi_plus"] if bell else np.array([1, 0], dtype=complex)
        n = cfg.register.n_qubits
        op = _bell_stabilizer(n, *sites) if bell else qop.pauli_on(n, sites[0], "Z")
        *_, w_r, tfd_state, _ = TestPipelineAgainstDense._dense_pieces(cfg)
        psi = _dense_unitary(cfg, cfg.g) @ np.kron(msg, tfd_state)
        psi = w_r @ psi if thermal else psi
        want = float(np.real(qop.expectation(psi / np.linalg.norm(psi), op)))
        eng = protocol.get_engine(cfg)
        curve = eng.curve_bell if bell else eng.curve_basis_z
        orders = _record_coupling_orders(monkeypatch)
        assert abs(curve(cfg.beta, cfg.t, [cfg.g])[0] - want) <= 1e-12
        states = _dense_t_batch(cfg, msg, self.T_GRID)
        want = [float(np.real(qop.expectation(psi, op))) for psi in states]
        got = curve(cfg.beta, self.T_GRID, [cfg.g])
        assert orders == ["maps", "maps"]
        assert np.abs(got[:, 0] - want).max() <= 1e-12
        # the normalized readout density over the sites in their given order
        rho = eng.finish(msg, cfg.beta, [cfg.g], self.T_GRID, _normalized)[:, 0]
        assert np.abs(rho - qop.reduced_density(np.array(states), n, sites)).max() <= 1e-12


class TestLevelFactoredCoupling:
    """exp(i g upsilon) = sum_p exp(i g p) Pi_p over the distinct size
    levels, the form Engine.finish applies."""

    G_BATCHES = (np.array([1.7]), np.array([0.4, 2.9, 7.1]),
                 np.linspace(0.0, 4 * math.pi, 201))

    def test_projectors_resolve_the_coupling(self):
        for reg, modes in ((REG1, None), (REG2, None), (REG1, (0, 3, 5))):
            size = protocol.build_size_operator(reg, modes)
            levels, columns, column_levels = size.level_tables
            assert levels.tolist() == sorted(set(size.eigenvalues.tolist()))
            assert len(columns) == len(levels)
            # the column slices tile the basis in order
            assert [c.start for c in columns] == [0] + [c.stop for c in columns[:-1]]
            assert columns[-1].stop == len(size.eigenvalues)
            for p, cols in zip(levels, columns):
                assert (size.eigenvalues[cols] == p).all()
                assert (column_levels[cols] == p).all()
            proj = size.projectors()
            assert len(proj) == len(levels)
            assert np.abs(proj.sum(axis=0) - np.eye(size.matrix.shape[0])).max() <= 1e-13
            for g in (0.0, 0.8, -2.3, 11.0):
                phased = sum(np.exp(1j * g * p) * pp for p, pp in zip(levels, proj))
                assert np.abs(phased - size.exp_ig(g)).max() <= 1e-13

    def test_unsorted_levels_rejected(self, monkeypatch):
        size = protocol.build_size_operator(REG1)
        order = np.random.default_rng(0).permutation(len(size.eigenvalues))
        shuffled = protocol.SizeOperator(
            n_side=size.n_side, modes=size.modes, matrix=size.matrix,
            eigenvalues=size.eigenvalues[order], basis=size.basis[:, order])
        # the spectrum and the coupling are unchanged, the column order is not
        assert np.abs(shuffled.exp_ig(1.3) - size.exp_ig(1.3)).max() <= 1e-13
        with pytest.raises(qop.QopError, match="ascending"):
            shuffled.level_tables
        with pytest.raises(qop.QopError, match="ascending"):
            shuffled.projectors()
        monkeypatch.setattr(protocol, "build_size_operator", lambda reg, modes: shuffled)
        with pytest.raises(qop.QopError, match="ascending"):
            protocol.Engine(protocol.ProtocolConfig(seed=1))

    def _check_rows(self, eng, msgs, beta):
        ts = np.array([0.7, 1.9])
        n_in = len(np.reshape(msgs, (-1, 2 ** eng.reg.n_message)))
        width = n_in * 2 ** len(eng.readout)
        for gs in self.G_BATCHES:
            # a reading sees the unnormalized readout densities of the g
            # axis block by block, each t's in turn, joined in order
            blocks = []

            def reading(rho):
                blocks.append(rho.shape[1])
                return rho
            joined = eng.finish(msgs, beta, gs, ts, reading)
            assert joined.shape == (len(ts), len(gs), width, width)
            for j, g in enumerate(gs):
                single = eng.finish(msgs, beta, (g,), ts, lambda r: r)[:, 0]
                assert np.abs(joined[:, j] - single).max() <= 1e-13
            n_rows, step = eng._g_block(n_in, len(gs))
            if len(gs) > len(eng._levels) // 2:
                assert n_rows == 1
                assert blocks == [min(step, len(gs) - i)
                                  for i in range(0, len(gs), step) for _ in ts]

    def test_g_batches_match_scalar_g(self):
        # 201 g at one t are one block for the basis message and 5 blocks
        # of at most 41 for the Bell message and the two arbitrary-message
        # branches, the last one partial; each t of _check_rows takes them
        # in turn
        gs = self.G_BATCHES[2]
        for beta in (0.0, 6.0):
            eng = protocol.get_engine(protocol.ProtocolConfig(seed=2))
            self._check_rows(eng, eng.message_vector(), beta)
            # the two arbitrary-message branches
            self._check_rows(eng, np.eye(2, dtype=complex), beta)
            engb = protocol.get_engine(_bell_cfg(seed=2))
            self._check_rows(engb, engb.message_vector(), beta)
            assert [eng._g_block(1, 201), eng._g_block(2, 201),
                    engb._g_block(1, 201)] == [(1, 201), (1, 41), (1, 41)]
            curve = eng.curve_basis_z(beta, 1.0, gs)
            single = [eng.curve_basis_z(beta, 1.0, (g,))[0] for g in gs]
            assert np.abs(curve - single).max() <= 1e-13
            haar = _haar(20, 1)
            mean, stderr = eng.curve_arbitrary_avg(beta, 1.0, gs, haar)
            single = np.array([eng.curve_arbitrary_avg(beta, 1.0, (g,), haar)
                               for g in gs])[:, :, 0]
            assert np.abs(mean - single[:, 0]).max() <= 1e-13
            assert np.abs(stderr - single[:, 1]).max() <= 1e-13
            curve = engb.curve_bell(beta, 2.0, gs)
            single = [engb.curve_bell(beta, 2.0, (g,))[0] for g in gs]
            assert np.abs(curve - single).max() <= 1e-13


class TestGBlockMemory:
    """In the level order, finish reads one block of g at a time off the
    compressed readout coordinates, so the memory of a g-sweep call does
    not grow with its g grid beyond the (n_g,)-sized inputs and outputs."""

    @pytest.mark.parametrize("n_side", [3, 4])
    def test_peak_does_not_grow_with_the_g_grid(self, n_side):
        eng = protocol.get_engine(protocol.ProtocolConfig(seed=5, n_side=n_side))
        engb = protocol.get_engine(_bell_cfg(seed=5, n_side=n_side))
        # the Haar average over 100 messages takes its mean and standard
        # error per g block, so it holds no (t, g, message) array either
        haar = partial(eng.curve_arbitrary_avg, messages=_haar(100))
        for curve in (eng.curve_basis_z, engb.curve_bell, haar):
            peaks = []
            for n_g in (201, 1608):
                gs = np.linspace(0.0, 4 * math.pi, n_g)
                curve(7.0, 1.0, gs)  # warm: C is built
                tracemalloc.start()
                try:
                    curve(7.0, 1.0, gs)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] <= 1.5 * peaks[0]
            assert max(peaks) < 2 * 2 ** 20


def _peak(call) -> int:
    """The traced peak of one call, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTGridMemory:
    """In the maps order, finish hands a reading the densities of at most
    G_BLOCK_BYTES of consecutive chunks, and the Haar average takes its
    samples in slices of about that size, so the memory of a one-g call
    does not grow with its t grid beyond the (n_t,)-sized inputs and
    outputs."""

    def test_peak_does_not_grow_with_the_t_grid(self):
        eng = protocol.get_engine(protocol.ProtocolConfig(seed=5))
        engb = protocol.get_engine(_bell_cfg(seed=5))
        haar = partial(eng.curve_arbitrary_avg, messages=_haar(100))
        short, long = np.linspace(2.0, 20.0, 73), np.linspace(2.0, 20.0, 1000)
        for beta in (7.0, np.array(analysis.DEFAULT_BETA_GRID)):
            for curve in (eng.curve_basis_z, engb.curve_bell, haar):
                curve(beta, short, [1.9])  # warm: C and the readout tensor
                peaks = [_peak(lambda: curve(beta, ts, [1.9])) for ts in (short, long)]
                assert peaks[1] <= 1.25 * peaks[0], (curve, np.ndim(beta), peaks)


class TestBatchedReadings:
    """The maps order reads the densities of several chunks at once; how
    many share a reading moves no value."""

    def test_bell_window_over_eight_betas(self, monkeypatch):
        engb = protocol.get_engine(_bell_cfg(seed=8))
        betas = np.array(analysis.DEFAULT_BETA_GRID)
        window = np.array(analysis.BELL_T_WINDOW)
        calls = []
        reading = protocol.Engine.bell_value

        def counted(self, rho):
            calls.append(len(rho))
            return reading(self, rho)
        monkeypatch.setattr(protocol.Engine, "bell_value", counted)
        batched = engb.curve_bell(betas, window, [1.9])
        assert len(calls) <= 3
        assert sum(calls) == len(betas) * len(window)
        # a cap below one chunk's densities: one chunk per reading
        calls.clear()
        monkeypatch.setattr(protocol, "G_BLOCK_BYTES", 1)
        single = engb.curve_bell(betas, window, [1.9])
        assert len(calls) == -(-len(window) // engb._chunk(len(betas), 1, 1, "maps")) == 5
        assert batched.shape == single.shape == (len(betas), len(window), 1)
        assert np.array_equal(batched, single)

    def test_bell_window_at_every_budget(self, monkeypatch):
        # heatmap-t's second stage, 73 t x 8 betas at one g over a seed
        # axis, with maps chunks of 4 to 32 t: the chunk budget moves no
        # value
        engb = protocol.Engine(_bell_cfg(), (8, 9))
        betas = np.array(analysis.DEFAULT_BETA_GRID)
        window = np.array(analysis.BELL_T_WINDOW)
        chunks = _record_t_chunks(monkeypatch)
        default = engb.curve_bell(betas, window, [1.9])
        for budget in (2 ** 18, 2 ** 19, 2 ** 20, 2 ** 21):
            monkeypatch.setattr(protocol, "BATCH_BYTES", budget)
            chunks.clear()
            assert np.array_equal(engb.curve_bell(betas, window, [1.9]), default)
            assert len(chunks) == 2 * -(-len(window) // (budget // 2 ** 16))

    def test_basis_and_haar_window(self, monkeypatch):
        eng = protocol.get_engine(protocol.ProtocolConfig(seed=8))
        betas = np.array(analysis.DEFAULT_BETA_GRID)
        window = np.array(analysis.BELL_T_WINDOW)
        curves = (eng.curve_basis_z, lambda *a: eng.curve_arbitrary_avg(*a, _haar(100, 2)))
        batched = [curve(betas, window, [1.9]) for curve in curves]
        # one chunk per reading, and Haar slices of two points
        monkeypatch.setattr(protocol, "G_BLOCK_BYTES", 1)
        for curve, values in zip(curves, batched):
            assert np.array_equal(np.stack(curve(betas, window, [1.9])), np.stack(values))


def _force_coupling_order(monkeypatch, order: str):
    """Make Engine.finish take one coupling order ("maps" or "levels"),
    whatever the call's g grid."""
    monkeypatch.setattr(protocol.Engine, "_coupling_order", lambda self, n_g: order)


def _record_coupling_orders(monkeypatch) -> list:
    """A list that collects the coupling order of every Engine.finish call."""
    orders = []
    pick = protocol.Engine._coupling_order

    def recorded(self, n_g):
        orders.append(pick(self, n_g))
        return orders[-1]
    monkeypatch.setattr(protocol.Engine, "_coupling_order", recorded)
    return orders


def _branch_densities(eng, beta, t, g_values):
    """The unnormalized readout densities of the |0> and |1> message inputs
    read together, r[(a, i), (b, j)] = Tr_rest |phi_a><phi_b| on the
    readout site, from Engine.finish, shape np.shape(t) + (n_g, 4, 4)."""
    return eng.finish(protocol._BRANCH_INPUTS, beta, g_values, t, lambda r: r)


def _record_t_chunks(monkeypatch) -> list:
    """A list that collects the t values of every Engine.dressed_state call,
    one chunk of a finish call each."""
    chunks = []
    stage = protocol.Engine.dressed_state

    def recorded(self, inserted, t_values, *seeds):
        chunks.append(t_values)
        return stage(self, inserted, t_values, *seeds)
    monkeypatch.setattr(protocol.Engine, "dressed_state", recorded)
    return chunks


def _record_stages(monkeypatch) -> list:
    """A list that collects the name of every beta or t stage an Engine
    builds."""
    names = []
    for name in ("tfd_weights", "thermal_weight_right", "dressed_state"):
        def recorded(self, *args, _name=name, _stage=getattr(protocol.Engine, name)):
            names.append(_name)
            return _stage(self, *args)
        monkeypatch.setattr(protocol.Engine, name, recorded)
    return names


def _pair_coefficients(eng) -> np.ndarray:
    """K0 = V_L^dagger Omega V_R^*: the pair vacuum Omega over pairs of the
    engine's side eigenvectors."""
    d = 2 ** eng.reg.n_side
    omega = layout.bell_vacuum(eng.reg.n_side).reshape(d, d)
    return eng.eig_left.vectors.conj().T @ omega @ eng.eig_right.vectors.conj()


def _bell_cfg(**kw):
    return protocol.ProtocolConfig(message="bell_phi_plus",
                                   swap_variant="bell_sequential", **kw)


class TestTBatching:
    """A t array through the pipeline against one scalar-t call per t."""

    # 30 t x 10 g: more than one chunk of 32 KiB
    T_GRID = np.linspace(0.0, 7.0, 30)
    G_GRID = np.linspace(0.0, 4 * math.pi, 10)

    def _check(self, cfg, curve, n_in=1):
        ts, gs = self.T_GRID, self.G_GRID
        if cfg.model == "tfim":
            ts = np.arange(len(ts), dtype=float)
        eng = protocol.get_engine(cfg)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocol, "BATCH_BYTES", 2 ** 15)
            assert eng._chunk(1, n_in, len(gs), eng._coupling_order(len(gs))) < len(ts)
            for beta in (0.0, 6.0):
                batched = curve(eng, beta, ts, gs)
                assert batched.shape == (len(ts), len(gs))
                single = np.stack([curve(eng, beta, float(t), gs) for t in ts])
                assert np.abs(batched - single).max() <= 1e-13

    def test_basis_z(self):
        for cfg in (protocol.ProtocolConfig(seed=4),
                    protocol.ProtocolConfig(seed=5, thermal_readout=False),
                    protocol.ProtocolConfig(seed=6, model="tfim", t=1.0)):
            self._check(cfg, protocol.Engine.curve_basis_z)

    def test_bell(self):
        for cfg in (_bell_cfg(seed=4), _bell_cfg(seed=5, thermal_readout=False)):
            self._check(cfg, protocol.Engine.curve_bell)

    def test_arbitrary_avg(self):
        def mean(eng, beta, t, gs):
            return eng.curve_arbitrary_avg(beta, t, gs, _haar(10, 2))[0]
        for cfg in (protocol.ProtocolConfig(seed=4, swap_variant="delta02"),
                    protocol.ProtocolConfig(seed=5, thermal_readout=False),
                    protocol.ProtocolConfig(seed=6, model="tfim", t=1.0)):
            self._check(cfg, mean, n_in=2)

    def test_scalar_t_shapes(self):
        gs = self.G_GRID
        eng = protocol.get_engine(protocol.ProtocolConfig(seed=1))
        engb = protocol.get_engine(_bell_cfg(seed=1))
        msgs = [protocol.haar_qubit(0, i) for i in range(3)]
        assert eng.curve_basis_z(2.0, 1.0, gs).shape == (len(gs),)
        assert engb.curve_bell(2.0, 2.0, gs).shape == (len(gs),)
        assert _fidelities(eng, 2.0, 1.0, gs, msgs).shape == (len(gs), 3)
        mean, stderr = eng.curve_arbitrary_avg(2.0, 1.0, gs, _haar(5))
        assert mean.shape == stderr.shape == (len(gs),)
        # finish keeps the axes of beta and t before g and the reading's own
        msg = eng.message_vector()
        assert eng.finish(msg, 2.0, [0.5], 1.0, lambda r: r).shape == (1, 2, 2)
        assert eng.finish(msg, [2.0], [0.5, 1.0], [1.0, 2.0, 3.0], eng.basis_z_value
                          ).shape == (1, 3, 2)
        # a 1-D t of one value keeps its axis
        assert eng.curve_basis_z(2.0, [1.0], gs).shape == (1, len(gs))
        assert _fidelities(eng, 2.0, [1.0, 2.0], gs, msgs).shape == (2, len(gs), 3)

    def test_non_finite_t_in_array_raises(self):
        eng = protocol.get_engine(protocol.ProtocolConfig(seed=1))
        engb = protocol.get_engine(_bell_cfg(seed=1))
        calls = (lambda t: eng.curve_basis_z(0.0, t, [0.5]),
                 lambda t: engb.curve_bell(0.0, t, [0.5]),
                 lambda t: eng.curve_arbitrary_avg(0.0, t, [0.5], _haar(5)),
                 lambda t: eng.curve_arbitrary_avg(0.0, t, [0.5], [(1.0, 0.0)]))
        for call in calls:
            for bad in ([1.0, math.nan], [math.inf, 1.0], [[1.0, 2.0]], []):
                with pytest.raises(protocol.ConfigError):
                    call(bad)

    def test_bad_g_raises_before_any_stage(self, monkeypatch):
        # g has the rule of beta and t: a nonempty, finite scalar or 1-D
        # array, checked before any stage is built
        stages = _record_stages(monkeypatch)
        eng = protocol.Engine(protocol.ProtocolConfig(seed=1))
        engb = protocol.Engine(_bell_cfg(seed=1))
        calls = (lambda g: eng.curve_basis_z(0.0, 1.0, g),
                 lambda g: engb.curve_bell(0.0, 2.0, g),
                 lambda g: eng.curve_arbitrary_avg(0.0, 1.0, g, _haar(5)),
                 lambda g: eng.finish(eng.message_vector(), 0.0, g, 1.0,
                                      eng.basis_z_value))
        for call in calls:
            for bad in ([], np.zeros((0,)), [[0.5, 1.0]], np.zeros((2, 2)),
                        [0.5, math.nan], [math.inf]):
                with pytest.raises(protocol.ConfigError, match="g must"):
                    call(bad)
        assert stages == []

    def test_bad_beta_raises_before_any_stage(self, monkeypatch):
        # beta is checked at every public entry point, before the TFD or
        # the thermal weights are built, so no stage warns on it first
        stages = _record_stages(monkeypatch)
        eng = protocol.Engine(protocol.ProtocolConfig(seed=1))
        engb = protocol.Engine(_bell_cfg(seed=1))
        calls = (lambda beta: eng.curve_basis_z(beta, 1.0, [0.5, 1.0]),
                 lambda beta: engb.curve_bell(beta, 2.0, [0.5]),
                 lambda beta: eng.curve_arbitrary_avg(beta, 1.0, [0.5], [(1.0, 0.0)]),
                 lambda beta: eng.curve_arbitrary_avg(beta, 1.0, [0.5], _haar(5)),
                 lambda beta: eng.finish(eng.message_vector(), beta, [0.5], 1.0,
                                         eng.basis_z_value))
        for call in calls:
            for bad in (-5.0, -1e-300, math.inf, -math.inf, math.nan):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(protocol.ConfigError, match="beta"):
                        call(bad)
        assert stages == []

    def test_tfim_takes_integer_steps(self):
        eng = protocol.get_engine(protocol.ProtocolConfig(model="tfim", t=1.0))
        for bad in ([1.0, 1.5], [-1.0]):
            with pytest.raises(protocol.ConfigError):
                eng.curve_basis_z(0.0, bad, [0.5])

    def test_bell_window_at_one_g(self):
        # the heatmap-t shape: 73 t at one g, one coupling map for all rows
        ts = np.array(analysis.BELL_T_WINDOW)
        assert len(ts) == 73
        eng = protocol.get_engine(_bell_cfg(seed=8))
        for beta in (0.0, 10.0):
            batched = eng.curve_bell(beta, ts, [1.9])
            single = np.stack([eng.curve_bell(beta, float(t), [1.9]) for t in ts])
            assert batched.shape == single.shape == (len(ts), 1)
            assert np.abs(batched - single).max() <= 1e-13

    def test_one_g_over_several_chunks(self, monkeypatch):
        # 300 t at one g is 6 chunks of protocol.BATCH_BYTES (basis
        # message) or 11 (Bell message, two branches), in order, through one
        # coupling map; one t at a time takes the same order, and no value
        # depends on what shares its call
        ts = np.linspace(0.0, 7.0, 300)
        msgs = [protocol.haar_qubit(3, i) for i in range(3)]
        orders = _record_coupling_orders(monkeypatch)
        chunks = _record_t_chunks(monkeypatch)
        for cfg, curve, n_in, n_chunks in (
                (protocol.ProtocolConfig(seed=9), protocol.Engine.curve_basis_z, 1, 6),
                (_bell_cfg(seed=9), protocol.Engine.curve_bell, 1, 11),
                (protocol.ProtocolConfig(seed=9, swap_variant="delta02"),
                 lambda eng, beta, t, gs: _fidelities(eng, beta, t, gs, msgs), 2, 11)):
            eng = protocol.get_engine(cfg)
            assert -(-len(ts) // eng._chunk(1, n_in, 1, "maps")) == n_chunks
            for beta in (0.0, 6.0):
                orders.clear()
                chunks.clear()
                batched = curve(eng, beta, ts, [2.3])
                assert orders == ["maps"]
                assert len(chunks) == n_chunks
                assert np.array_equal(np.concatenate(chunks), ts)
                orders.clear()
                single = np.stack([curve(eng, beta, float(t), [2.3]) for t in ts])
                assert orders == ["maps"] * len(ts)
                assert np.array_equal(batched, single)
        # 8 betas x 15 t at one and at three values of g against one call
        # per beta and one call per (beta, t) point, bit for bit
        betas, ts = np.array(analysis.DEFAULT_BETA_GRID), ts[::20]
        eng = protocol.get_engine(protocol.ProtocolConfig(seed=9))
        engb = protocol.get_engine(_bell_cfg(seed=9))
        curves = (eng.curve_basis_z, engb.curve_bell,
                  lambda beta, t, gs: _fidelities(eng, beta, t, gs, msgs),
                  lambda beta, t, gs: np.stack(eng.curve_arbitrary_avg(beta, t, gs, _haar(20, 1)),
                                               axis=-1))
        for gs in ([2.3], [0.4, 2.3, 5.1]):
            for curve in curves:
                orders.clear()
                batched = curve(betas, ts, gs)
                per_beta = np.stack([curve(beta, ts, gs) for beta in betas])
                per_point = np.stack([np.stack([curve(beta, t, gs) for t in ts])
                                      for beta in betas])
                assert set(orders) == {"maps"}
                assert batched.shape[:3] == (len(betas), len(ts), len(gs))
                assert np.array_equal(batched, per_beta)
                assert np.array_equal(batched, per_point)

    def test_no_stage_with_a_sweep_axis_is_kept(self):
        # the TFD and thermal weights and the t stage are built per call;
        # an engine keeps only tensors of its realization: the INSERT
        # factor, C with the pair vacuum absorbed and the readout tensor
        eng = protocol.Engine(protocol.ProtocolConfig(seed=2))
        before = set(vars(eng))
        eng.curve_basis_z(3.0, self.T_GRID, self.G_GRID)
        eng.curve_basis_z(np.array([1.0, 3.0]), self.T_GRID, [0.5])
        assert set(vars(eng)) - before == {"_insert_left", "_to_size", "_readout_tensor"}


class TestBetaBatching:
    """A beta array through the pipeline against one scalar-beta call per
    beta, for every metric, both models and the bare readout."""

    BETAS = (0.0, 1.0, 5.0, 100.0)
    CONFIGS = (protocol.ProtocolConfig(seed=3),
               protocol.ProtocolConfig(seed=3, thermal_readout=False),
               protocol.ProtocolConfig(seed=3, model="tfim", t=1.0),
               _bell_cfg(seed=3), _bell_cfg(seed=3, thermal_readout=False))

    @staticmethod
    def _curves(eng):
        """name -> curve(beta, t, g_values) for every metric of the engine."""
        if eng.cfg.message == "bell_phi_plus":
            return {"bell": eng.curve_bell}
        msgs = [protocol.haar_qubit(2, i) for i in range(3)]
        return {"basis_z": eng.curve_basis_z,
                "avg_mean": lambda *a: eng.curve_arbitrary_avg(*a, _haar(10, 3))[0],
                "avg_stderr": lambda *a: eng.curve_arbitrary_avg(*a, _haar(10, 3))[1],
                "fidelity": lambda *a: _fidelities(eng, *a, msgs)}

    @pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: (
        f"{c.message}-{c.model}-{'thermal' if c.thermal_readout else 'bare'}"))
    def test_batched_matches_scalar_beta(self, cfg):
        eng = protocol.get_engine(cfg)
        t_grid = [1.0, 2.0] if cfg.model == "tfim" else [0.5, 2.0]
        # the level order (25 g) and the maps order (1 g)
        for gs in (np.linspace(0.0, 4 * math.pi, 25), [1.3]):
            for t in (t_grid[1], t_grid):
                for name, curve in self._curves(eng).items():
                    batched = curve(np.array(self.BETAS), t, gs)
                    single = np.stack([curve(beta, t, gs) for beta in self.BETAS])
                    tail = single.shape[1 + np.ndim(t):]
                    assert tail[0] == len(gs), name
                    assert batched.shape == (len(self.BETAS),) + np.shape(t) + tail, name
                    assert np.abs(batched - single).max() <= 1e-13, name
                    # a 0-d beta keeps the scalar-beta shape
                    assert curve(np.array(5.0), t, gs).shape == single.shape[1:], name

    @pytest.mark.parametrize("bad", [[[1.0, 2.0]], [], [1.0, math.nan], [math.inf, 1.0],
                                     [1.0, -math.inf], [2.0, -1e-300]],
                             ids=["2-D", "empty", "nan", "inf", "-inf", "negative"])
    def test_bad_beta_arrays_raise(self, bad, monkeypatch):
        # the rule and error class of a bad t or a bad scalar beta, checked
        # before any stage is built
        stages = _record_stages(monkeypatch)
        eng = protocol.Engine(protocol.ProtocolConfig(seed=1))
        engb = protocol.Engine(_bell_cfg(seed=1))
        calls = (lambda beta: eng.curve_basis_z(beta, 1.0, [0.5, 1.0]),
                 lambda beta: engb.curve_bell(beta, [2.0, 3.0], [0.5]),
                 lambda beta: eng.curve_arbitrary_avg(beta, 1.0, [0.5], [(1.0, 0.0)]),
                 lambda beta: eng.curve_arbitrary_avg(beta, 1.0, np.arange(9.0), _haar(5)))
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(protocol.ConfigError, match="beta"):
                    call(bad)
        assert stages == []


class TestBetaBatchMemory:
    """protocol.BATCH_BYTES, not the number of betas, sets the memory of one
    call: a call takes all its betas at once, the level order of a 201-g
    Bell sweep takes its (beta, t) rows a group at a time, and the 73-t Bell
    window is cut into runs of t whose rows for all betas fit
    BATCH_BYTES."""

    def test_eight_betas_peak_near_one(self):
        engb = protocol.get_engine(_bell_cfg(seed=5))
        betas = np.array(analysis.DEFAULT_BETA_GRID)
        window = np.array(analysis.BELL_T_WINDOW)
        gs = np.linspace(0.0, 4 * math.pi, 201)
        assert (engb._chunk(len(betas), 1, 1, "maps") < engb._chunk(1, 1, 1, "maps")
                < len(window))
        for t, g_values in ((protocol.DEFAULT_T_BELL, gs), (window, [1.9])):
            peaks = []
            for beta in (5.0, betas):
                engb.curve_bell(beta, t, g_values)  # warm: C and the readout tensor
                tracemalloc.start()
                try:
                    engb.curve_bell(beta, t, g_values)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] <= 1.25 * peaks[0]


class TestSharedInsert:
    def test_one_read_only_matrix_per_geometry(self):
        # only the message (x) left factor is kept, one per geometry
        a = protocol.Engine(protocol.ProtocolConfig(seed=1))
        b = protocol.Engine(protocol.ProtocolConfig(seed=2, model="tfim", t=1.0))
        assert a._insert_factor is b._insert_factor
        assert not a._insert_factor.flags.writeable
        assert not hasattr(a, "insert")
        for cfg in (protocol.ProtocolConfig(swap_variant="delta02"),
                    protocol.ProtocolConfig(fermionic_insert=True),
                    _bell_cfg()):
            eng = protocol.Engine(cfg)
            assert eng._insert_factor is not a._insert_factor
            assert eng._insert_factor is protocol.Engine(cfg)._insert_factor

    def test_factor_rebuilds_the_insert(self):
        # F, built on the message and left sites alone, against the dense
        # INSERT of the same signed permutation on the whole register, in
        # all 12 (message, variant, fermionic, n_side) geometries
        for n_side, fermionic in itertools.product((3, 4), (False, True)):
            for cfg in (protocol.ProtocolConfig(fermionic_insert=fermionic),
                        protocol.ProtocolConfig(swap_variant="delta02",
                                                fermionic_insert=fermionic),
                        _bell_cfg(fermionic_insert=fermionic)):
                cfg = replace(cfg, n_side=n_side)
                eng = protocol.Engine(cfg)
                assert not eng._insert_factor.flags.writeable
                assert eng._insert_factor.shape == (2 ** (cfg.n_message + n_side),) * 2
                rebuilt = np.kron(eng._insert_factor, np.eye(2 ** n_side))
                assert np.array_equal(rebuilt, protocol.build_insert(cfg).matrix)

    def test_fermionic_insert_matches_dense_path(self):
        cfg = protocol.ProtocolConfig(seed=3, beta=4.0, g=1.3, t=0.9,
                                      thermal_readout=False, fermionic_insert=True)
        eng = protocol.Engine(cfg)
        c = models.sample_syk_couplings(6, 4, cfg.j_scale, cfg.seed)
        h_l = models.build_syk_hamiltonian(c, "left", REG1)
        h_r = models.build_syk_hamiltonian(c, "right", REG1)
        u = protocol.wormhole_unitary(h_l, h_r, protocol.build_insert(cfg), eng.size,
                                      cfg.g, cfg.t, REG1)
        tfd_state = eng.tfd_vector(cfg.beta)
        _check_readouts(eng, cfg.beta, cfg.g, cfg.t, lambda m: u @ np.kron(m, tfd_state),
                        1e-10)


def _rotate_degenerate(eig, rng):
    """The eigensystem with each degenerate block of eigenvectors rotated
    by a random unitary; returns it and the block sizes."""
    values, vectors = eig.values, eig.vectors.copy()
    sizes, start = [], 0
    while start < len(values):
        stop = start + 1
        while stop < len(values) and abs(values[stop] - values[start]) <= 1e-9:
            stop += 1
        k = stop - start
        q, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
        vectors[:, start:stop] = vectors[:, start:stop] @ q
        sizes.append(k)
        start = stop
    return qop.EigenSystem(values=values, vectors=vectors), sizes


class TestDegeneracyInvariance:
    """Outputs are functions of the Hamiltonian alone: a rotation inside a
    degenerate eigenspace must not move them.  That covers the thermofield
    double and every curve."""

    T_GRID = np.linspace(0.0, 6.0, 13)
    G_GRID = np.linspace(0.0, 2 * math.pi, 9)

    def _pair(self, cfg, rng):
        ref, rot = protocol.Engine(cfg), protocol.Engine(cfg)
        rot.eig_left, left = _rotate_degenerate(ref.eig_left, rng)
        rot.eig_right, right = _rotate_degenerate(ref.eig_right, rng)
        # every level of the N = 6 model is twofold degenerate
        assert left == right == [2, 2, 2, 2]
        assert np.abs(rot.eig_left.vectors - ref.eig_left.vectors).max() > 0.1
        return ref, rot

    def test_tfd_and_curves(self):
        rng = np.random.default_rng(7)
        msgs = [protocol.haar_qubit(1, i) for i in range(4)]
        ts, gs = self.T_GRID, self.G_GRID
        for seed in (0, 3):
            for variant in ("delta01", "delta02"):
                ref, rot = self._pair(
                    protocol.ProtocolConfig(seed=seed, swap_variant=variant), rng)
                for beta in (0.0, 5.0, 20.0):
                    assert np.abs(rot.tfd_vector(beta) - ref.tfd_vector(beta)).max() <= 1e-12
                    assert np.abs(rot.curve_basis_z(beta, ts, gs)
                                  - ref.curve_basis_z(beta, ts, gs)).max() <= 1e-12
                    assert np.abs(_fidelities(rot, beta, ts, gs, msgs)
                                  - _fidelities(ref, beta, ts, gs, msgs)).max() <= 1e-12
            ref, rot = self._pair(_bell_cfg(seed=seed), rng)
            for beta in (0.0, 5.0, 20.0):
                assert np.abs(rot.curve_bell(beta, ts, gs)
                              - ref.curve_bell(beta, ts, gs)).max() <= 1e-12


class TestFactoredTfd:
    """The thermofield double's coefficients over pairs of side
    eigenvectors factor as V_L^dagger T(beta) V_R^* = diag(w(beta)) K0 with
    K0 = V_L^dagger Omega V_R^*, so beta enters the pipeline only through
    the Boltzmann weights w(beta) of the left levels."""

    BETAS = (0.0, 1.0, 5.0, 100.0, 1e4)

    @pytest.mark.parametrize("n_side", [3, 4])
    @pytest.mark.parametrize("model", ["syk", "tfim"])
    def test_weights_times_pair_coefficients(self, model, n_side):
        eng = protocol.Engine(protocol.ProtocolConfig(model=model, seed=4, n_side=n_side,
                                                      t=1.0))
        d = 2 ** n_side
        k0 = _pair_coefficients(eng)
        for beta, w in zip(self.BETAS, eng.tfd_weights(np.array(self.BETAS))):
            want = (eng.eig_left.vectors.conj().T @ tfd.build_tfd(eng.eig_left, beta, eng.reg)
                    .reshape(d, d) @ eng.eig_right.vectors.conj())
            assert np.abs(w[:, None] * k0 - want).max() <= 1e-14
        # the engine's C = (V_L (x) V_R)^T B^* with K0 absorbed: rows (a', a)
        # of sum_k K0[a', k] C[(a, k), :]
        c = np.kron(eng.eig_left.vectors, eng.eig_right.vectors).T @ eng.size.basis.conj()
        absorbed = np.einsum("xk,akj->xaj", k0, c.reshape(d, d, -1)).reshape(d * d, -1)
        assert np.abs(eng._to_size - absorbed).max() <= 1e-13

    def test_rotated_degenerate_levels(self):
        # every N = 6 level is twofold degenerate: the factored coefficients
        # follow a rotation inside the levels, and no curve moves, in any
        # coupling order.  The curves stop at beta 100: at beta 1e3 and 1e4
        # the weighted final state at g = pi is round-off in the thermal
        # readout, and its <Z> moves by up to 0.05 under the rotation with
        # either route
        rng = np.random.default_rng(23)
        pair = TestDegeneracyInvariance()._pair
        betas = np.array(self.BETAS[:-1])
        ts, gs = np.linspace(0.0, 6.0, 40), np.linspace(0.0, 2 * math.pi, 9)
        for cfg in (protocol.ProtocolConfig(seed=6), _bell_cfg(seed=6)):
            ref, rot = pair(cfg, rng)
            for beta, w in zip(self.BETAS, rot.tfd_weights(np.array(self.BETAS))):
                want = (rot.eig_left.vectors.conj().T @ rot.tfd_vector(beta).reshape(8, 8)
                        @ rot.eig_right.vectors.conj())
                assert np.abs(w[:, None] * _pair_coefficients(rot) - want).max() <= 1e-14
            curve = "curve_bell" if cfg.message == "bell_phi_plus" else "curve_basis_z"
            # the level order, and the maps order over a t grid and at one t
            for t, g_values in ((ts[:3], gs), (ts, [1.1]), (1.0, [1.1])):
                got = getattr(rot, curve)(betas, t, g_values)
                assert np.abs(got - getattr(ref, curve)(betas, t, g_values)).max() <= 1e-12


class TestCouplingOrdersUnderDegeneracy:
    """TestDegeneracyInvariance's 9-value g grid takes the level split;
    here each coupling order sees eigenvectors rotated inside the
    degenerate levels, with one g and with L - 1 values of g."""

    T_GRID = np.linspace(0.0, 6.0, 13)

    @pytest.mark.parametrize("order", ["maps", "levels"])
    def test_curves(self, order, monkeypatch):
        _force_coupling_order(monkeypatch, order)
        rng = np.random.default_rng(17)
        msgs = [protocol.haar_qubit(2, i) for i in range(4)]
        ts = self.T_GRID
        pair = TestDegeneracyInvariance()._pair
        for seed, variant in ((0, "delta01"), (3, "delta02")):
            ref, rot = pair(protocol.ProtocolConfig(seed=seed, swap_variant=variant), rng)
            refb, rotb = pair(_bell_cfg(seed=seed), rng)
            n_levels = len(ref._levels)
            for gs in (np.array([1.1]), np.linspace(0.3, 5.0, n_levels - 1)):
                for beta in (0.0, 5.0, 20.0):
                    assert np.abs(rot.curve_basis_z(beta, ts, gs)
                                  - ref.curve_basis_z(beta, ts, gs)).max() <= 1e-12
                    assert np.abs(_fidelities(rot, beta, ts, gs, msgs)
                                  - _fidelities(ref, beta, ts, gs, msgs)).max() <= 1e-12
                    assert np.abs(rotb.curve_bell(beta, ts, gs)
                                  - refb.curve_bell(beta, ts, gs)).max() <= 1e-12


class TestReadingStage:
    """The curves hand Engine.finish the readings basis_z_value and
    bell_value, looked up on the engine at call time: a wrapper set on the
    class, as the benchmark tracer sets one, sees them in every coupling
    order and moves no value."""

    @pytest.mark.parametrize("order", ["maps", "levels"])
    def test_class_wrappers_see_every_reading(self, order, monkeypatch):
        _force_coupling_order(monkeypatch, order)
        eng = protocol.get_engine(protocol.ProtocolConfig(seed=4))
        engb = protocol.get_engine(_bell_cfg(seed=4))
        betas, ts = np.array([0.0, 5.0]), np.linspace(0.5, 2.0, 3)
        gs = np.linspace(0.0, 2 * math.pi, 9)
        want = (eng.curve_basis_z(betas, ts, gs), engb.curve_bell(betas, ts, gs))
        calls = Counter()
        for name in ("basis_z_value", "bell_value"):
            def counted(self, rho, _name=name, _reading=getattr(protocol.Engine, name)):
                calls[_name] += 1
                return _reading(self, rho)
            monkeypatch.setattr(protocol.Engine, name, counted)
        assert np.array_equal(eng.curve_basis_z(betas, ts, gs), want[0])
        assert calls["basis_z_value"] > 0 and calls["bell_value"] == 0
        assert np.array_equal(engb.curve_bell(betas, ts, gs), want[1])
        assert calls["bell_value"] > 0


class TestSingleQubit:
    def test_uncoupled_point_reads_zero(self):
        eng = protocol.get_engine(protocol.ProtocolConfig(seed=0))
        assert abs(eng.curve_basis_z(0.0, 0.0, [0.0])[0]) <= 1e-12

    def test_periodicity(self):
        rng = np.random.default_rng(0)
        eng = protocol.get_engine(protocol.ProtocolConfig(seed=1))
        t = protocol.DEFAULT_T_SINGLE
        for g in rng.uniform(0, 2 * math.pi, size=5):
            a = eng.curve_basis_z(7.0, t, [g])[0]
            b = eng.curve_basis_z(7.0, t, [g + 2 * math.pi])[0]
            assert abs(a - b) <= 1e-8

    def test_range(self):
        for seed in range(3):
            eng = protocol.get_engine(protocol.ProtocolConfig(seed=seed))
            val = eng.curve_basis_z(11.0, 1.0, [2.0])[0]
            assert -1.0 <= val <= 1.0

    def test_beta_zero_beats_beta_large(self):
        gs = np.linspace(0, 2 * math.pi, 41)
        peaks0, peaks100 = [], []
        for seed in range(10):
            eng = protocol.get_engine(protocol.ProtocolConfig(seed=seed))
            t = protocol.DEFAULT_T_SINGLE
            peaks0.append(eng.curve_basis_z(0.0, t, gs).max())
            peaks100.append(eng.curve_basis_z(100.0, t, gs).max())
        assert np.mean(peaks0) > np.mean(peaks100)

    def test_deterministic(self):
        eng = protocol.get_engine(protocol.ProtocolConfig(seed=5))
        assert eng.curve_basis_z(3.0, 1.0, [1.0])[0] == eng.curve_basis_z(3.0, 1.0, [1.0])[0]

    def test_thermal_off_matches_plain_expectation_at_beta_zero(self):
        cfg = protocol.ProtocolConfig(seed=2)
        a = protocol.get_engine(cfg).curve_basis_z(0.0, 1.0, [2.5])[0]
        b = protocol.get_engine(replace(cfg, thermal_readout=False)).curve_basis_z(
            0.0, 1.0, [2.5])[0]
        assert abs(a - b) <= 1e-12

    def test_non_finite_inputs_raise(self):
        eng = protocol.get_engine(protocol.ProtocolConfig())
        with pytest.raises(protocol.ConfigError):
            eng.curve_basis_z(0.0, 1.0, [math.nan])
        with pytest.raises(protocol.ConfigError):
            eng.curve_basis_z(math.inf, 1.0, [0.5])
        with pytest.raises(protocol.ConfigError):
            protocol.run_arbitrary_avg(protocol.ProtocolConfig(t=math.nan), 5)
        # a NaN entry of a batched g axis must not silently fill its row
        with pytest.raises(protocol.ConfigError):
            eng.curve_basis_z(0.0, 1.0, [0.5, math.nan])


class TestArbitraryState:
    def test_basis_zero_reduces_to_projector_identity(self):
        eng = protocol.get_engine(protocol.ProtocolConfig(seed=1))
        for beta in (0.0, 9.0):
            fz = eng.curve_basis_z(beta, 1.0, [1.9])[0]
            fa, stderr = eng.curve_arbitrary_avg(beta, 1.0, [1.9], [(1.0 + 0j, 0.0 + 0j)])
            assert abs(fa[0] - 0.5 * (1.0 + fz)) <= 1e-10
            assert stderr[0] == 0.0

    def test_one_state_uncoupled_point(self):
        eng = protocol.get_engine(protocol.ProtocolConfig(message="arbitrary", seed=0))
        # readout qubit is maximally mixed before any coupling
        val, stderr = eng.curve_arbitrary_avg(0.0, 0.0, [0.0], [(0.0 + 0j, 1.0 + 0j)])
        assert abs(val[0] - 0.5) <= 1e-12
        assert stderr[0] == 0.0

    def test_global_phase_invariance(self):
        eng = protocol.get_engine(protocol.ProtocolConfig(message="arbitrary", seed=3))
        phase = np.exp(1j * 1.234)
        msgs = [(0.6 + 0j, 0.8 + 0j), (0.6 * phase, 0.8 * phase)]
        base, rot = _fidelities(eng, 2.0, 1.0, [1.2], msgs)[0]
        assert abs(base - rot) <= 1e-12

    def test_value_range(self):
        rng = np.random.default_rng(4)
        eng = protocol.get_engine(protocol.ProtocolConfig(message="arbitrary", seed=2))
        msgs = [protocol.haar_qubit(7, int(rng.integers(100))) for _ in range(5)]
        for val in _fidelities(eng, 5.0, 1.0, [2.0], msgs)[0]:
            assert -1e-12 <= val <= 1.0 + 1e-12


class TestArbitraryAverage:
    def test_single_sample_equals_single_run(self):
        cfg = protocol.ProtocolConfig(seed=2, beta=1.0, g=0.9, t=1.0)
        mean, stderr = protocol.run_arbitrary_avg(cfg, n_s=1, seed=11)
        single = _fidelities(protocol.get_engine(cfg), cfg.beta, cfg.t, [cfg.g],
                             [protocol.haar_qubit(11, 0)])[0, 0]
        assert mean == pytest.approx(single, abs=1e-14)
        assert stderr == 0.0

    def test_haar_sampling_is_bloch_uniform(self):
        # 4000 messages of seed 0 in one draw, each with the bits of
        # haar_qubit(0, i) (TestBatchedDraws checks that bit for bit)
        (msgs,) = protocol.draw_haar_samples([0], 4000)
        assert np.array_equal(msgs[1234], protocol.haar_qubit(0, 1234))
        p0, p1 = np.abs(msgs[:, 0]) ** 2, np.abs(msgs[:, 1]) ** 2
        assert np.abs(p0 + p1 - 1.0).max() <= 1e-12
        # <z> = 0 and Var(z) = 1/3 on the uniform sphere
        zs = p0 - p1
        assert abs(zs.mean()) <= 3.0 / math.sqrt(3 * len(zs))
        assert abs(zs.var() - 1.0 / 3.0) <= 0.02

    def test_mean_in_unit_interval(self):
        cfg = protocol.ProtocolConfig(seed=0, beta=3.0, g=1.5, t=1.0)
        mean, stderr = protocol.run_arbitrary_avg(cfg, n_s=50, seed=1)
        assert 0.0 <= mean <= 1.0
        assert stderr >= 0.0

    def test_rejects_the_bell_message(self):
        bell = protocol.ProtocolConfig(message="bell_phi_plus", swap_variant="bell_sequential")
        with pytest.raises(protocol.ConfigError):
            protocol.run_arbitrary_avg(bell, 5)

    def test_engine_key_leaves_out_sweep_axes_and_amplitudes(self):
        cfg = protocol.ProtocolConfig(seed=6, swap_variant="delta02")
        eng = protocol.get_engine(cfg)
        assert protocol.get_engine(replace(cfg, g=2.0, t=3.0, beta=7.0)) is eng
        assert protocol.get_engine(replace(cfg, message="arbitrary", alpha=0.6 + 0j,
                                           beta_msg=0.8j)) is eng
        assert eng.cfg.message == "basis_zero" and eng.cfg.t == protocol.DEFAULT_T_SINGLE
        assert protocol.get_engine(replace(cfg, seed=7)) is not eng
        # the modes and sites are tuples, which the engine cache can hash
        for name in ("size_modes", "readout_sites"):
            with pytest.raises(protocol.ConfigError, match=name):
                replace(cfg, **{name: [5]}).validate()

    def test_arbitrary_message_curves_do_not_depend_on_the_lookup(self):
        # the amplitudes reach only curve_arbitrary_avg, so an engine built
        # for an arbitrary message reads the |0> input, as the cached one
        cfg = protocol.ProtocolConfig(message="arbitrary", seed=3, alpha=0.6 + 0j,
                                      beta_msg=0.8 + 0j, g=0.5, t=1.0)
        gs = np.array([0.5, 1.7])
        own = protocol.Engine(cfg).curve_basis_z(0.0, 1.0, gs)
        assert np.array_equal(own, protocol.get_engine(cfg).curve_basis_z(0.0, 1.0, gs))
        zero = protocol.Engine(replace(cfg, message="basis_zero"))
        assert np.array_equal(own, zero.curve_basis_z(0.0, 1.0, gs))

    def test_deterministic_per_seed(self):
        cfg = protocol.ProtocolConfig(seed=1, beta=2.0, g=1.0, t=1.0)
        assert (protocol.run_arbitrary_avg(cfg, 20, seed=5)
                == protocol.run_arbitrary_avg(cfg, 20, seed=5))

    def test_channel_average_matches_closed_form(self):
        # where the readout map is a channel E (beta = 0, or no thermal
        # reweighting), the Bloch-sphere average is exactly
        # F_avg = (2 F_e + 1)/3 with the entanglement fidelity
        # F_e = (1/4) sum_ab <a|E(|a><b|)|b> = ||phi_0[r=0] + phi_1[r=1]||^2 / 4
        for seed, beta, thermal, variant in ((4, 0.0, True, "delta01"),
                                             (5, 6.0, False, "delta02")):
            cfg = protocol.ProtocolConfig(seed=seed, beta=beta, g=1.3, t=1.0,
                                          thermal_readout=thermal,
                                          swap_variant=variant)
            r = _branch_densities(protocol.get_engine(cfg), cfg.beta, cfg.t, [cfg.g])[0]
            # ||phi_0[r=0] + phi_1[r=1]||^2 over the rows (a, i) = (0, 0), (1, 1)
            f_e = 0.25 * (r[0, 0] + r[3, 3] + 2 * r[0, 3]).real
            mean, stderr = protocol.run_arbitrary_avg(cfg, 100, seed=3)
            assert stderr > 0
            assert abs(mean - (2 * f_e + 1) / 3) <= 4 * stderr

    def test_gemm_readout_matches_einsum_formulas(self):
        # the overlap and norm of every message as the two contractions of
        # the branch reduced density matrices they are defined by
        msgs = np.array([protocol.haar_qubit(9, i) for i in range(7)], dtype=complex)
        ts, gs = np.array([0.4, 1.0, 2.5]), np.linspace(0.0, 2 * math.pi, 11)
        for variant, thermal in (("delta01", True), ("delta02", False)):
            eng = protocol.Engine(protocol.ProtocolConfig(
                seed=4, swap_variant=variant, thermal_readout=thermal))
            for beta in (0.0, 5.0, 20.0):
                r = _branch_densities(eng, beta, ts, gs).reshape(-1, 4, 4)
                u = (msgs[:, :, None] * msgs.conj()[:, None, :]).reshape(-1, 4)
                overlap = np.einsum("gxy,sx,sy->gs", r, u, u.conj())
                norm2 = np.einsum("gaibi,sa,sb->gs", r.reshape(-1, 2, 2, 2, 2),
                                  msgs, msgs.conj())
                want = (overlap / norm2).real.reshape(len(ts), len(gs), -1)
                got = _fidelities(eng, beta, ts, gs, msgs)
                assert np.abs(got - want).max() <= 1e-14


def _seed_axis_metrics(cfg) -> dict:
    """name -> curve(engine, messages, beta, t, g_values) for every metric
    of cfg's message; the Haar average takes its mean and standard error
    as one array and each seed's messages."""
    if cfg.message == "bell_phi_plus":
        return {"bell": lambda eng, msgs, *axes: eng.curve_bell(*axes)}
    return {"basis_z": lambda eng, msgs, *axes: eng.curve_basis_z(*axes),
            "haar": lambda eng, msgs, *axes: np.stack(
                eng.curve_arbitrary_avg(*axes, msgs), axis=-1)}


def _check_seed_axis(cfg, seeds, calls):
    """Every metric of an engine over the seed axis `seeds` at every
    (beta, t, g_values) of `calls` holds, for each seed, the bits of that
    seed's lone engine."""
    stacked = protocol.Engine(cfg, seeds)
    lone = [protocol.Engine(replace(cfg, seed=seed)) for seed in seeds]
    messages = protocol.draw_haar_samples(seeds, 10)
    for name, curve in _seed_axis_metrics(cfg).items():
        for beta, t, g_values in calls:
            got = curve(stacked, messages, beta, t, g_values)
            assert got.shape[0] == len(seeds), name
            for eng, msgs, values in zip(lone, messages, got):
                want = curve(eng, msgs, beta, t, g_values)
                assert values.shape == want.shape, (name, beta, t)
                assert values.tobytes() == want.tobytes(), (name, beta, t, len(g_values))


class TestSeedAxis:
    """An engine over a 1-D seed axis gives each seed the bits of the
    seed's lone engine: every metric, every geometry and both models, in
    both coupling orders, with one-beta, one-t and one-g calls."""

    SEEDS = (3, 11, 2 ** 40 + 5)
    BETAS = np.array([0.0, 5.0, 100.0])
    G_SWEEP = np.linspace(0.0, 4 * math.pi, 25)

    @pytest.mark.parametrize("n_side", [3, 4])
    @pytest.mark.parametrize("fermionic", [False, True])
    @pytest.mark.parametrize("variant", protocol.VARIANTS)
    def test_slice_matches_lone_engines(self, variant, fermionic, n_side):
        bell = variant == "bell_sequential"
        cfg = protocol.ProtocolConfig(message="bell_phi_plus" if bell else "basis_zero",
                                      swap_variant=variant, fermionic_insert=fermionic,
                                      n_side=n_side)
        t = 2.0 if bell else 1.0
        _check_seed_axis(cfg, self.SEEDS, (
            (self.BETAS, t, self.G_SWEEP),           # the level order
            (5.0, [0.5, 1.5, t], [1.3]),             # the maps order, one beta and g
            (self.BETAS, [0.5, t], [0.4, 1.3]),
            (100.0, t, [1.3]),                       # one point
            (0.0, [t], self.G_SWEEP[:9])))           # one t

    def test_kicked_ising_slice(self):
        cfg = protocol.ProtocolConfig(model="tfim", t=1.0)
        _check_seed_axis(cfg, self.SEEDS, (
            (self.BETAS, 1.0, self.G_SWEEP), (5.0, [1.0, 2.0, 3.0], [1.3]),
            (100.0, 2.0, [0.4, 1.3]), (0.0, [1.0], self.G_SWEEP[:9])))

    def test_slice_straddles_chunks(self, monkeypatch):
        # small budgets: the level order puts whole seeds of the slice in
        # chunks of two or four, the last one short, and its groups take
        # two seeds' rows at one beta; the maps order cuts each seed's t
        # axis into chunks of one t and reads consecutive chunks across
        # seeds; a g sweep's y(g) comes in several blocks
        monkeypatch.setattr(protocol, "G_BLOCK_BYTES", 2 ** 15)
        monkeypatch.setattr(protocol, "BATCH_BYTES", 2 ** 15)
        seeds = (5, 6, 7, 8, 9)
        ts = np.linspace(0.5, 4.0, 8)
        for cfg, t in ((protocol.ProtocolConfig(), 1.0), (_bell_cfg(), 2.0)):
            _check_seed_axis(cfg, seeds, (
                (self.BETAS, t, self.G_SWEEP), (0.0, t, self.G_SWEEP),
                (self.BETAS, ts, [1.3]), (5.0, ts, [0.4, 1.3])))

    def test_shapes_and_checks(self):
        eng = protocol.Engine(protocol.ProtocolConfig(), self.SEEDS)
        gs = self.G_SWEEP
        assert eng.seeds == self.SEEDS
        assert eng.eig_left.values.shape == (3, 8) and eng.eig_right.vectors.shape == (3, 8, 8)
        assert not eng.eig_left.vectors.flags.writeable
        # the seed axis comes first, then the axes of beta and t, then g
        assert eng.curve_basis_z(0.0, 1.0, gs).shape == (3, len(gs))
        assert eng.curve_basis_z(self.BETAS, [1.0, 2.0], gs).shape == (3, 3, 2, len(gs))
        assert eng.tfd_weights(self.BETAS).shape == (3, 3, 8)
        assert eng.dressed_state(eng.insert_messages(eng.message_vector()),
                                 np.array([1.0, 2.0])).shape == (
            3, 8, 4, 8)
        mean, stderr = eng.curve_arbitrary_avg(0.0, 1.0, gs,
                                               protocol.draw_haar_samples(self.SEEDS, 4))
        assert mean.shape == stderr.shape == (3, len(gs))
        # each seed takes its own messages
        for bad in (protocol.draw_haar_samples(self.SEEDS[:2], 4),
                    protocol.draw_haar_samples(self.SEEDS[:1], 4)[0]):
            with pytest.raises(protocol.ConfigError, match="messages"):
                eng.curve_arbitrary_avg(0.0, 1.0, gs, bad)
        with pytest.raises(protocol.ConfigError, match="one reading per seed"):
            eng.finish(protocol._BRANCH_INPUTS, 0.0, gs, 1.0, [lambda r: r])
        # a sequence of readings hands each seed's rows to its own, in both
        # coupling orders
        readings = [lambda r, k=k: np.full(r.shape[:2], float(k)) for k in range(3)]
        for g_values in (gs, [1.3]):
            got = eng.finish(eng.message_vector(), self.BETAS, g_values, [1.0, 2.0], readings)
            assert got.shape == (3, 3, 2, len(g_values))
            assert (got == np.arange(3.0)[:, None, None, None]).all()
        for seeds in ((), [[1, 2]], (1.5, 2), (True,), 3):
            with pytest.raises(protocol.ConfigError, match="seeds"):
                protocol.Engine(protocol.ProtocolConfig(), seeds)
            with pytest.raises(protocol.ConfigError, match="seeds"):
                protocol.get_engine(protocol.ProtocolConfig(), seeds)
        with pytest.raises(protocol.ConfigError, match="at most"):
            protocol.Engine(protocol.ProtocolConfig(), range(protocol.ENGINE_CACHE_SIZE + 1))

    def test_engine_cache_counts_seeds(self):
        # get_engine keeps engines of at most ENGINE_CACHE_SIZE seeds in all
        protocol._engine_cached.cache_clear()
        cfg = protocol.ProtocolConfig()
        first = protocol.get_engine(cfg, range(20))
        assert protocol.get_engine(cfg, tuple(range(20))) is first
        lone = protocol.get_engine(replace(cfg, seed=40))
        assert protocol.get_engine(replace(cfg, seed=40)) is lone
        protocol.get_engine(cfg, range(20, 32))  # 33 seeds: the oldest goes
        assert protocol.get_engine(replace(cfg, seed=40)) is lone
        assert protocol.get_engine(cfg, range(20)) is not first


class TestSeedAxisMemory:
    """A chunk takes whole seeds only as far as G_BLOCK_BYTES holds their
    t stage and dressed rows, the d products of the t stage are formed a
    few seeds at a time, the maps order takes one seed per chunk, each
    group's values go straight to the output, and a Haar reading is made
    for one seed at a time, so that beyond its result, which has a seed
    axis, a 32-seed call holds about what a one-seed call holds."""

    @pytest.mark.parametrize("n_side", [3, 4])
    def test_32_seed_peak_near_one(self, n_side):
        seeds = tuple(range(100, 132))
        betas = np.array(analysis.DEFAULT_BETA_GRID)
        gs = np.linspace(0.0, 4 * math.pi, 201)
        window = np.array(analysis.BELL_T_WINDOW)[::4 if n_side == 3 else 18]
        basis = protocol.ProtocolConfig(n_side=n_side)
        bell = _bell_cfg(n_side=n_side)
        messages = protocol.draw_haar_samples(seeds, 100)
        # the shapes of sq1, fig34, the first stage of heatmap-t and
        # neofidelity, and the second stage of heatmap-t; the two Bell
        # sweeps in the level order (fig34 and heatmap-t's first stage),
        # about 60 % of the n_side-4 case's time, are traced at n_side 3
        # only, and sq1's shape takes the level order at n_side 4
        calls = (
            (basis, lambda eng, msgs: eng.curve_basis_z(betas, 1.0, gs)),
            (bell, lambda eng, msgs: eng.curve_bell(betas, 2.0, gs)),
            (bell, lambda eng, msgs: eng.curve_bell(0.0, 2.0, gs)),
            (basis, lambda eng, msgs: eng.curve_arbitrary_avg((0.0, 20.0), 1.0, gs[::4], msgs)),
            (bell, lambda eng, msgs: eng.curve_bell(betas, window, [1.9])))
        if n_side == 4:
            calls = calls[:1] + calls[3:]
        for cfg, call in calls:
            peaks = []
            for eng, msgs in ((protocol.Engine(replace(cfg, seed=seeds[0])), messages[0]),
                              (protocol.Engine(cfg, seeds), messages)):
                result = call(eng, msgs)  # warm: the engine's tensors are built
                result_bytes = sum(np.asarray(r).nbytes for r in
                                   (result if isinstance(result, tuple) else (result,)))
                peaks.append(_peak(lambda: call(eng, msgs)) - result_bytes)
            assert peaks[1] <= 1.25 * peaks[0], (cfg.message, peaks)


class TestSharedRealization:
    def test_variants_share_read_only_eigensystems(self):
        a = protocol.Engine(protocol.ProtocolConfig(seed=13))
        shared = (protocol.Engine(protocol.ProtocolConfig(seed=13, swap_variant="delta02")),
                  protocol.Engine(protocol.ProtocolConfig(seed=13, fermionic_insert=True)),
                  protocol.Engine(_bell_cfg(seed=13)))
        for eng in shared:
            assert eng.eig_left is a.eig_left and eng.eig_right is a.eig_right
        for eig in (a.eig_left, a.eig_right):
            assert not eig.values.flags.writeable
            assert not eig.vectors.flags.writeable
        # the size level tables are built once per size operator
        other = protocol.Engine(protocol.ProtocolConfig(seed=14))
        assert other._levels is a._levels and other._column_levels is a._column_levels
        assert not a._levels.flags.writeable and not a._column_levels.flags.writeable
        assert other.eig_left is not a.eig_left
        scaled = protocol.Engine(protocol.ProtocolConfig(seed=13, j_scale=2.0))
        assert scaled.eig_left is not a.eig_left
        tfim = protocol.Engine(protocol.ProtocolConfig(seed=13, model="tfim", t=1.0))
        assert not tfim.eig_right.vectors.flags.writeable
        # a realization of either model is its two side eigensystems
        for eng in (a, tfim):
            cfg = eng.cfg
            realization = protocol._realization(cfg.seed, cfg.model, cfg.j_scale, cfg.n_side)
            assert len(realization) == 2
            assert realization[0] is eng.eig_left and realization[1] is eng.eig_right

    @pytest.mark.parametrize("n_side", [3, 4])
    def test_batched_build_has_the_bits_of_lone_builds(self, n_side):
        # seeds with and without a high word, -1 and its alias 2^64 - 1
        seeds = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, 2 ** 64 - 1, -1,
                 8350510533860217964)
        grids = ((0.0, 5.0), 1.0, (0.3, 2.0))

        def bits(cfg, seed):
            eng = protocol.Engine(replace(cfg, seed=seed))
            eigs = (eng.eig_left.values, eng.eig_left.vectors,
                    eng.eig_right.values, eng.eig_right.vectors)
            return ([e.view(np.uint64).tobytes() for e in eigs],
                    eng.curve_basis_z(*grids).view(np.uint64).tobytes())

        for model in ("syk", "tfim"):
            cfg = protocol.ProtocolConfig(n_side=n_side, model=model, t=1.0)
            protocol._realization.clear()
            protocol.Engine(cfg, seeds)
            assert protocol._realization.builds == len(seeds)
            batched = [bits(cfg, seed) for seed in seeds]
            assert protocol._realization.builds == len(seeds)
            for seed, want in zip(seeds, batched):
                protocol._realization.clear()
                assert bits(cfg, seed) == want
                assert protocol._realization.builds == 1
            assert batched[5] == batched[6]  # -1 is 2^64 - 1 to the draws
        # the baseline's fields: one row per seed, with the bits of its lone draw
        rows = models.TfimParams.sample(n_side, seeds)
        assert [p.seed for p in rows] == list(seeds)
        for seed, row in zip(seeds, rows):
            lone = models.TfimParams.sample(n_side, seed).h_fields
            assert np.array_equal(np.array(row.h_fields).view(np.uint64),
                                  np.array(lone).view(np.uint64))

    def test_one_side_sum_per_slice(self, monkeypatch):
        # the right side is the mirror of the left sum, not a second sum
        sums, build = [], models.build_syk_side_matrix

        def counted(couplings, side, n_side):
            sums.append(side)
            return build(couplings, side, n_side)

        monkeypatch.setattr(models, "build_syk_side_matrix", counted)
        protocol._realization.clear()
        protocol.Engine(protocol.ProtocolConfig(), range(20))
        assert protocol._realization.builds == 20
        assert sums == ["left"]

    def test_realization_cache_bounds_a_batch(self):
        cfg = protocol.ProtocolConfig()
        with pytest.raises(protocol.ConfigError, match="at most"):
            protocol.Engine(cfg, range(protocol.ENGINE_CACHE_SIZE + 1))
        protocol._realization.clear()
        protocol.Engine(cfg, (5, 6, 5))
        assert protocol._realization.builds == 2
        # a batch of present seeds builds nothing and keeps them the newest
        protocol.Engine(cfg, range(7, 7 + protocol.ENGINE_CACHE_SIZE - 2))
        protocol.Engine(cfg, (5, 6))
        protocol.Engine(cfg, (100, 101))
        assert protocol._realization.builds == protocol.ENGINE_CACHE_SIZE + 2
        protocol.Engine(replace(cfg, seed=5))
        protocol.Engine(replace(cfg, seed=6))
        assert protocol._realization.builds == protocol.ENGINE_CACHE_SIZE + 2
        protocol.Engine(replace(cfg, seed=7))
        assert protocol._realization.builds == protocol.ENGINE_CACHE_SIZE + 3

    def test_shared_eigensystems_match_a_fresh_build(self):
        eng = protocol.Engine(protocol.ProtocolConfig(seed=13, swap_variant="delta02"))
        c = models.sample_syk_couplings(6, 4, protocol.DEFAULT_J_SCALE, 13)
        for side, eig in (("left", eng.eig_left), ("right", eng.eig_right)):
            fresh = qop.hermitian_eig(models.build_syk_side_matrix(c, side, 3))
            assert np.array_equal(fresh.values, eig.values)
            assert np.array_equal(fresh.vectors, eig.vectors)


class TestStabilizerFidelity:
    def test_bell_table(self):
        expected = {"phi_plus": 1.0, "phi_minus": 1.0,
                    "psi_plus": 1.0, "psi_minus": -1.0}
        for name, vec in BELLS.items():
            rho = np.outer(vec, vec.conj())
            assert protocol.stabilizer_fidelity(rho) == pytest.approx(
                expected[name], abs=1e-12)

    def test_maximally_mixed(self):
        assert protocol.stabilizer_fidelity(np.eye(4) / 4) == pytest.approx(0.5)

    def test_stabilizer_expectations_signature(self):
        # (XX, ZZ, YY) signatures for the four Bell states
        sig = {}
        for name, vec in BELLS.items():
            rho = np.outer(vec, vec.conj())
            sig[name] = tuple(
                round(float(np.real(np.trace(rho @ qop.kron(p, p)))))
                for p in (qop.PAULI_X, qop.PAULI_Z, qop.PAULI_Y))
        assert sig["phi_plus"] == (1, 1, -1)
        assert sig["phi_minus"] == (-1, 1, 1)
        assert sig["psi_plus"] == (1, -1, 1)
        assert sig["psi_minus"] == (-1, -1, -1)

    def test_rejects_invalid(self):
        with pytest.raises(qop.QopError):
            protocol.stabilizer_fidelity(np.eye(4))
        with pytest.raises(qop.QopError):
            protocol.stabilizer_fidelity(np.eye(2) / 2)


class TestBell:
    def test_identity_channel_at_swap_targets(self):
        # with g = t = 0 the protocol only moves the pair to the left
        # block; the state there is exactly Phi+
        cfg = protocol.ProtocolConfig(message="bell_phi_plus",
                                      swap_variant="bell_sequential",
                                      seed=0, beta=4.0, g=0.0, t=0.0)
        eng = protocol.get_engine(cfg)
        psi = protocol.build_insert(cfg).matrix @ np.kron(eng.message_vector(),
                                                         eng.tfd_vector(cfg.beta))
        targets = [b for _, b in cfg.swap_site_pairs()]
        rho = qop.reduced_density(psi, eng.reg.n_qubits, targets)
        assert protocol.stabilizer_fidelity(rho) == pytest.approx(1.0, abs=1e-10)
        # and the engine's readout at g = t = 0 is that of W_R INSERT |m>|TFD>
        v = eng.eig_right.vectors
        w_r = (v * eng.thermal_weight_right(np.array([cfg.beta]))[0]) @ v.conj().T
        w_r = np.kron(np.eye(eng.reg.dim // len(w_r)), w_r)
        want = _dense_readout([w_r @ psi], eng.reg.n_qubits, eng.readout)
        got = eng.finish(eng.message_vector(), cfg.beta, [cfg.g], cfg.t, _normalized)[0]
        assert np.abs(got - want).max() <= 1e-10

    def test_readout_density_matrix_is_physical(self):
        cfg = protocol.ProtocolConfig(message="bell_phi_plus",
                                      swap_variant="bell_sequential",
                                      seed=1, beta=20.0, g=1.9,
                                      t=protocol.DEFAULT_T_BELL)
        eng = protocol.get_engine(cfg)
        rho = eng.finish(eng.message_vector(), cfg.beta, [cfg.g], cfg.t, lambda r: r)[0]
        trace = np.trace(rho)
        assert trace.real > 0 and abs(trace.imag) <= 1e-12 * trace.real
        rho = rho / trace
        assert np.abs(rho - rho.conj().T).max() <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-9
        val = eng.curve_bell(cfg.beta, cfg.t, [cfg.g])[0]
        assert abs(val - eng.bell_value(rho)) <= 1e-14
        assert -1.0 <= val <= 2.0

    def test_periodicity(self):
        engb = protocol.get_engine(_bell_cfg(seed=2))
        for g in (0.4, 1.7, 3.0):
            a = engb.curve_bell(10.0, protocol.DEFAULT_T_BELL, [g])[0]
            b = engb.curve_bell(10.0, protocol.DEFAULT_T_BELL, [g + 2 * math.pi])[0]
            assert abs(a - b) <= 1e-8

    def test_infinite_beta_rejected(self):
        with pytest.raises(protocol.ConfigError):
            _bell_cfg(beta=math.inf).validate()
        engb = protocol.get_engine(_bell_cfg())
        with pytest.raises(protocol.ConfigError):
            engb.curve_bell(math.inf, protocol.DEFAULT_T_BELL, [0.5])


def _block_majorana(side: str, j: int) -> np.ndarray:
    """Majorana j of one side on the doubled 6-qubit block, by one
    Jordan-Wigner ordering over the block: left j is block mode j//2,
    right j the mirrored block mode 5 - j//2."""
    mode = j // 2 if side == "left" else 5 - j // 2
    return qop.majorana(6, 2 * mode + j % 2)


def _two_sided_correlator(i: int, j: int, beta: float, h_side: np.ndarray) -> complex:
    """<TFD(beta)| gL_i gR_j |TFD(beta)> on the doubled block, the TFD
    built by tfd.build_tfd from the side Hamiltonian's eigensystem."""
    reg = layout.RegisterLayout(n_message=1, n_side=3)
    state = tfd.build_tfd(qop.hermitian_eig(h_side), beta, reg)
    op = _block_majorana("left", i) @ _block_majorana("right", j)
    return complex(qop.expectation(state, op))


class TestThermalCorrelation:
    """The two-sided Majorana correlator in the thermofield double: unit
    magnitude for the matched pair at beta = 0, bounded, and the same from
    the Engine's TFD weights w(beta) on the pair coefficients K0."""

    def _h(self, seed):
        c = models.sample_syk_couplings(6, 4, protocol.DEFAULT_J_SCALE, seed)
        return models.build_syk_side_matrix(c, "left", 3)

    def test_infinite_temperature_uniform_weights(self):
        # oracle: uniform-weight double sum over raw matrix elements, with
        # the right eigenvectors paired to the left ones by the pair vacuum
        h = self._h(0)
        eig = qop.hermitian_eig(h)
        v_pair = math.sqrt(8) * (layout.bell_vacuum(3).reshape(8, 8).T @ eig.vectors.conj())
        # restrict block operators to the factors they act on
        a = eig.vectors.conj().T @ layout.left_majorana_local(3, 1) @ eig.vectors
        string = qop.kron_all([qop.PAULI_Z] * 3)
        right = layout.mirror(layout.left_majorana_local(3, 4), 3)
        b = v_pair.conj().T @ (string @ right) @ v_pair
        want = (a * b).sum() / 8.0
        got = _two_sided_correlator(1, 4, 0.0, h)
        assert abs(got - want) <= 1e-10

    def test_eigen_route_matches_state_route(self):
        # second route: the Engine's K(beta) = diag(w(beta)) K0 taken back
        # to the sites, T = V_L K V_R^T
        beta = 6.0
        eng = protocol.Engine(protocol.ProtocolConfig(seed=1))
        k = eng.tfd_weights(np.array([beta]))[0][:, None] * _pair_coefficients(eng)
        state = (eng.eig_left.vectors @ k @ eng.eig_right.vectors.T).reshape(-1)
        op = _block_majorana("left", 0) @ _block_majorana("right", 2)
        want = np.vdot(state, op @ state)
        assert abs(_two_sided_correlator(0, 2, beta, self._h(1)) - want) <= 1e-12

    def test_bounded(self):
        h = self._h(2)
        for (i, j) in ((0, 0), (1, 3), (5, 2)):
            assert abs(_two_sided_correlator(i, j, 4.0, h)) <= 1.0 + 1e-9

    def test_matched_pair_dominates(self):
        diag, far = [], []
        for seed in range(6):
            h = self._h(seed)
            diag.append(abs(_two_sided_correlator(0, 0, 0.0, h)))
            far.append(abs(_two_sided_correlator(4, 0, 0.0, h)))
        assert np.mean(diag) > np.mean(far)
        assert np.mean(diag) == pytest.approx(1.0, abs=1e-10)


class TestTfimModel:
    def test_zero_steps_is_undriven_baseline(self):
        # k = 0: the coupling alone teleports through the pair state
        eng = protocol.get_engine(protocol.ProtocolConfig(model="tfim", seed=0))
        assert eng.curve_basis_z(0.0, 0.0, [math.pi / 2])[0] == pytest.approx(1.0, abs=1e-10)

    def test_driven_channel_is_weak(self):
        gs = np.linspace(0, 2 * math.pi, 41)
        peaks = []
        for seed in range(5):
            eng = protocol.get_engine(
                protocol.ProtocolConfig(model="tfim", seed=seed, t=1.0))
            peaks.append(eng.curve_basis_z(0.0, 1.0, gs).max())
        assert np.mean(peaks) < 0.3

    def test_zero_below_n_side_kicks_at_beta_zero(self, monkeypatch):
        # at beta 0 the self-dual chain reads <Z> = 0 to round-off after
        # 1 to n_side - 1 kicks, for 20 seeds at every g of the default
        # grid, and not after n_side kicks; off the self-dual point one kick
        # reads it.  That this is the light cone of a dual-unitary circuit
        # at infinite temperature (Bertini, Kos and Prosen, PRL 123, 210601
        # (2019)) is a hypothesis; it is not derived here.
        seeds, gs = range(20), analysis.DEFAULT_G_GRID
        for n_side in (2, 3, 4):
            eng = protocol.Engine(protocol.ProtocolConfig(model="tfim", n_side=n_side), seeds)
            z = np.abs(eng.curve_basis_z(0.0, np.arange(1.0, n_side + 1), gs))
            assert z.shape == (len(seeds), n_side, len(gs))
            assert z[:, :-1].max() <= 1e-13
            assert z[:, -1].max() > 0.1
        # the control: (J, b) = (0.3, 0.7), with the realizations built anew
        monkeypatch.setattr(models, "TFIM_J_COUPLING", 0.3)
        monkeypatch.setattr(models, "TFIM_B_FIELD", 0.7)
        protocol._realization.clear()
        try:
            for n_side in (2, 3, 4):
                cfg = protocol.ProtocolConfig(model="tfim", n_side=n_side)
                assert np.abs(protocol.Engine(cfg, seeds).curve_basis_z(0.0, 1.0, gs)).max() > 0.05
        finally:
            protocol._realization.clear()

    @pytest.mark.parametrize("thermal", [True, False])
    def test_pipeline_matches_floquet_steps(self, thermal):
        # dense route: k Floquet periods as matrix powers on the full
        # register; the right factor runs the chain with its sites reversed
        mirror = qop.swap_matrix(3, 0, 2)
        i8 = np.eye(8)
        for seed in (0, 1):
            u1 = models.build_tfim_floquet(models.TfimParams.sample(3, seed))
            u_l = qop.kron_all([qop.I2, u1, i8])
            u_r = qop.kron_all([qop.I2, i8, mirror @ u1 @ mirror])
            h1 = 1j * logm(u1)          # u1 = exp(-i H1), principal branch
            h1 = 0.5 * (h1 + h1.conj().T) - np.linalg.eigvalsh(h1).min() * i8
            ins = qop.swap_matrix(REG1.n_qubits, 0, 1)
            eng = protocol.Engine(protocol.ProtocolConfig(
                model="tfim", seed=seed, thermal_readout=thermal))
            powers = [(np.linalg.matrix_power(u_l, k), np.linalg.matrix_power(u_r, k))
                      for k in range(5)]
            couplings = [(g, eng.size.exp_ig_embedded(REG1, g)) for g in (0.0, 1.3)]
            for beta in (0.0, 5.0):
                weight = expm(-0.5 * beta * h1)
                vac = np.kron(weight, i8) @ layout.bell_vacuum(3)
                tfd_state = vac / np.linalg.norm(vac)
                w_r = qop.kron_all([qop.I2, i8, mirror @ weight @ mirror])
                if not thermal:
                    w_r = np.eye(REG1.dim)
                for k, (ul_k, ur_k) in enumerate(powers):
                    for g, coupling in couplings:
                        u = w_r @ ur_k @ coupling @ ul_k @ ins @ ul_k.conj().T
                        _check_readouts(eng, beta, g, float(k),
                                        lambda m: u @ np.kron(m, tfd_state), 1e-12)
