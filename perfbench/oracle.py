"""Dense reference for single records.

Each sampled record is recomputed from scratch on the full register with
``protocol.wormhole_unitary``, the dense protocol unitary.  Its inputs are
assembled here rather than taken from the Engine's helpers: the thermofield
double is exp(-beta H/2) on the left half of the pair vacuum as a dense
matrix exponential, INSERT is a product of ``qop.swap_matrix`` permutations,
and the size-operator coupling is a sum of ``layout.pair_number_op``
diagonalized by scipy.  The thermal readout weight is a dense matrix
exponential and the readouts are embedded Pauli/projector operators.

Shared with the fast path are the model builders in ``models``, the pair
vacuum and pair occupations in ``layout``, ``qop.swap_matrix`` and
``qop.evolve`` (inside ``wormhole_unitary``).  A fault in those shows in
both paths and only the reference values in ``reference/`` catch it.
Everything else the fast path does -- ``tfd.build_tfd``,
``protocol.build_insert``, the cached size operator and the Engine's
factorized evaluation -- is checked by agreement.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh, expm, logm

from sykteleport import layout, models, protocol, qop


def _bit_reversal(n: int) -> np.ndarray:
    dim = 2 ** n
    p = np.zeros((dim, dim))
    for x in range(dim):
        p[int(format(x, f"0{n}b")[::-1], 2), x] = 1.0
    return p


def _thermal_vacuum(h_side: np.ndarray, beta: float, n_side: int) -> np.ndarray:
    """exp(-beta H/2) on the left half of the pair vacuum, normalized."""
    shift = np.linalg.eigvalsh(h_side).min() * np.eye(len(h_side))
    weight = expm(-0.5 * beta * (h_side - shift))
    vac = qop.kron(weight, np.eye(2 ** n_side)) @ layout.bell_vacuum(n_side)
    return vac / np.linalg.norm(vac)


def _hamiltonians(cfg: protocol.ProtocolConfig):
    """(H_L, H_R) on the full register, the TFD vector, and the evolution time."""
    reg = cfg.register
    n_msg, n_side = reg.n_message, reg.n_side
    if cfg.right_basis != "paired":
        raise ValueError("the dense reference covers right_basis='paired' only")
    if cfg.model == "syk":
        couplings = models.sample_syk_couplings(2 * n_side, 4, cfg.j_scale, cfg.seed)
        h_l = models.build_syk_hamiltonian(couplings, "left", reg)
        h_r = models.build_syk_hamiltonian(couplings, "right", reg)
        h_side = models.build_syk_side_matrix(couplings, "left", n_side)
        return h_l, h_r, _thermal_vacuum(h_side, cfg.beta, n_side), cfg.t
    # Floquet model: the effective Hamiltonian with u = exp(-i H_eff), so
    # evolving for t = k reproduces k periods
    u1 = models.build_tfim_floquet(models.TfimParams.sample(n_side, cfg.seed))
    h1 = 1j * logm(u1)
    h1 = 0.5 * (h1 + h1.conj().T)
    mirror = _bit_reversal(n_side)
    h1_r = mirror @ h1 @ mirror.T
    h_l = qop.kron_all([np.eye(2 ** n_msg), h1, np.eye(2 ** n_side)])
    h_r = qop.kron_all([np.eye(2 ** (n_msg + n_side)), h1_r])
    return h_l, h_r, _thermal_vacuum(h1, cfg.beta, n_side), float(round(cfg.t))


def _insert(cfg: protocol.ProtocolConfig) -> protocol.InsertOperator:
    """INSERT as the product of qubit swaps in circuit order."""
    if cfg.fermionic_insert:
        raise ValueError("the dense reference covers qubit-swap INSERT only")
    n = cfg.register.n_qubits
    mat = np.eye(2 ** n, dtype=complex)
    for a, b in cfg.swap_site_pairs():
        mat = qop.swap_matrix(n, a, b) @ mat
    return protocol.InsertOperator(matrix=mat)


def _size_operator(cfg: protocol.ProtocolConfig) -> protocol.SizeOperator:
    """Sum of the selected pair occupations, diagonalized by scipy."""
    n_side = cfg.register.n_side
    modes = tuple(cfg.resolved_size_modes())
    mat = sum(layout.pair_number_op(n_side, j) for j in modes).astype(complex)
    values, basis = eigh(mat)
    return protocol.SizeOperator(n_side=n_side, modes=modes, matrix=mat,
                                 eigenvalues=values, basis=basis)


def _message_states(cfg: protocol.ProtocolConfig, n_samples: int):
    if cfg.message == "bell_phi_plus":
        return [np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)]
    if cfg.message == "basis_zero":
        return [np.array([1, 0], dtype=complex)]
    return [np.array(protocol.haar_qubit(cfg.seed, i), dtype=complex)
            for i in range(n_samples)]


def dense_value(cfg: protocol.ProtocolConfig, metric: str, n_samples: int) -> float:
    """The record value for cfg (seed, beta, g, t set) from the dense unitary."""
    reg = cfg.register
    n = reg.n_qubits
    h_l, h_r, state, t = _hamiltonians(cfg)
    u = protocol.wormhole_unitary(h_l, h_r, _insert(cfg), _size_operator(cfg), cfg.g, t, reg)
    weight = None
    if cfg.thermal_readout and cfg.beta > 0:
        e_min = np.linalg.eigvalsh(h_r).min()
        weight = expm(-0.5 * cfg.beta * (h_r - e_min * np.eye(reg.dim)))
    readout = cfg.resolved_readout()
    values = []
    for msg in _message_states(cfg, n_samples):
        psi = u @ np.kron(msg, state)
        if weight is not None:
            psi = weight @ psi
        psi = psi / np.linalg.norm(psi)
        if metric == "basis_z":
            op = qop.pauli_on(n, readout[0], "Z")
        elif metric == "bell_stabilizer":
            a, b = readout
            op = 0.5 * (np.eye(reg.dim) + sum(
                qop.pauli_on(n, a, p) @ qop.pauli_on(n, b, p) for p in "XYZ"))
        else:
            proj = np.outer(msg, msg.conj())
            op = qop.kron_all([proj if k == readout[0] else qop.I2 for k in range(n)])
        values.append(float(np.real(qop.expectation(psi, op))))
    return float(np.mean(values))
