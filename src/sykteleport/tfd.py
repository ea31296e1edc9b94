"""Thermofield-double preparation on the doubled register."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import layout, qop

RIGHT_BASES = ("paired", "literal", "conjugate")


def partition_function(spectrum, beta: float) -> float:
    """Z = sum_n exp(-beta E_n), with the ground energy shifted out so the
    sum itself never overflows.  The restored prefactor exp(-beta E_min)
    can still overflow a double for extreme beta; anything that only
    needs ratios should go through boltzmann_weights/log_partition_function."""
    spectrum = np.asarray(spectrum, dtype=float)
    if spectrum.size == 0:
        raise ValueError("empty spectrum")
    shift = spectrum.min()
    core = float(np.exp(-beta * (spectrum - shift)).sum())
    try:
        return core * math.exp(-beta * shift)
    except OverflowError:
        return math.inf


def log_partition_function(spectrum, beta: float) -> float:
    """log Z, always finite for finite spectra."""
    spectrum = np.asarray(spectrum, dtype=float)
    if spectrum.size == 0:
        raise ValueError("empty spectrum")
    shift = spectrum.min()
    return float(-beta * shift + np.log(np.exp(-beta * (spectrum - shift)).sum()))


def boltzmann_weights(spectrum, beta: float) -> np.ndarray:
    """Normalized amplitudes exp(-beta E_n / 2)/sqrt(Z); safe at large beta."""
    spectrum = np.asarray(spectrum, dtype=float)
    w = np.exp(-0.5 * beta * (spectrum - spectrum.min()))
    return w / np.linalg.norm(w)


@dataclass(frozen=True)
class TfdState:
    """Normalized thermofield double on 2*n_side qubits."""

    beta: float
    state: np.ndarray
    spectrum: np.ndarray
    partition_function: float

    @property
    def n_qubits(self) -> int:
        return int(round(math.log2(self.state.size)))


def build_tfd(h_side, beta: float, register: layout.RegisterLayout,
              right_basis: str = "paired") -> TfdState:
    """Thermofield double of a side Hamiltonian at inverse temperature beta.

    `h_side` is the left-factor matrix on n_side qubits, or its
    `qop.EigenSystem` when the caller already holds one (the Floquet
    baseline passes its quasi-energy spectrum this way).  The default
    construction applies exp(-beta H/2) to the left half of the
    infinite-temperature pair state and normalizes:

    * at beta = 0 it is the product of maximally entangled pairs,
    * the reduced state on either side is exactly the Gibbs state of
      that side's Hamiltonian at beta,
    * Schmidt coefficients across the cut are exp(-beta E_n/2)/sqrt(Z).

    right_basis selects which right-factor eigenbasis pairs with level n:
    "paired" (default) is fixed by the pair structure and is equivalent
    to the conventional antiunitary pairing; "literal" reuses the left
    eigenvector components verbatim on the mirrored right factor;
    "conjugate" uses their complex conjugates.  The alternatives exist to
    quantify how much this convention moves finite-beta results.
    """
    if right_basis not in RIGHT_BASES:
        raise ValueError(f"right_basis must be one of {RIGHT_BASES}")
    n_side = register.n_side
    dim = 2 ** n_side
    if isinstance(h_side, qop.EigenSystem):
        eig = h_side
        if eig.vectors.shape != (dim, dim):
            raise ValueError("side eigensystem does not match the register")
    else:
        h_side = np.asarray(h_side, dtype=complex)
        if h_side.shape != (dim, dim):
            raise ValueError("side Hamiltonian does not match the register")
        eig = qop.hermitian_eig(h_side)
    w = boltzmann_weights(eig.values, beta)
    if right_basis == "paired":
        weight = (eig.vectors * w) @ eig.vectors.conj().T
        vec = qop.apply_matrix_on_sites(
            layout.bell_vacuum(n_side).copy(), 2 * n_side, weight, 0, n_side
        )
    else:
        right = eig.vectors if right_basis == "literal" else eig.vectors.conj()
        # mirror the right factor so pairing is left qubit k <-> site n-1-k
        mirror = _bit_reversal(n_side)
        m = (eig.vectors * w) @ (mirror @ right).T
        vec = m.reshape(-1)
    vec = vec / np.linalg.norm(vec)
    log_z = log_partition_function(eig.values, beta)
    z = math.exp(log_z) if log_z < 700.0 else math.inf
    return TfdState(beta=beta, state=vec, spectrum=eig.values, partition_function=z)


def _bit_reversal(n_qubits: int) -> np.ndarray:
    dim = 2 ** n_qubits
    p = np.zeros((dim, dim))
    for x in range(dim):
        p[int(format(x, f"0{n_qubits}b")[::-1], 2), x] = 1.0
    return p


def entanglement_entropy(state: TfdState) -> float:
    """Von Neumann entropy across the left/right cut, in nats."""
    n = state.n_qubits // 2
    m = state.state.reshape(2 ** n, 2 ** n)
    s = np.linalg.svd(m, compute_uv=False)
    p = s ** 2
    p = p[p > 1e-300]
    return float(-(p * np.log(p)).sum())


def serialize_amplitudes(state: TfdState) -> str:
    lines = ["# index real imag"]
    for i, a in enumerate(state.state):
        lines.append("%d %.17g %.17g" % (i, a.real, a.imag))
    return "\n".join(lines) + "\n"
