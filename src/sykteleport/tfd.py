"""Thermofield-double preparation on the doubled register."""

from __future__ import annotations

import numpy as np

from . import layout, qop


def log_partition_function(spectrum, beta: float) -> float:
    """log Z with Z = sum_n exp(-beta E_n); always finite for finite spectra."""
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


def build_tfd(h_side, beta: float, register: layout.RegisterLayout) -> np.ndarray:
    """Normalized thermofield double of a side Hamiltonian at inverse
    temperature beta, a vector on the 2*n_side-qubit left+right block.

    `h_side` is the left-factor matrix on n_side qubits, or its
    `qop.EigenSystem` when the caller already holds one (the Floquet
    baseline passes its quasi-energy spectrum this way).  The state is
    exp(-beta H/2) applied to the left half of the infinite-temperature
    pair state `layout.bell_vacuum`, normalized:

    * at beta = 0 it is the product of maximally entangled pairs,
    * the reduced state on either side is exactly the Gibbs state of
      that side's Hamiltonian at beta,
    * Schmidt coefficients across the cut are exp(-beta E_n/2)/sqrt(Z).

    The weight is a function of H alone (its spectral projectors), so the
    state does not depend on which eigenvectors the eigensolver returns
    inside a degenerate level; the pair state fixes the right-hand partner
    of every left level.
    """
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
    weight = (eig.vectors * w) @ eig.vectors.conj().T
    vec = qop.apply_matrix_on_sites(
        layout.bell_vacuum(n_side).copy(), 2 * n_side, weight, 0, n_side
    )
    return vec / np.linalg.norm(vec)


def entanglement_entropy(state: np.ndarray) -> float:
    """Von Neumann entropy across the left/right cut of a left+right block
    state (e.g. a thermofield double), in nats."""
    d = int(round(np.sqrt(state.size)))
    s = np.linalg.svd(np.reshape(state, (d, d)), compute_uv=False)
    p = s ** 2
    p = p[p > 1e-300]
    return float(-(p * np.log(p)).sum())
