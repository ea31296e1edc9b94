"""Thermofield-double preparation on the doubled register."""

from __future__ import annotations

import numpy as np

from . import layout, qop


def boltzmann_weights(spectrum, beta: float) -> np.ndarray:
    """Normalized amplitudes exp(-beta E_n / 2)/sqrt(Z); safe at large beta."""
    spectrum = np.asarray(spectrum, dtype=float)
    w = np.exp(-0.5 * beta * (spectrum - spectrum.min()))
    return w / np.linalg.norm(w)


def build_tfd(eig: qop.EigenSystem, beta: float, register: layout.RegisterLayout) -> np.ndarray:
    """Normalized thermofield double of a side Hamiltonian at inverse
    temperature beta, a vector on the 2*n_side-qubit left+right block.

    `eig` is the left factor's `qop.EigenSystem` on n_side qubits (for the
    Floquet baseline, its quasi-energy spectrum).  The state is
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
    if eig.vectors.shape != (2 ** n_side, 2 ** n_side):
        raise ValueError("side eigensystem does not match the register")
    w = boltzmann_weights(eig.values, beta)
    weight = (eig.vectors * w) @ eig.vectors.conj().T
    vec = qop.apply_matrix_on_sites(
        layout.bell_vacuum(n_side).copy(), 2 * n_side, weight, 0, n_side
    )
    return vec / np.linalg.norm(vec)
