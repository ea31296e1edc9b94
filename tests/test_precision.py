"""The fast pipeline against an independent high-precision route.

The route takes the float64 inputs as exact data (the side Hamiltonians;
the pair occupations and the scaled pair vacuum, whose entries are 0,
+-1/2, +-i/2, +-1 or +-i) and evaluates everything else in 40-digit
arithmetic: the
mpmath eigensystems of the two 2^n_side-square sides, the coupling
exp(i g upsilon) as the exact product of its commuting pair projectors,
prod_j (1 + (exp(i g) - 1) n_j), and the 2 * 4^n_side-dimensional state.

At large beta the thermally weighted final state is small (its norm is
about 2e-6 at beta = 100) while the pieces that cancel in it are O(1), so
a float64 readout can only be good to about eps/norm (forward error =
condition x eps; N. J. Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 2002, ch. 1 and 19).  The test holds both coupling
orders, the maps order of one g and the level order of the g sweep, to
C eps/norm.
"""

import math
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from sykteleport import layout, models, protocol

SEED = 8350510533860217964
T = 1.0
DPS = 40
EPS = np.finfo(float).eps
# bound on |fast - exact| in units of eps/norm; both orders read 0.5-3.3
# of these units at the points below (numpy 2.4, OpenBLAS)
C = 8.0
POINTS = ((100.0, math.pi), (100.0, 3 * math.pi), (50.0, math.pi),
          (50.0, 3 * math.pi), (0.0, math.pi))


def _mp(a):
    """A float64/complex128 array as an object array of exact mpc."""
    return np.vectorize(lambda z: mpmath.mpc(complex(z)), otypes=[object])(np.asarray(a))


@lru_cache(maxsize=None)
@mpmath.workdps(DPS)
def _exact_inputs():
    n_side = 3
    c = models.sample_syk_couplings(2 * n_side, 4, protocol.DEFAULT_J_SCALE, SEED)
    sides = []
    for side in ("left", "right"):
        values, vectors = mpmath.mp.eighe(mpmath.matrix(
            models.build_syk_side_matrix(c, side, n_side).tolist()))
        vectors = np.array(vectors.tolist(), dtype=object)
        sides.append(([values[i] for i in range(values.rows)], vectors))
    d = 2 ** n_side
    vacuum = _mp(np.round(layout.bell_vacuum(n_side) * math.sqrt(d))).reshape(d, d)
    # each pair occupation (1 + i gL gR)/2 has at most two nonzero entries
    # a row, kept as (row, column, value), so that applying one skips the
    # products with its exact zeros
    occupations = []
    for j in protocol.default_size_modes(2 * n_side):
        n_j = layout.pair_number_op(n_side, j)
        occupations.append([(i, k, mpmath.mpc(complex(n_j[i, k])))
                            for i, k in zip(*np.nonzero(n_j))])
    return sides, vacuum, occupations


def _function(side, f):
    """f(H) = V diag(f(E)) V^dagger for one side's mp eigensystem."""
    values, vectors = side
    return (vectors * np.array([f(e) for e in values], dtype=object)) @ vectors.conj().T


@mpmath.workdps(DPS)
def _exact_point(beta: float, g: float):
    """(<Z> on the readout site, norm of the weighted final state) for the
    basis message |0>, delta01 insert, thermal readout."""
    (left, right), vacuum, occupations = _exact_inputs()
    beta, g, t = mpmath.mpf(beta), mpmath.mpf(g), mpmath.mpf(T)
    e_left, e_right = min(left[0]), min(right[0])
    tfd = _function(left, lambda e: mpmath.exp(-beta * (e - e_left) / 2)) @ vacuum
    tfd = tfd / mpmath.sqrt(sum(abs(z) ** 2 for z in tfd.ravel()))
    d = len(tfd)
    # |0> (x) TFD over (message, left, right)
    psi = np.zeros((2, d, d), dtype=object)
    psi[...] = mpmath.mpc(0)
    psi[0] = tfd
    back = _function(left, lambda e: mpmath.expj(t * e))
    fwd = _function(left, lambda e: mpmath.expj(-t * e))
    psi = np.einsum("ab,mbr->mar", back, psi)
    # INSERT: swap the message qubit with the first (most significant) left qubit
    psi = psi.reshape(2, 2, d // 2, d).transpose(1, 0, 2, 3).reshape(2, d, d)
    psi = np.einsum("ab,mbr->mar", fwd, psi)
    phase = mpmath.expj(g) - 1
    psi = psi.reshape(2, d * d)
    for n_j in occupations:
        applied = np.full_like(psi, mpmath.mpc(0))
        for i, k, value in n_j:
            applied[:, i] += psi[:, k] * value
        psi = psi + phase * applied
    psi = psi.reshape(2, d, d)
    weight = _function(right, lambda e: mpmath.exp(-beta * (e - e_right) / 2)
                       * mpmath.expj(-t * e))
    psi = np.einsum("mla,ra->mlr", psi, weight)
    prob = np.vectorize(lambda z: abs(z) ** 2, otypes=[object])(psi)
    up, down = sum(prob[..., 0::2].ravel()), sum(prob[..., 1::2].ravel())
    return float((up - down) / (up + down)), float(mpmath.sqrt(up + down))


@pytest.mark.parametrize("beta, g", POINTS)
def test_basis_z_within_eps_over_norm(beta, g):
    exact, norm = _exact_point(beta, g)
    eng = protocol.get_engine(protocol.ProtocolConfig(seed=SEED))
    # one g: the maps order; five values of g: the g sweep's level order
    single = eng.curve_basis_z(beta, T, [g])[0]
    sweep = eng.curve_basis_z(beta, T, [g, 0.3, 1.1, 2.0, 4.5])[0]
    bound = C * EPS / norm
    assert abs(single - exact) <= bound
    assert abs(sweep - exact) <= bound
    if beta == 100.0:
        # the regime the bound is about: the norm is small and the bound
        # far above eps
        assert norm < 1e-5
