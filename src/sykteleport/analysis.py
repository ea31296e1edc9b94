"""Parameter sweeps, disorder statistics, recovery times and the
exponential-decay temperature fit."""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product, repeat
from typing import NamedTuple

import numpy as np

from . import protocol

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_G_GRID = tuple(np.arange(0.0, 4 * math.pi + 1e-12, math.pi / 50))
DEFAULT_T_GRID = tuple(np.arange(0.0, 20.0 + 1e-12, 0.25))
DEFAULT_BETA_GRID = (0.0, 1.0, 5.0, 10.0, 20.0, 50.0, 80.0, 100.0)
DEFAULT_SEEDS = tuple(range(20))
BELL_T_WINDOW = tuple(np.arange(2.0, 20.0 + 1e-12, 0.25))

METRICS = ("basis_z", "arbitrary_avg", "bell_stabilizer")


class SweepError(ValueError):
    """Raised on malformed sweep specifications or incomplete data."""


@dataclass(frozen=True)
class SweepSpec:
    """Cross product of (seed, beta, g, t) protocol evaluations."""

    base: protocol.ProtocolConfig
    g_grid: tuple = DEFAULT_G_GRID
    t_grid: tuple = (protocol.DEFAULT_T_SINGLE,)
    beta_grid: tuple = DEFAULT_BETA_GRID
    seeds: tuple = DEFAULT_SEEDS
    metric: str = "basis_z"
    n_samples: int = 100  # arbitrary_avg only

    def validate(self) -> "SweepSpec":
        if self.metric not in METRICS:
            raise SweepError(f"unknown metric {self.metric!r}")
        for name in ("g_grid", "t_grid", "beta_grid"):
            grid = getattr(self, name)
            if len(grid) == 0:
                raise SweepError(f"{name} must be nonempty")
            if not all(math.isfinite(v) for v in grid):
                raise SweepError(f"{name} values must be finite")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise SweepError(f"{name} must be strictly increasing")
        if self.beta_grid[0] < 0:
            raise SweepError("beta_grid values must be nonnegative")
        if len(self.seeds) == 0:
            raise SweepError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            # a repeated seed would weigh one realization twice in ensemble_mean
            raise SweepError("seeds must not repeat")
        if self.metric == "bell_stabilizer":
            if self.base.message != "bell_phi_plus":
                raise SweepError("bell_stabilizer needs the Bell message")
        elif self.base.message == "bell_phi_plus":
            raise SweepError(f"{self.metric} does not take the Bell message")
        self.base.validate()
        return self


class FidelityRecord(NamedTuple):
    """One evaluated grid point."""

    seed: int
    beta: float
    g: float
    t: float
    metric: str
    variant: str
    value: float

    def sort_key(self):
        return self[:4]  # (seed, beta, g, t)

    def unit_interval_value(self) -> float:
        """[0, 1] companion column: recovery probability for <Z>, the raw
        value for metrics already reported on a fidelity scale."""
        if self.metric == "basis_z":
            return 0.5 * (1.0 + self.value)
        return self.value


def _records_for_seed(spec: SweepSpec, seed: int):
    """Every record of one seed in key order (beta, g, t): one engine call
    per beta covers the whole (t, g) grid."""
    out = []
    base = replace(spec.base, seed=seed)
    eng = protocol.get_engine(base)
    metric, variant = spec.metric, spec.base.swap_variant
    g_grid = [float(g) for g in spec.g_grid]
    t_grid = [float(t) for t in spec.t_grid]
    for beta in spec.beta_grid:
        if metric == "basis_z":
            values = eng.curve_basis_z(beta, spec.t_grid, spec.g_grid)
        elif metric == "bell_stabilizer":
            values = eng.curve_bell(beta, spec.t_grid, spec.g_grid)
        else:
            values, _ = eng.curve_arbitrary_avg(beta, spec.t_grid, spec.g_grid,
                                                spec.n_samples, seed)
        beta = float(beta)
        out.extend([FidelityRecord(seed, beta, g, t, metric, variant, value)
                    for (g, t), value in zip(product(g_grid, t_grid),
                                             values.T.ravel().tolist())])
    return out


def run_sweep(spec: SweepSpec, workers: int = 1):
    """Evaluate every grid point for every seed.

    Records come in key order (seed, beta, g, t) for any worker count:
    seeds are visited in ascending order, each one's records are already
    ordered (the grids are strictly increasing), and no seed repeats.  The
    pool never holds more processes than there are seeds or CPUs.
    """
    spec.validate()
    workers = min(workers, len(spec.seeds), os.cpu_count() or 1)
    seeds = sorted(spec.seeds)
    records = []
    if workers <= 1:
        for seed in seeds:
            records.extend(_records_for_seed(spec, seed))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(_records_for_seed, repeat(spec), seeds):
                records.extend(chunk)
    return records


def ensemble_mean(records, group_by=("beta", "g", "t")):
    """Mean and standard error per group, keyed by ascending group key;
    stderr is 0 for singletons.

    One stable sort by the group_by columns lays each group's values out
    contiguously, in record order.
    """
    recs = list(records)
    if not recs:
        raise SweepError("no records to aggregate")
    columns = [np.array([getattr(r, a) for r in recs]) for a in group_by]
    order = np.lexsort(columns[::-1])
    values = np.array([r.value for r in recs])[order]
    same = np.ones(len(recs) - 1, dtype=bool)  # record i + 1 joins i's group
    for col in columns:
        col = col[order]
        same &= col[1:] == col[:-1]
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    out = {}
    for i, members in zip(order[starts], np.split(values, starts[1:])):
        n = len(members)
        stderr = float(members.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        out[tuple(getattr(recs[i], a) for a in group_by)] = (
            float(members.mean()), stderr, n)
    return out


def recovery_time(records) -> float:
    """The t maximizing the fidelity; ties resolve to the smallest t."""
    recs = list(records)
    if not recs:
        raise SweepError("no records")
    for a in ("seed", "beta", "g", "metric", "variant"):
        if len({getattr(r, a) for r in recs}) > 1:
            raise SweepError(f"records differ in {a}; recovery_time needs a pure t-sweep")
    best_t, best_v = None, -math.inf
    for rec in sorted(recs, key=lambda r: r.t):
        if rec.value > best_v + 1e-15:
            best_t, best_v = rec.t, rec.value
    return float(best_t)


@dataclass(frozen=True)
class FitResult:
    """A + B exp(-beta/beta_c) least-squares fit."""

    a: float
    b: float
    beta_c: float
    residual: float
    trace: tuple = field(default=(), repr=False)


class FitError(ValueError):
    pass


def _linear_solve(betas, values, beta_c):
    e = np.exp(-betas / beta_c)
    m = np.stack([np.ones_like(e), e], axis=1)
    coef, *_ = np.linalg.lstsq(m, values, rcond=None)
    resid = float(((m @ coef - values) ** 2).sum())
    return coef, resid


def fit_beta_c(points, lo: float = 0.1, hi: float = 1000.0,
               iterations: int = 200) -> FitResult:
    """Separable least squares for F(beta) = A + B exp(-beta/beta_c).

    Golden-section search over beta_c with the (A, B) pair solved in
    closed form at every candidate; fully deterministic.
    """
    pts = sorted((float(b), float(f)) for b, f in points)
    betas = np.array([p[0] for p in pts])
    values = np.array([p[1] for p in pts])
    if len(betas) < 3 or len(set(betas)) < 3:
        raise FitError("need at least three distinct beta values")
    if float(values.std()) < 1e-14:
        raise FitError("constant data: beta_c is not identifiable")
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    _, f1 = _linear_solve(betas, values, x1)
    _, f2 = _linear_solve(betas, values, x2)
    trace = [min(f1, f2)]
    for _ in range(iterations):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            _, f1 = _linear_solve(betas, values, x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            _, f2 = _linear_solve(betas, values, x2)
        trace.append(min(trace[-1], min(f1, f2)))
        if b - a < 1e-12 * max(1.0, abs(a)):
            break
    beta_c = 0.5 * (a + b)
    coef, resid = _linear_solve(betas, values, beta_c)
    return FitResult(a=float(coef[0]), b=float(coef[1]), beta_c=float(beta_c),
                     residual=math.sqrt(resid / len(betas)), trace=tuple(trace))


def peak_statistics(records, beta: float):
    """Ensemble mean and stderr of the per-seed peak over (g, t) at beta."""
    per_seed: dict = {}
    for rec in records:
        if rec.beta != beta:
            continue
        if rec.seed not in per_seed or rec.value > per_seed[rec.seed]:
            per_seed[rec.seed] = rec.value
    if not per_seed:
        raise SweepError(f"no records at beta={beta}")
    arr = np.array(list(per_seed.values()))
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return float(arr.mean()), stderr


def compare_models(spec_syk: SweepSpec, spec_tfim: SweepSpec, workers: int = 1):
    """Peak-over-g ensemble means for both models on matched g grids."""
    if tuple(spec_syk.g_grid) != tuple(spec_tfim.g_grid):
        raise SweepError("model comparison needs matching g grids")
    out = {}
    for name, spec in (("syk", spec_syk), ("tfim", spec_tfim)):
        records = run_sweep(spec, workers=workers)
        beta = spec.beta_grid[0]
        mean, stderr = peak_statistics(records, beta)
        out[name] = {"peak_mean": mean, "peak_stderr": stderr,
                     "beta": beta, "records": records}
    out["difference"] = out["syk"]["peak_mean"] - out["tfim"]["peak_mean"]
    out["combined_stderr"] = out["syk"]["peak_stderr"] + out["tfim"]["peak_stderr"]
    return out


def heatmap(records, x_axis: str, y_axis: str):
    """Dense grid of ensemble means over two record axes.

    Returns (x_values, y_values, grid) with grid[i, j] the mean at
    (y_values[i], x_values[j]); any missing cell is an error.
    """
    if x_axis == y_axis:
        raise SweepError("heatmap axes must differ")
    means = ensemble_mean(records, group_by=(y_axis, x_axis))
    ys = sorted({k[0] for k in means})
    xs = sorted({k[1] for k in means})
    if len(means) != len(ys) * len(xs):
        raise SweepError("heatmap grid has missing cells")
    # the keys ascend in (y, x), so a complete grid is the means row-major
    grid = np.array([mean for mean, _, _ in means.values()])
    return np.array(xs), np.array(ys), grid.reshape(len(ys), len(xs))


def size_spectral_gap(size_op) -> float:
    """Gap between the two smallest distinct nonzero occupation levels."""
    distinct = sorted(set(int(v) for v in size_op.eigenvalues) - {0})
    if len(distinct) < 2:
        raise SweepError("size operator has fewer than two nonzero levels")
    return float(distinct[1] - distinct[0])


def fixed_point_temperature_curve(records):
    """F(beta) of the ensemble-mean fidelity at one fixed (g*, t*).

    (g*, t*) is the argmax of the ensemble-mean curve at the smallest
    beta in the records; the returned points trace how the fidelity of
    that one protocol setting degrades as beta grows.
    """
    means = ensemble_mean(records, group_by=("beta", "t", "g"))
    betas = sorted({k[0] for k in means})
    b0 = betas[0]
    best = None
    for (b, t, g), (mean, _, _) in means.items():
        if b == b0 and (best is None or mean > best[0] + 1e-15):
            best = (mean, t, g)
    _, t_star, g_star = best
    points = []
    for b in betas:
        points.append((b, means[(b, t_star, g_star)][0]))
    return points, g_star, t_star


def optimal_g(records, beta: float, t: float | None = None):
    """The g maximizing the ensemble-mean curve at one beta (and t)."""
    means = ensemble_mean(records, group_by=("beta", "t", "g"))
    best_g, best_v = None, -math.inf
    for (b, tt, g), (value, _, _) in means.items():
        if b != beta:
            continue
        if t is not None and tt != t:
            continue
        if value > best_v + 1e-15:
            best_g, best_v = g, value
    if best_g is None:
        raise SweepError(f"no records at beta={beta}")
    return float(best_g)
