"""Parameter sweeps, disorder statistics, recovery times and the
exponential-decay temperature fit.

A sweep's unit of work is a contiguous slice of seeds: one engine over
the slice's seed axis, whose realizations and Haar messages are one
batched build each, and one engine call, in one process or spread over a
pool; only a sweep with more than one worker imports the process pool,
so a serial run loads no multiprocessing.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import repeat
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
        if self.base.model == "tfim":
            protocol._check_step_counts(self.t_grid, SweepError)
        if len(self.seeds) == 0:
            raise SweepError("need at least one seed")
        if not all(map(protocol._is_integer, self.seeds)):
            raise SweepError("seeds must be integers")
        if len({int(s) % 2 ** 64 for s in self.seeds}) != len(self.seeds):
            # a repeated seed would weigh one realization twice in
            # ensemble_mean; the draws take seeds mod 2^64, so -1 repeats
            # 2^64 - 1
            raise SweepError("seeds must not repeat (mod 2^64)")
        if self.metric == "arbitrary_avg":
            if not protocol._is_integer(self.n_samples):
                raise SweepError(f"n_samples must be an integer, got {self.n_samples!r}")
            if self.n_samples < 1:
                raise SweepError("n_samples must be at least 1")
        if self.metric == "bell_stabilizer":
            if self.base.message != "bell_phi_plus":
                raise SweepError("bell_stabilizer needs the Bell message")
        elif self.base.message == "bell_phi_plus":
            raise SweepError(f"{self.metric} does not take the Bell message")
        self.base.validate()
        return self


class FidelityRecord(NamedTuple):
    """One evaluated grid point: the row view of a RecordTable."""

    seed: int
    beta: float
    g: float
    t: float
    metric: str
    variant: str
    value: float


KEY_COLUMNS = ("seed", "beta", "g", "t")
_COLUMNS = KEY_COLUMNS + ("value",)


def _seed_column(seeds) -> np.ndarray:
    """Seeds as int64, or as Python ints where one does not fit in 64 bits."""
    try:
        return np.array(seeds, dtype=np.int64)
    except OverflowError:
        return np.array(seeds, dtype=object)


def _one_kind(kinds: set) -> tuple:
    """The one (metric, variant) pair of a table's input."""
    if not kinds:
        raise SweepError("no records")
    if len(kinds) != 1:
        raise SweepError("a record table needs rows of one (metric, variant), "
                         f"got {sorted(kinds)}")
    return next(iter(kinds))


class RecordTable:
    """Evaluated grid points of one (metric, variant) as columns of equal
    length.

    `seed`, `beta`, `g`, `t` and `value` are 1-D arrays; `metric` and
    `variant` hold for every row.  `from_rows`, `concat` and `+` reject
    empty input and input that mixes kinds.  Iterating, or indexing with an
    integer, yields FidelityRecord rows; a slice or index array yields a
    table.
    """

    __slots__ = _COLUMNS + ("metric", "variant")

    def __init__(self, seed, beta, g, t, value, metric: str, variant: str):
        self.seed, self.beta, self.g, self.t, self.value = seed, beta, g, t, value
        self.metric, self.variant = metric, variant

    @classmethod
    def from_rows(cls, rows) -> "RecordTable":
        """A table of an iterable of rows with the FidelityRecord fields; a
        RecordTable is returned as it is."""
        if isinstance(rows, RecordTable):
            return rows
        rows = list(rows)
        metric, variant = _one_kind({(r.metric, r.variant) for r in rows})
        return cls(_seed_column([r.seed for r in rows]),
                   *(np.array([getattr(r, c) for r in rows], dtype=float)
                     for c in _COLUMNS[1:]), metric, variant)

    @classmethod
    def concat(cls, tables) -> "RecordTable":
        """The rows of every table, in order."""
        tables = [cls.from_rows(t) for t in tables]
        metric, variant = _one_kind({(t.metric, t.variant) for t in tables})
        return cls(*(np.concatenate([getattr(tab, c) for tab in tables]) for c in _COLUMNS),
                   metric, variant)

    def __len__(self) -> int:
        return len(self.value)

    def __iter__(self):
        kind = (self.metric, self.variant)
        for seed, beta, g, t, value in zip(
                self.seed.tolist(), self.beta.tolist(), self.g.tolist(), self.t.tolist(),
                self.value.tolist()):
            yield FidelityRecord(seed, beta, g, t, *kind, value)

    def __getitem__(self, index):
        if not isinstance(index, slice) and np.ndim(index) == 0:
            return next(iter(self[[index]]))
        return RecordTable(*(getattr(self, c)[index] for c in _COLUMNS),
                           self.metric, self.variant)

    def __add__(self, other) -> "RecordTable":
        return RecordTable.concat((self, other))

    def __eq__(self, other):
        """Row-wise equality with another table or a list of rows."""
        if isinstance(other, (RecordTable, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def sorted(self) -> "RecordTable":
        """The rows in (seed, beta, g, t) order; the sort is stable, so rows
        with equal keys keep their order.  A table already in that order
        is returned as it is."""
        # each row's key against the next, compared as lexsort compares
        # (-0.0 equals 0.0); NaN compares unordered and takes the sort
        in_order = True
        for name in KEY_COLUMNS[::-1]:
            column = getattr(self, name)
            head, tail = column[:-1], column[1:]
            in_order = (head < tail) | ((head == tail) & in_order)
        if np.all(in_order):
            return self
        return self[np.lexsort((self.t, self.g, self.beta, self.seed))]

    def unit_interval_value(self) -> np.ndarray:
        """[0, 1] companion column: recovery probability for <Z>, the raw
        value for metrics already reported on a fidelity scale."""
        if self.metric == "basis_z":
            return 0.5 * (1.0 + self.value)
        return self.value


def _slice_values(spec: SweepSpec, seeds: list) -> np.ndarray:
    """Every value of a slice of at most ENGINE_CACHE_SIZE seeds in key
    order (seed, beta, g, t): one engine over the slice's seed axis (one
    batched realization build), one batched Haar draw, and one engine call
    over the whole grid."""
    eng = protocol.get_engine(spec.base, seeds)
    grids = (spec.beta_grid, spec.t_grid, spec.g_grid)
    if spec.metric == "basis_z":
        out = eng.curve_basis_z(*grids)
    elif spec.metric == "bell_stabilizer":
        out = eng.curve_bell(*grids)
    else:
        out, _ = eng.curve_arbitrary_avg(
            *grids, protocol.draw_haar_samples(seeds, spec.n_samples))
    return out.transpose(0, 1, 3, 2).reshape(-1)


def run_sweep(spec: SweepSpec, workers: int = 1) -> RecordTable:
    """Evaluate every grid point for every seed.

    Rows come in key order (seed, beta, g, t) for any worker count: seeds
    are visited in ascending order, the key columns are the grids broadcast
    in that order (the grids are strictly increasing), and no seed repeats.
    Each worker evaluates contiguous slices of at most
    min(ENGINE_CACHE_SIZE, ceil(n_seeds / workers)) seeds (`_slice_values`).
    The pool never holds more processes than there are slices or CPUs this
    process may run on.
    """
    spec.validate()
    if not protocol._is_integer(workers):
        raise SweepError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise SweepError(f"workers must be at least 1, got {workers}")
    seeds = sorted(spec.seeds)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(workers, len(seeds), cpus)
    size = min(protocol.ENGINE_CACHE_SIZE, -(-len(seeds) // workers))
    slices = [seeds[start:start + size] for start in range(0, len(seeds), size)]
    if workers == 1:
        values = list(map(_slice_values, repeat(spec), slices))
    else:
        # only a pool run loads the process pool (and multiprocessing)
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(slices))) as pool:
            values = list(pool.map(_slice_values, repeat(spec), slices))
    keys = np.meshgrid(_seed_column(seeds), *(np.array(grid, dtype=float) for grid in
                       (spec.beta_grid, spec.g_grid, spec.t_grid)), indexing="ij")
    return RecordTable(*(k.reshape(-1) for k in keys), np.concatenate(values),
                       spec.metric, spec.base.swap_variant)


def _first_max(items):
    """The key of the largest value of the (key, value) pairs, taken in
    order: a value must exceed the largest so far by more than 1e-15 to
    replace it, so a rise within round-off resolves to the first key.
    SweepError when no value exceeds -inf (every value NaN)."""
    best_key, best = None, -math.inf
    for key, value in items:
        if value > best + 1e-15:
            best_key, best = key, value
    if best_key is None:
        raise SweepError("no fidelity value to maximize")
    return best_key


def ensemble_mean(records, group_by=("beta", "g", "t")):
    """Mean and standard error per group, keyed by ascending group key;
    stderr is 0 for singletons.

    One stable sort by the group_by columns lays each group's values out
    contiguously, in record order.
    """
    table = RecordTable.from_rows(records)
    if not len(table):
        raise SweepError("no records to aggregate")
    if not set(group_by) <= set(KEY_COLUMNS):
        raise SweepError(f"group_by must name key columns {KEY_COLUMNS}")
    columns = [getattr(table, a) for a in group_by]
    order = np.lexsort(columns[::-1])
    values = table.value[order]
    columns = [col[order] for col in columns]
    same = np.ones(len(table) - 1, dtype=bool)  # record i + 1 joins i's group
    for col in columns:
        same &= col[1:] == col[:-1]
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    sizes = np.diff(np.append(starts, len(values)))
    means, stderrs = np.empty(len(starts)), np.empty(len(starts))
    # the groups of one size as the rows of one array: a row's mean and
    # std have the bits of the same calls on the group alone
    for n in np.flatnonzero(np.bincount(sizes)).tolist():
        which = np.flatnonzero(sizes == n)
        means[which], stderrs[which] = protocol._mean_stderr(
            values[starts[which, None] + np.arange(n)])
    keys = zip(*(col[starts].tolist() for col in columns))
    return {key: (mean, stderr, n) for key, mean, stderr, n in
            zip(keys, means.tolist(), stderrs.tolist(), sizes.tolist())}


def recovery_time(records) -> float:
    """The t maximizing the fidelity; ties resolve to the smallest t."""
    table = RecordTable.from_rows(records)
    if not len(table):
        raise SweepError("no records")
    for a in ("seed", "beta", "g"):
        column = getattr(table, a)
        if (column != column[0]).any():
            raise SweepError(f"records differ in {a}; recovery_time needs a pure t-sweep")
    order = np.argsort(table.t, kind="stable")
    return float(_first_max(zip(table.t[order].tolist(), table.value[order].tolist())))


@dataclass(frozen=True)
class FitResult:
    """A + B exp(-beta/beta_c) least-squares fit."""

    a: float
    b: float
    beta_c: float
    residual: float


class FitError(ValueError):
    pass


def _linear_solve(betas, values, beta_c):
    e = np.exp(-betas / beta_c)
    m = np.stack([np.ones_like(e), e], axis=1)
    coef, *_ = np.linalg.lstsq(m, values, rcond=None)
    resid = float(((m @ coef - values) ** 2).sum())
    return coef, resid


# the golden-section bracket for beta_c and its most steps
FIT_BETA_C_BRACKET = (0.1, 1000.0)
FIT_ITERATIONS = 200


def fit_beta_c(points) -> FitResult:
    """Separable least squares for F(beta) = A + B exp(-beta/beta_c).

    Golden-section search over beta_c in FIT_BETA_C_BRACKET with the
    (A, B) pair solved in closed form at every candidate; fully
    deterministic.
    """
    pts = sorted((float(b), float(f)) for b, f in points)
    betas = np.array([p[0] for p in pts])
    values = np.array([p[1] for p in pts])
    if len(betas) < 3 or len(set(betas)) < 3:
        raise FitError("need at least three distinct beta values")
    if float(values.std()) < 1e-14:
        raise FitError("constant data: beta_c is not identifiable")
    a, b = FIT_BETA_C_BRACKET
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    _, f1 = _linear_solve(betas, values, x1)
    _, f2 = _linear_solve(betas, values, x2)
    for _ in range(FIT_ITERATIONS):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            _, f1 = _linear_solve(betas, values, x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            _, f2 = _linear_solve(betas, values, x2)
        if b - a < 1e-12 * max(1.0, abs(a)):
            break
    beta_c = 0.5 * (a + b)
    coef, resid = _linear_solve(betas, values, beta_c)
    return FitResult(a=float(coef[0]), b=float(coef[1]), beta_c=float(beta_c),
                     residual=math.sqrt(resid / len(betas)))


def peak_statistics(records, beta: float):
    """Ensemble mean and stderr of the per-seed peak over (g, t) at beta;
    seeds are taken in the order they first appear."""
    table = RecordTable.from_rows(records)
    at_beta = table.beta == beta
    if not at_beta.any():
        raise SweepError(f"no records at beta={beta}")
    seeds, values = table.seed[at_beta], table.value[at_beta]
    _, first, group = np.unique(seeds, return_index=True, return_inverse=True)
    peaks = np.full(len(first), -math.inf)
    np.maximum.at(peaks, group, values)
    mean, stderr = protocol._mean_stderr(peaks[np.argsort(first)])
    return float(mean), float(stderr)


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


def fixed_point_temperature_curve(records):
    """F(beta) of the ensemble-mean fidelity at one fixed (g*, t*).

    (g*, t*) is the argmax of the ensemble-mean curve at the smallest
    beta in the records; the returned points trace how the fidelity of
    that one protocol setting degrades as beta grows.
    """
    means = ensemble_mean(records, group_by=("beta", "t", "g"))
    betas = sorted({k[0] for k in means})
    t_star, g_star = _first_max(((t, g), mean) for (b, t, g), (mean, _, _) in means.items()
                                if b == betas[0])
    points = []
    for b in betas:
        points.append((b, means[(b, t_star, g_star)][0]))
    return points, g_star, t_star


def optimal_g(records, beta: float):
    """The g maximizing the ensemble-mean curve at one beta."""
    table = RecordTable.from_rows(records)
    at_beta = table[table.beta == beta]  # only these rows enter the means
    if not len(at_beta):
        raise SweepError(f"no records at beta={beta}")
    means = ensemble_mean(at_beta, group_by=("beta", "t", "g"))
    return float(_first_max((g, value) for (_, _, g), (value, _, _) in means.items()))
