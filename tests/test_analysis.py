import concurrent.futures
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sykteleport import analysis, protocol


def tiny_spec(**overrides):
    base = protocol.ProtocolConfig(seed=0)
    spec = analysis.SweepSpec(base=base, g_grid=(0.5,), t_grid=(1.0,),
                              beta_grid=(0.0,), seeds=(0,))
    return replace(spec, **overrides)


@pytest.fixture
def recording_pool(monkeypatch):
    """The max_workers of every process pool made, by a stand-in pool that
    runs its tasks in this process, in order."""
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return seen


def synth_records(values, **common):
    fields = dict(seed=0, beta=0.0, g=0.0, t=0.0, metric="basis_z",
                  variant="delta01")
    fields.update(common)
    out = []
    for key, value in values:
        f = dict(fields)
        f.update(key)
        out.append(analysis.FidelityRecord(value=value, **f))
    return out


class TestRunSweep:
    def test_single_point(self):
        records = analysis.run_sweep(tiny_spec())
        assert len(records) == 1
        rec = records[0]
        assert (rec.seed, rec.beta, rec.g, rec.t) == (0, 0.0, 0.5, 1.0)
        eng = protocol.get_engine(protocol.ProtocolConfig(seed=0))
        want = eng.curve_basis_z(0.0, 1.0, [0.5])[0]
        assert rec.value == want

    def test_grid_cross_product(self):
        spec = tiny_spec(g_grid=(0.0, 1.0, 2.0), beta_grid=(0.0, 5.0), seeds=(0, 1))
        records = analysis.run_sweep(spec)
        assert len(records) == 3 * 2 * 2

    def test_worker_count_invariance(self):
        spec = tiny_spec(g_grid=(0.0, 1.5), seeds=(0, 1, 2))
        serial = analysis.run_sweep(spec, workers=1)
        parallel = analysis.run_sweep(spec, workers=2)
        assert serial == parallel

    def test_validation(self):
        with pytest.raises(analysis.SweepError):
            tiny_spec(g_grid=()).validate()
        with pytest.raises(analysis.SweepError):
            tiny_spec(g_grid=(1.0, 0.5)).validate()
        with pytest.raises(analysis.SweepError):
            tiny_spec(metric="nope").validate()
        with pytest.raises(analysis.SweepError):
            tiny_spec(metric="bell_stabilizer").validate()
        # a non-integer count is named here, not deep in the Haar draw
        for n_samples in (0, -3, 2.5, 3.0, "4", None):
            with pytest.raises(analysis.SweepError, match="n_samples"):
                tiny_spec(metric="arbitrary_avg", n_samples=n_samples).validate()
        tiny_spec(metric="arbitrary_avg", n_samples=np.int64(3)).validate()
        tiny_spec(n_samples=0).validate()  # read by arbitrary_avg only

    def test_seeds_and_sample_counts_are_integers(self):
        # a float or bool seed would run as int(seed) and write that seed in
        # the seed column; True samples would run one message
        for seeds in ((1.5,), (True,), (0, 2.0), (np.float64(3.0),), (np.bool_(True),)):
            with pytest.raises(analysis.SweepError, match="seeds must be integers"):
                tiny_spec(seeds=seeds).validate()
            with pytest.raises(analysis.SweepError, match="seeds must be integers"):
                analysis.run_sweep(tiny_spec(seeds=seeds))
        tiny_spec(seeds=(np.int64(3), np.uint32(4), 5)).validate()
        for n_samples in (True, False, np.bool_(True)):
            with pytest.raises(analysis.SweepError, match="n_samples"):
                tiny_spec(metric="arbitrary_avg", n_samples=n_samples).validate()

    def test_tfim_t_grid_is_checked_before_any_build(self, monkeypatch):
        # kicked-Ising evolution takes nonnegative integer step counts; a
        # sweep that breaks this is named by validate, before run_sweep
        # builds a realization
        builds = []
        build = protocol._build_realizations

        def counted(batch, *params):
            builds.append(list(batch))
            return build(batch, *params)
        monkeypatch.setattr(protocol._realization, "_build", counted)
        protocol._engine_cached.cache_clear()
        protocol._realization.clear()
        base = protocol.ProtocolConfig(model="tfim", seed=0)
        for t_grid in ((0.5,), (1.0, 2.5), (-1.0, 0.0)):
            spec = tiny_spec(base=base, t_grid=t_grid)
            with pytest.raises(analysis.SweepError, match="step count"):
                spec.validate()
            with pytest.raises(analysis.SweepError, match="step count"):
                analysis.run_sweep(spec)
        assert builds == []
        # whole step counts given as floats run; the SYK model takes any t
        assert len(analysis.run_sweep(tiny_spec(base=base, t_grid=(0.0, 2.0)))) == 2
        assert builds == [[0]]
        tiny_spec(t_grid=(0.5,)).validate()

    def test_rejects_worker_counts_below_one(self):
        for workers in (0, -3):
            with pytest.raises(analysis.SweepError, match="workers"):
                analysis.run_sweep(tiny_spec(), workers=workers)

    def test_rejects_repeated_seeds(self):
        # a repeated seed would count one realization twice in ensemble_mean
        for seeds in ((0, 0), (3, 1, 3)):
            with pytest.raises(analysis.SweepError, match="repeat"):
                tiny_spec(seeds=seeds).validate()
            with pytest.raises(analysis.SweepError, match="repeat"):
                analysis.run_sweep(tiny_spec(seeds=seeds))

    def test_rejects_seeds_equal_mod_2_64(self):
        # the draws take a seed mod 2^64, so these name one realization twice
        for seeds in ((-1, 2 ** 64 - 1, 3), (2 ** 64, 0), (5, 2 ** 65 + 5)):
            with pytest.raises(analysis.SweepError, match="repeat"):
                tiny_spec(seeds=seeds).validate()
        tiny_spec(seeds=(-1, 2 ** 64 - 2)).validate()

    def test_long_sweep_builds_each_realization_once(self, monkeypatch):
        # more seeds than the caches hold: slices of ENGINE_CACHE_SIZE seeds,
        # each built in one batch and evaluated before the next
        seeds = tuple(range(100, 140))
        assert len(seeds) > protocol.ENGINE_CACHE_SIZE
        spec = tiny_spec(seeds=seeds, g_grid=(0.5, 2.0))
        batches = []
        build = protocol._build_realizations

        def counted(batch, model, j_scale, n_side):
            batches.append(len(batch))
            return build(batch, model, j_scale, n_side)
        monkeypatch.setattr(protocol._realization, "_build", counted)
        protocol._engine_cached.cache_clear()
        protocol._realization.clear()
        table = analysis.run_sweep(spec)
        assert batches == [protocol.ENGINE_CACHE_SIZE, len(seeds) - protocol.ENGINE_CACHE_SIZE]
        assert protocol._realization.builds == len(seeds)
        want = []
        for seed in seeds:
            protocol._engine_cached.cache_clear()
            protocol._realization.clear()
            eng = protocol.get_engine(replace(spec.base, seed=seed))
            want.append(eng.curve_basis_z(spec.beta_grid, spec.t_grid, spec.g_grid).reshape(-1))
        assert table.value.tobytes() == np.concatenate(want).tobytes()

    def test_haar_messages_are_drawn_once_per_slice(self, monkeypatch):
        # a serial Haar average draws the messages of each slice of seeds in
        # one batch, with the bits of each seed's lone draw
        seeds = tuple(range(200, 203 + protocol.ENGINE_CACHE_SIZE))
        spec = tiny_spec(metric="arbitrary_avg", n_samples=4, seeds=seeds)
        batches = []
        draw = protocol.draw_haar_samples

        def counted(batch, n_s):
            batches.append(len(batch))
            return draw(batch, n_s)
        monkeypatch.setattr(protocol, "draw_haar_samples", counted)
        table = analysis.run_sweep(spec)
        assert batches == [protocol.ENGINE_CACHE_SIZE, 3]
        want = []
        for seed in seeds:
            eng = protocol.get_engine(replace(spec.base, seed=seed))
            mean, _ = eng.curve_arbitrary_avg(spec.beta_grid, spec.t_grid, spec.g_grid,
                                              draw([seed], spec.n_samples)[0])
            want.append(mean.reshape(-1))
        assert table.value.tobytes() == np.concatenate(want).tobytes()

    def test_records_come_in_key_order(self):
        spec = tiny_spec(g_grid=(-1.0, 0.0, 2.5), t_grid=(0.5, 1.5),
                         beta_grid=(0.0, 3.0), seeds=(7, 2, 5))
        for workers in (1, 2):
            records = analysis.run_sweep(spec, workers=workers)
            assert [r[:4] for r in records] == sorted(r[:4] for r in records)
            assert records.sorted() is records
            assert [r.seed for r in records[::12]] == [2, 5, 7]
        rec = records[0]
        assert rec == analysis.FidelityRecord(seed=2, beta=0.0, g=-1.0, t=0.5,
                                              metric="basis_z", variant="delta01",
                                              value=rec.value)
        assert records.unit_interval_value()[0] == 0.5 * (1.0 + rec.value)

    def test_rejects_non_finite_grids(self):
        for bad in (math.nan, math.inf, -math.inf):
            for name in ("g_grid", "t_grid", "beta_grid"):
                with pytest.raises(analysis.SweepError, match="finite"):
                    tiny_spec(**{name: (0.0, bad)}).validate()
        with pytest.raises(analysis.SweepError, match="nonnegative"):
            tiny_spec(beta_grid=(-1.0, 0.0)).validate()
        with pytest.raises(protocol.ConfigError):
            tiny_spec(base=protocol.ProtocolConfig(beta=math.nan)).validate()

    def test_multi_t_matches_scalar_t_calls(self):
        # one engine call per (seed, beta) over the whole t grid gives the
        # records of one call per (seed, beta, t), bit for bit
        bell = protocol.ProtocolConfig(message="bell_phi_plus",
                                       swap_variant="bell_sequential")
        for metric, base in (("basis_z", protocol.ProtocolConfig()),
                             ("bell_stabilizer", bell),
                             ("arbitrary_avg", protocol.ProtocolConfig())):
            spec = tiny_spec(base=base, metric=metric, n_samples=7,
                             g_grid=(0.0, 1.0, 2.5), t_grid=(0.5, 1.0, 2.0, 3.5),
                             beta_grid=(0.0, 5.0), seeds=(0, 1))
            want = []
            for seed in spec.seeds:
                eng = protocol.get_engine(replace(base, seed=seed))
                for beta in spec.beta_grid:
                    for t in spec.t_grid:
                        if metric == "basis_z":
                            values = eng.curve_basis_z(beta, t, spec.g_grid)
                        elif metric == "bell_stabilizer":
                            values = eng.curve_bell(beta, t, spec.g_grid)
                        else:
                            values, _ = eng.curve_arbitrary_avg(
                                beta, t, spec.g_grid,
                                protocol.draw_haar_samples([seed], spec.n_samples)[0])
                        want.extend(analysis.FidelityRecord(
                            seed=seed, beta=beta, g=g, t=t, metric=metric,
                            variant=base.swap_variant, value=float(v))
                            for g, v in zip(spec.g_grid, values))
            want.sort(key=lambda rec: rec[:4])
            assert analysis.run_sweep(spec) == want

    @pytest.mark.parametrize("workers, cpus, want", [
        (64, 3, [3]), (64, None, []), (2, 8, [2]), (8, 8, [5]), (1, 8, []), (2, 1, []),
        (4, 8, [3])])
    def test_worker_pool_is_clamped(self, monkeypatch, recording_pool, workers, cpus, want):
        # cpus is the size of this process's affinity mask, on a machine
        # of twice as many CPUs (taskset -c 0 on two CPUs is cpus = 1);
        # None is a platform without affinity masks whose CPU count is
        # unknown.  Five seeds in four workers are three slices of at most
        # two, so three processes.
        if cpus is None:
            monkeypatch.delattr(analysis.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(analysis.os, "sched_getaffinity",
                                lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: cpus and 2 * cpus)
        spec = tiny_spec(seeds=(0, 1, 2, 3, 4))
        records = analysis.run_sweep(spec, workers=workers)
        assert recording_pool == want
        assert records == analysis.run_sweep(spec, workers=1)

    def test_worker_pool_without_affinity_masks(self, monkeypatch, recording_pool):
        monkeypatch.delattr(analysis.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: 3)
        analysis.run_sweep(tiny_spec(seeds=(0, 1, 2, 3, 4)), workers=64)
        assert recording_pool == [3]

    def test_pool_workers_take_contiguous_slices(self, monkeypatch, recording_pool):
        # each task is a slice of seeds, built and drawn in one batch each,
        # with the rows of a serial run
        monkeypatch.setattr(analysis.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        build, draw = protocol._build_realizations, protocol.draw_haar_samples
        builds, draws = [], []

        def counted_build(batch, *params):
            builds.append(len(batch))
            return build(batch, *params)

        def counted_draw(batch, n_s):
            draws.append(len(batch))
            return draw(batch, n_s)
        monkeypatch.setattr(protocol._realization, "_build", counted_build)
        monkeypatch.setattr(protocol, "draw_haar_samples", counted_draw)
        seeds = tuple(range(300, 305))
        for metric in ("basis_z", "arbitrary_avg"):
            spec = tiny_spec(metric=metric, n_samples=3, seeds=seeds, g_grid=(0.5, 2.0))
            protocol._engine_cached.cache_clear()
            protocol._realization.clear()
            del builds[:], draws[:]
            pooled = analysis.run_sweep(spec, workers=2)
            assert recording_pool[-1] == 2
            assert builds == [3, 2]
            assert draws == ([3, 2] if metric == "arbitrary_avg" else [])
            assert pooled == analysis.run_sweep(spec, workers=1)

    def test_arbitrary_avg_metric(self):
        spec = tiny_spec(metric="arbitrary_avg")
        spec = replace(spec, n_samples=5)
        (rec,) = analysis.run_sweep(spec)
        mean, _ = protocol.run_arbitrary_avg(
            replace(spec.base, message="arbitrary", beta=0.0, g=0.5, t=1.0),
            5, 0)
        assert rec.value == mean


class TestRecordTable:
    def test_run_sweep_columns_match_per_point_construction(self):
        spec = tiny_spec(g_grid=(-0.5, 0.0, 1.5), t_grid=(0.5, 2.0),
                         beta_grid=(0.0, 4.0), seeds=(9, 3))
        want = []
        for seed in (3, 9):
            eng = protocol.get_engine(replace(spec.base, seed=seed))
            for beta in spec.beta_grid:
                curve = eng.curve_basis_z(beta, spec.t_grid, spec.g_grid)
                for j, g in enumerate(spec.g_grid):
                    for i, t in enumerate(spec.t_grid):
                        want.append(analysis.FidelityRecord(seed, beta, g, t, "basis_z",
                                                            "delta01", float(curve[i, j])))
        for workers in (1, 2):
            table = analysis.run_sweep(spec, workers=workers)
            assert isinstance(table, analysis.RecordTable)
            assert table == want
            for name in analysis.KEY_COLUMNS + ("value",):
                assert getattr(table, name).tolist() == [getattr(r, name) for r in want]
            assert (table.metric, table.variant) == ("basis_z", "delta01")

    def test_row_view(self):
        table = analysis.run_sweep(tiny_spec(g_grid=(0.5, 1.0)))
        rows = list(table)
        assert len(rows) == len(table) == 2
        for i, row in enumerate(rows):
            assert isinstance(row, analysis.FidelityRecord)
            assert (row.seed, row.beta, row.g, row.t) == (0, 0.0, (0.5, 1.0)[i], 1.0)
            assert row.value == table.value[i]
            assert type(row.seed) is int and type(row.value) is float
            assert row == table[i]
        assert table[-1] == rows[-1]
        assert list(table[::-1]) == rows[::-1]

    def test_concatenation_keeps_order_of_equal_keys(self):
        left = synth_records([({"g": 1.0}, 0.1), ({"g": 0.0}, 0.2)])
        right = synth_records([({"g": 1.0, "seed": 1}, 0.3), ({"g": 0.0, "seed": 1}, 0.4),
                               ({"g": 1.0}, 0.5)])
        joined = analysis.RecordTable.from_rows(left) + analysis.RecordTable.from_rows(right)
        assert list(joined) == left + right
        assert [r.value for r in joined.sorted()] == [0.2, 0.1, 0.5, 0.4, 0.3]
        assert (joined.metric, joined.variant) == ("basis_z", "delta01")
        assert joined == left + right
        assert analysis.RecordTable.from_rows(left) != right

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from((3, 1)),
                              *[st.sampled_from((0.0, -0.0, 1.0, math.nan))] * 3),
                    min_size=1, max_size=10))
    def test_sorted_is_the_stable_lexsort(self, keys):
        # value holds each row's index, so it reads back the permutation;
        # -0.0 equals 0.0 and NaN sorts last, as in lexsort, and a table
        # already in order is returned as it is
        seed, beta, g, t = (np.array(column) for column in zip(*keys))
        table = analysis.RecordTable(seed, beta, g, t, np.arange(len(keys), dtype=float),
                                     "basis_z", "delta01")
        order = np.lexsort((t, g, beta, seed))
        result = table.sorted()
        assert result.value.tolist() == order.tolist()
        nan_free = not any(np.isnan(column).any() for column in (beta, g, t))
        if nan_free and (order == np.arange(len(keys))).all():
            assert result is table

    def test_one_kind_per_table(self):
        left = synth_records([({"g": 1.0}, 0.1)])
        right = synth_records([({"g": 1.0}, 0.3)], metric="bell_stabilizer",
                              variant="bell_sequential")
        delta02 = synth_records([({"g": 1.0}, 0.3)], variant="delta02")
        for other in (right, delta02):
            with pytest.raises(analysis.SweepError, match="one"):
                analysis.RecordTable.from_rows(left + other)
            with pytest.raises(analysis.SweepError, match="one"):
                analysis.RecordTable.concat((left, other))
            with pytest.raises(analysis.SweepError, match="one"):
                analysis.RecordTable.from_rows(left) + analysis.RecordTable.from_rows(other)
        for empty in ([], ()):
            with pytest.raises(analysis.SweepError, match="no records"):
                analysis.RecordTable.from_rows(empty)
            with pytest.raises(analysis.SweepError, match="no records"):
                analysis.RecordTable.concat(empty)

    def test_unit_interval_column_matches_rows(self):
        # the recovery probability (1 + <Z>)/2 for basis_z, the value itself
        # for a metric already on a fidelity scale
        rows = synth_records([({"g": 0.0}, -0.25), ({"g": 1.0}, 0.5)])
        table = analysis.RecordTable.from_rows(rows)
        assert table.unit_interval_value().tolist() == [0.5 * (1.0 + r.value) for r in rows]
        bell = analysis.RecordTable.from_rows(synth_records(
            [({"g": 0.0}, 0.75)], metric="bell_stabilizer", variant="bell_sequential"))
        assert bell.unit_interval_value().tolist() == [r.value for r in bell]


class TestEnsembleMean:
    def test_single_record_convention(self):
        recs = synth_records([({}, 0.7)])
        ((mean, stderr, n),) = analysis.ensemble_mean(recs).values()
        assert (mean, stderr, n) == (0.7, 0.0, 1)

    def test_constant_records(self):
        recs = synth_records([({"seed": s}, 0.4) for s in range(5)])
        ((mean, stderr, n),) = analysis.ensemble_mean(recs).values()
        assert mean == pytest.approx(0.4)
        assert stderr == 0.0
        assert n == 5

    def test_gaussian_recovery(self):
        rng = np.random.default_rng(0)
        truth = 0.3
        vals = truth + 0.05 * rng.normal(size=400)
        recs = synth_records([({"seed": s}, float(v)) for s, v in enumerate(vals)])
        ((mean, stderr, _),) = analysis.ensemble_mean(recs).values()
        assert abs(mean - truth) <= 3.0 * stderr


    @staticmethod
    def _dict_of_lists(records, group_by):
        groups = {}
        for rec in records:
            groups.setdefault(tuple(getattr(rec, a) for a in group_by), []).append(rec.value)
        return {key: (float(np.mean(v)),
                      float(np.std(v, ddof=1) / math.sqrt(len(v))) if len(v) > 1 else 0.0,
                      len(v))
                for key, v in groups.items()}

    def test_matches_per_group_arrays(self):
        rng = np.random.default_rng(3)
        recs = synth_records([({"seed": s, "beta": b, "g": g}, float(rng.normal()))
                              for s in range(7) for b in (5.0, 0.0, 1.0)
                              for g in (2.0, 0.0)])
        rng.shuffle(recs)
        ragged = recs[:-5]
        for records in (recs, ragged):
            for group_by in (("beta", "g"), ("g",), ("seed", "beta"), ("beta", "g", "t")):
                got = analysis.ensemble_mean(records, group_by)
                want = self._dict_of_lists(records, group_by)
                assert got == want
                assert list(got) == sorted(want)

    def test_same_bits_as_the_per_group_loop(self):
        # groups of one size are reduced as the rows of one array; every
        # mean and stderr must equal the 1-D calls on the group's slice
        rng = np.random.default_rng(11)
        for sizes in ([2] * 40 + [257] * 3, [1, 2, 3, 5, 8, 64, 129, 257, 2, 1]):
            recs = [analysis.FidelityRecord(seed=s, beta=0.0, g=float(k), t=0.0,
                                            metric="basis_z", variant="delta01",
                                            value=float(rng.normal()))
                    for k, n in enumerate(sizes) for s in range(n)]
            got = analysis.ensemble_mean(recs, ("g",))
            start = 0
            for k, n in enumerate(sizes):
                members = np.array([r.value for r in recs[start:start + n]])
                start += n
                stderr = float(members.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
                assert got[(float(k),)] == (float(members.mean()), stderr, n)


class TestRecoveryTime:
    def test_unimodal(self):
        recs = synth_records([({"t": t}, -((t - 3.0) ** 2)) for t in range(7)])
        assert analysis.recovery_time(recs) == 3.0

    def test_plateau_tie_break(self):
        recs = synth_records([({"t": float(t)}, v)
                              for t, v in ((0, 0.1), (1, 0.9), (2, 0.9), (3, 0.2))])
        assert analysis.recovery_time(recs) == 1.0

    def test_rejects_mixed_axes(self):
        recs = synth_records([({"t": 0.0}, 0.1), ({"t": 1.0, "seed": 1}, 0.2)])
        with pytest.raises(analysis.SweepError):
            analysis.recovery_time(recs)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1, 1), min_size=2, max_size=12, unique=True),
           st.floats(0.01, 5.0), st.floats(-2.0, 2.0))
    def test_affine_invariance(self, values, scale, shift):
        # a rise of at most 1e-15 is a tie, so the argmax is invariant only
        # when the map keeps every two values apart by more than that; a
        # rounded increasing map keeps their order
        mapped = [scale * v + shift for v in values]
        for series in (values, mapped):
            assume(np.diff(np.sort(series)).min() > 1e-15)
        recs = synth_records([({"t": float(t)}, v) for t, v in enumerate(values)])
        scaled = synth_records([({"t": float(t)}, v) for t, v in enumerate(mapped)])
        assert analysis.recovery_time(recs) == analysis.recovery_time(scaled)

    def test_no_value_to_maximize_raises(self):
        recs = synth_records([({"t": 0.0}, math.nan), ({"t": 1.0}, math.nan)])
        with pytest.raises(analysis.SweepError, match="no fidelity value"):
            analysis.recovery_time(recs)

    def test_tie_tolerance_is_absolute(self):
        # a rise of 1e-14 counts, the same rise scaled by 0.0625 (6.25e-16)
        # is a tie and resolves to the smaller t
        values = [0.0, 1e-14]
        recs = synth_records([({"t": float(t)}, v) for t, v in enumerate(values)])
        scaled = synth_records([({"t": float(t)}, 0.0625 * v + 0.0)
                                for t, v in enumerate(values)])
        assert analysis.recovery_time(recs) == 1.0
        assert analysis.recovery_time(scaled) == 0.0


class TestOptimalG:
    def test_rise_within_round_off_resolves_to_the_first_g(self):
        # a rise of 5e-16 over the first g is a tie; a rise of 1e-14 counts
        recs = (synth_records([({"g": 0.0}, 0.5), ({"g": 1.0}, 0.5 + 5e-16)])
                + synth_records([({"g": 0.0}, 0.5), ({"g": 1.0}, 0.5 + 5e-16),
                                 ({"g": 2.0}, 0.5 + 1e-14)], beta=5.0))
        assert analysis.optimal_g(recs, 0.0) == 0.0
        assert analysis.optimal_g(recs, 5.0) == 2.0

    def test_maximizes_the_ensemble_mean(self):
        recs = synth_records([({"g": 0.0, "seed": 0}, 0.9), ({"g": 0.0, "seed": 1}, 0.1),
                              ({"g": 1.0, "seed": 0}, 0.6), ({"g": 1.0, "seed": 1}, 0.6)])
        assert analysis.optimal_g(recs, 0.0) == 1.0

    def test_no_value_to_maximize_raises(self):
        recs = (synth_records([({"g": 0.0}, 0.5)])
                + synth_records([({"g": 0.0}, math.nan), ({"g": 1.0}, math.nan)], beta=7.0))
        with pytest.raises(analysis.SweepError, match="no records at beta"):
            analysis.optimal_g(recs, 1.0)
        with pytest.raises(analysis.SweepError):
            analysis.optimal_g(recs, 7.0)


class TestFitBetaC:
    def test_noiseless_round_trip(self):
        betas = np.array([0.0, 1.0, 5.0, 10.0, 20.0, 50.0, 80.0, 100.0])
        values = 0.2 + 0.6 * np.exp(-betas / 25.0)
        fit = analysis.fit_beta_c(list(zip(betas, values)))
        assert abs(fit.beta_c - 25.0) <= 1e-6
        assert abs(fit.a - 0.2) <= 1e-8
        assert abs(fit.b - 0.6) <= 1e-8
        assert fit.residual <= 1e-9

    def test_noisy_recovery(self):
        rng = np.random.default_rng(1)
        betas = np.array([0.0, 1.0, 5.0, 10.0, 20.0, 35.0, 50.0, 80.0, 100.0])
        values = 0.2 + 0.6 * np.exp(-betas / 25.0) + 0.01 * rng.normal(size=len(betas))
        fit = analysis.fit_beta_c(list(zip(betas, values)))
        assert abs(fit.beta_c - 25.0) <= 0.15 * 25.0

    def test_constant_data_flagged(self):
        with pytest.raises(analysis.FitError):
            analysis.fit_beta_c([(0.0, 0.5), (10.0, 0.5), (20.0, 0.5)])

    def test_too_few_points(self):
        with pytest.raises(analysis.FitError):
            analysis.fit_beta_c([(0.0, 1.0), (10.0, 0.5)])


class TestHeatmap:
    def test_synthetic_grid(self):
        recs = []
        for b in (0.0, 1.0):
            for g in (0.0, 2.0):
                recs.extend(synth_records([({"seed": s, "beta": b, "g": g},
                                            b + 10 * g + 0.0 * s)
                                           for s in range(2)]))
        xs, ys, grid = analysis.heatmap(recs, "g", "beta")
        assert list(xs) == [0.0, 2.0]
        assert list(ys) == [0.0, 1.0]
        assert np.allclose(grid, [[0.0, 20.0], [1.0, 21.0]])

    def test_missing_cell(self):
        recs = synth_records([({"beta": 0.0, "g": 0.0}, 0.1),
                              ({"beta": 1.0, "g": 1.0}, 0.2)])
        with pytest.raises(analysis.SweepError):
            analysis.heatmap(recs, "g", "beta")

    def test_heatmap_row_matches_sweep(self):
        spec = tiny_spec(g_grid=(0.0, 1.0, 2.0), beta_grid=(0.0, 5.0))
        records = analysis.run_sweep(spec)
        xs, ys, grid = analysis.heatmap(records, "g", "beta")
        row0 = [r.value for r in records if r.beta == 0.0]
        assert np.allclose(grid[0], row0)


class TestCompareModels:
    def test_grid_mismatch(self):
        a = tiny_spec()
        b = tiny_spec(g_grid=(0.0, 1.0))
        with pytest.raises(analysis.SweepError):
            analysis.compare_models(a, b)

    def test_small_comparison(self):
        gs = tuple(np.linspace(0, 2 * math.pi, 21))
        spec_syk = tiny_spec(g_grid=gs, seeds=(0, 1, 2))
        spec_tfim = replace(spec_syk,
                            base=replace(spec_syk.base, model="tfim", t=1.0),
                            t_grid=(1.0,))
        out = analysis.compare_models(spec_syk, spec_tfim)
        assert out["syk"]["peak_mean"] > out["tfim"]["peak_mean"]
        assert out["difference"] > 0


class TestFixedPointCurve:
    def test_traces_one_setting(self):
        recs = []
        for b, scale in ((0.0, 1.0), (5.0, 0.5)):
            for g in (0.0, 1.0, 2.0):
                recs.extend(synth_records(
                    [({"seed": s, "beta": b, "g": g}, scale * (2.0 - abs(g - 1.0)))
                     for s in range(2)]))
        points, g_star, t_star = analysis.fixed_point_temperature_curve(recs)
        assert g_star == 1.0
        assert points == [(0.0, 2.0), (5.0, 1.0)]

    def test_rise_within_round_off_resolves_to_the_first_setting(self):
        # at the smallest beta, (t, g) = (1, 0) rises above (0, 2) by 5e-16
        # only: a tie, which resolves to the first key in (t, g) order
        recs = synth_records([({"t": 0.0, "g": 2.0}, 0.5), ({"t": 1.0, "g": 0.0}, 0.5 + 5e-16),
                              ({"t": 0.0, "g": 2.0, "beta": 5.0}, 0.2),
                              ({"t": 1.0, "g": 0.0, "beta": 5.0}, 0.4)])
        points, g_star, t_star = analysis.fixed_point_temperature_curve(recs)
        assert (g_star, t_star) == (2.0, 0.0)
        assert points == [(0.0, 0.5), (5.0, 0.2)]
        # a rise of 1e-14 counts
        recs[1] = recs[1]._replace(value=0.5 + 1e-14)
        points, g_star, t_star = analysis.fixed_point_temperature_curve(recs)
        assert (g_star, t_star) == (0.0, 1.0)
        assert points == [(0.0, 0.5 + 1e-14), (5.0, 0.4)]
