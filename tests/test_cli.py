import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sykteleport import analysis, cli, protocol, qop


def manifest(tmp_path, **overrides):
    fields = dict(command="sweep", config_path=None, out_dir=str(tmp_path),
                  master_seed=7, workers=1)
    fields.update(overrides)
    return cli.RunManifest(**fields)


def parse(text: str) -> analysis.SweepSpec:
    return cli.spec_from_config(cli.parse_config_text(text), master_seed=0)


# the spec whose grids the header of a hand-made record file hashes
SPEC = analysis.SweepSpec(base=protocol.ProtocolConfig(), g_grid=(0.5,), t_grid=(1.0,),
                          beta_grid=(0.0,), seeds=(0,))


def read_rows(path) -> list:
    """The records of an emitted record file: its four header lines
    skipped, each body line parsed field by field (the companion column
    dropped)."""
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines()[4:]:
        seed, beta, g, t, metric, variant, value, _ = line.split(",")
        rows.append(analysis.FidelityRecord(int(seed), float(beta), float(g), float(t),
                                            metric, variant, float(value)))
    return rows


def per_field_row(rec) -> str:
    """One CSV row written field by field; the companion column is the
    recovery probability for <Z> and the value itself otherwise."""
    unit = 0.5 * (1.0 + rec.value) if rec.metric == "basis_z" else rec.value
    return ",".join([str(rec.seed), cli._fmt(rec.beta), cli._fmt(rec.g), cli._fmt(rec.t),
                     rec.metric, rec.variant, cli._fmt(rec.value), cli._fmt(unit)])


class TestConfigParsing:
    def test_empty_gives_defaults(self):
        spec = parse("")
        assert spec.seeds == tuple(cli.substream_seed(0, "sweep", i)
                                   for i in range(len(analysis.DEFAULT_SEEDS)))
        assert spec == analysis.SweepSpec(base=protocol.ProtocolConfig(), seeds=spec.seeds)

    def test_word_parser_keeps_its_name(self):
        # the key table and the module name are one parser, not the uint32
        # dtype of the value writer
        assert cli._KEYS["sweep"]["metric"] is cli._WORD
        assert cli._WORD("basis_z") == "basis_z"

    def test_defaults_only_for_absent_keys(self):
        # an empty seed list is rejected, not replaced by the default seeds
        with pytest.raises(cli.CliError, match="seed"):
            cli.spec_from_config({"sweep": {"seeds": ()}}, master_seed=0)

    def test_readme_example_parses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme[readme.index("\n[sweep]\n"):]
        spec = parse(example[:example.index("```")])
        assert (spec.metric, spec.base.swap_variant, spec.base.model) == (
            "basis_z", "delta02", "syk")
        assert spec.g_grid == (0.0, 0.5, 1.0, 1.5, 2.0)
        assert spec.beta_grid == (0.0, 10.0, 20.0)
        assert spec.seeds == (0, 1, 2, 3)
        assert (spec.base.j_scale, spec.base.thermal_readout) == (5.0, True)

    def test_override_beta_grid(self):
        spec = parse("[sweep]\nbeta_grid = [0, 20]\n")
        assert spec.beta_grid == (0.0, 20.0)

    def test_contradictory_variant_and_message(self):
        # the variant sets the message, so there is nothing to contradict:
        # message is an unknown key
        text = "[sweep]\nvariant = bell_sequential\nmessage = basis_zero\n"
        with pytest.raises(cli.CliError, match="'message'"):
            parse(text)

    def test_variant_sets_message_and_t(self):
        spec = parse("[sweep]\nvariant = bell_sequential\n")
        assert spec.base.message == "bell_phi_plus"
        assert spec.t_grid == (protocol.DEFAULT_T_BELL,)
        assert spec.metric == "bell_stabilizer"
        spec = parse("[sweep]\nvariant = delta02\n")
        assert spec.base.message == "basis_zero"
        assert spec.t_grid == (protocol.DEFAULT_T_SINGLE,)

    def test_n_samples_and_j_scale_where_read(self):
        # rejected elsewhere (see TestMain.test_ignored_config_keys_exit_code)
        assert parse("[sweep]\nmetric = arbitrary_avg\nn_samples = 5\n").n_samples == 5
        assert parse("[sweep]\nmodel = tfim\n").base.model == "tfim"

    def test_unknown_key_is_named(self):
        with pytest.raises(cli.CliError, match="frobnicate"):
            parse("[sweep]\nfrobnicate = 1\n")
        # the thermofield double has one pairing, so it is not a setting
        with pytest.raises(cli.CliError, match="right_basis"):
            parse("[protocol]\nright_basis = literal\n")

    def test_syntax_error_reports_line(self):
        with pytest.raises(cli.CliError, match="line 2"):
            parse("[sweep]\nmetric basis_z\n")

    def test_unknown_section(self):
        with pytest.raises(cli.CliError, match="plotting"):
            parse("[plotting]\nx = 1\n")

    def test_protocol_section(self):
        text = ("[sweep]\nvariant = delta02\ng_grid = [0.0, 1.0]\nseeds = [3]\n"
                "[protocol]\nj_scale = 2.5\nthermal_readout = false\n")
        spec = parse(text)
        assert spec.base.swap_variant == "delta02"
        assert spec.base.j_scale == 2.5
        assert spec.base.thermal_readout is False
        assert spec.seeds == (3,)


class TestCsvEmission:
    def _records(self):
        return [analysis.FidelityRecord(seed=0, beta=0.0, g=0.5, t=1.0,
                                        metric="basis_z", variant="delta01",
                                        value=-0.123456789012345)]

    def test_single_record_layout(self, tmp_path):
        man = manifest(tmp_path)
        path = tmp_path / "one.csv"
        cli.emit_csv(self._records(), path, man, SPEC)
        lines = path.read_text().splitlines()
        header_rows = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == cli.CSV_HEADER
        assert len(body) == 2
        assert any("master_seed 7" in l for l in header_rows)
        assert "-0.123456789012" in body[1]
        # basis_z companion column is the recovery probability
        assert body[1].endswith(cli._fmt(0.5 * (1 - 0.123456789012345)))

    def test_lf_newlines_and_determinism(self, tmp_path):
        man = manifest(tmp_path)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.emit_csv(self._records(), p1, man, SPEC)
        cli.emit_csv(self._records(), p2, man, SPEC)
        b1 = p1.read_bytes()
        assert b1 == p2.read_bytes()
        assert b"\r" not in b1

    def test_round_trip(self, tmp_path):
        spec = analysis.SweepSpec(base=protocol.ProtocolConfig(seed=0),
                                  g_grid=(0.0, 1.0), t_grid=(1.0,),
                                  beta_grid=(0.0, 5.0), seeds=(0, 1))
        records = analysis.run_sweep(spec)
        man = manifest(tmp_path)
        path = tmp_path / "sweep.csv"
        cli.emit_csv(records, path, man, spec)
        back = read_rows(path)
        assert len(back) == len(records)
        for a, b in zip(back, records.sorted()):
            assert a[:4] == b[:4]
            assert a.value == pytest.approx(b.value, rel=1e-11)

    def test_bytes_match_per_field_writer(self, tmp_path):
        # values in every branch of the value formatter (the decades it
        # writes itself, below 1e-4, 1 or more, negative, -0.0 and nan) and
        # key columns of different text widths (seeds of different lengths,
        # t in exponent form); the memoized grid columns keep -0.0 and 0.0
        # apart, and the stable sort keeps records with equal keys in their
        # given order
        rng = np.random.default_rng(3)
        keys = [(s, b, g, t) for _ in (0, 1) for s in (4, 1, 2 ** 62 + 5, 30)
                for b in (5.0, 0.0) for g in (0.0, -0.0, 0.1, 1 / 3) for t in (1.0, 2.5e-7, 3e21)]
        values = rng.normal(size=len(keys)) * 10.0 ** rng.integers(-7, 2, size=len(keys))
        special = [0.25, 3.7e-5, 1.0, 12.5, -0.42, -0.0, math.nan, 0.0, -3e-9,
                   0.99999999999995, -1e-4, 0.5, 7e-4]
        values[:14 * len(special):14] = special
        for metric, variant in (("basis_z", "delta01"), ("bell_stabilizer", "bell_sequential")):
            records = [analysis.FidelityRecord(*key, metric=metric, variant=variant,
                                               value=float(value))
                       for key, value in zip(keys, values)]
            lines = [cli.CSV_HEADER]
            lines += map(per_field_row, sorted(records, key=lambda rec: rec[:4]))
            text = cli.csv_text(records, manifest(tmp_path), SPEC)
            assert text.endswith("\n".join(lines) + "\n")
            assert ",-0," in text and ",0," in text and ",2.5e-07," in text
            unit = "0.5" if metric == "basis_z" else "-0"
            assert f",-0,{unit}\n" in text and ",nan,nan\n" in text

    def test_table_bytes_match_per_field_writer(self, tmp_path):
        # a table joined from two sweeps of one kind, as isingvssyk joins
        # its two models: -0.0 and 0.0 keep their own text, and rows with
        # equal keys keep the order of the join; a table already in key
        # order is written as it is
        rng = np.random.default_rng(4)
        keys = np.meshgrid([4, 1], [5.0, 0.0], [0.0, -0.0, 0.1, 1 / 3], [1.0, 0.5],
                           indexing="ij")
        tables = [analysis.RecordTable(*(k.reshape(-1) for k in keys), rng.normal(size=32),
                                       "basis_z", "delta01") for _ in (0, 1)]
        ordered = np.meshgrid([1, 4], [0.0, 5.0], [-0.5, -0.0, 0.1, 1 / 3], [0.5, 1.0],
                              indexing="ij")
        in_order = analysis.RecordTable(*(k.reshape(-1) for k in ordered), rng.normal(size=32),
                                        "basis_z", "delta01")
        assert in_order.sorted() is in_order
        for table in (tables[0] + tables[1], in_order):
            lines = [cli.CSV_HEADER]
            lines += map(per_field_row, sorted(table, key=lambda rec: rec[:4]))
            text = cli.csv_text(table, manifest(tmp_path), SPEC)
            assert text.endswith("\n".join(lines) + "\n")
            assert ",-0," in text and ",0," in text
            assert text == cli.csv_text(list(table), manifest(tmp_path), SPEC)

    def test_table_round_trip(self, tmp_path):
        spec = analysis.SweepSpec(base=protocol.ProtocolConfig(seed=0),
                                  g_grid=(-0.25, 0.0, 1.0), t_grid=(0.5, 1.0),
                                  beta_grid=(0.0, 5.0), seeds=(3, 1))
        table = analysis.run_sweep(spec)
        path = tmp_path / "sweep.csv"
        cli.emit_csv(table, path, manifest(tmp_path), spec)
        back = analysis.RecordTable.from_rows(read_rows(path))
        for name in analysis.KEY_COLUMNS:
            assert np.array_equal(getattr(back, name), getattr(table, name))
        assert (back.metric, back.variant) == (table.metric, table.variant) == (
            "basis_z", "delta01")
        assert np.allclose(back.value, table.value, rtol=1e-11, atol=0.0)

    def test_unwritable_path(self, tmp_path):
        man = manifest(tmp_path)
        (tmp_path / "file").write_text("")
        with pytest.raises(cli.CliError) as err:
            cli.emit_csv(self._records(), tmp_path / "file" / "x.csv", man, SPEC)
        assert err.value.code == 3
        with pytest.raises(cli.CliError) as err:
            cli.emit_json({}, tmp_path / "file" / "x.json", man)
        assert err.value.code == 3

    def test_writers_make_the_directory(self, tmp_path):
        man = manifest(tmp_path)
        cli.emit_csv(self._records(), tmp_path / "a" / "b" / "x.csv", man, SPEC)
        cli.emit_json({}, tmp_path / "c" / "x.json", man)
        assert (tmp_path / "a" / "b" / "x.csv").exists()
        assert (tmp_path / "c" / "x.json").exists()


def block_table(metric: str, variant: str) -> analysis.RecordTable:
    """63 rows in shuffled key order, with -0.0 and 0.0 keys, seeds of
    different widths, t in exponent form, and values that '%.12g' writes
    (NaN, +-inf, zeros, a fraction within 1e-4 of one half, digits that
    carry to 10^12) among those the array formatter writes."""
    keys = np.meshgrid([4, 1, 2 ** 62 + 5, 30], [5.0, 0.0], [0.0, -0.0, 0.1, 1 / 3],
                       [1.0, 2.5e-7], indexing="ij")
    rng = np.random.default_rng(5)
    order = rng.permutation(64)[:63]
    values = rng.uniform(-1.0, 1.0, size=63)
    values[:10] = [math.nan, math.inf, -math.inf, -0.0, 0.0, 0.1234567890125,
                   0.99999999999996, -0.0999999999999996, 3e-5, 12.5]
    return analysis.RecordTable(*(k.reshape(-1)[order] for k in keys), values,
                                metric, variant)


class TestCsvBlocks:
    """The body written in blocks of a few rows against one block."""

    @pytest.mark.parametrize("kind", [("basis_z", "delta01"),
                                      ("bell_stabilizer", "bell_sequential")])
    def test_blocks_match_one_block(self, tmp_path, monkeypatch, kind):
        table = block_table(*kind)
        man = manifest(tmp_path)
        assert len(table) < cli._BLOCK_ROWS
        one_block = cli.csv_text(table, man, SPEC)
        assert ",-0," in one_block and ",0," in one_block and ",nan," in one_block
        assert ",inf," in one_block and ",-inf," in one_block
        sorts, formatted = [], []
        sorted_rows = analysis.RecordTable.sorted
        monkeypatch.setattr(analysis.RecordTable, "sorted",
                            lambda tab: sorts.append(1) or sorted_rows(tab))
        fmt = cli._fmt
        monkeypatch.setattr(cli, "_fmt", lambda value: formatted.append(value) or fmt(value))
        # 1 puts -0.0 and 0.0 keys in blocks of their own; 63 rows are no
        # multiple of 4 or 10
        for rows in (1, 4, 10):
            monkeypatch.setattr(cli, "_BLOCK_ROWS", rows)
            sorts.clear()
            formatted.clear()
            assert cli.csv_text(table, man, SPEC) == one_block
            assert len(sorts) == 1
            # each distinct beta, g and t text once per file: 2 + 4 + 2
            assert len(formatted) == 8
            path = tmp_path / f"blocks{rows}.csv"
            cli.emit_csv(table, path, man, SPEC)
            assert path.read_bytes() == one_block.encode()

    @pytest.mark.parametrize("existing", [None, b"an earlier file\n"])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, existing):
        # the stabilizer table reuses its value text, so the formatter's
        # second call is the second block, after the first was written
        table = block_table("bell_stabilizer", "bell_sequential")
        out = tmp_path / "out"
        path = out / "x.csv"
        if existing is not None:
            out.mkdir()
            path.write_bytes(existing)
        calls = []
        value_bytes = cli._value_bytes

        def fails_second(values):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("formatter failed")
            return value_bytes(values)

        monkeypatch.setattr(cli, "_BLOCK_ROWS", 16)
        monkeypatch.setattr(cli, "_value_bytes", fails_second)
        with pytest.raises(RuntimeError, match="formatter failed"):
            cli.emit_csv(table, path, manifest(tmp_path), SPEC)
        assert len(calls) == 2
        if existing is None:
            assert list(out.iterdir()) == []
        else:
            assert list(out.iterdir()) == [path]
            assert path.read_bytes() == existing

    def test_failed_replace_leaves_no_temporary_file(self, tmp_path):
        # the whole file is written, and moving it onto a directory fails
        man = manifest(tmp_path)
        csv_path, json_path = tmp_path / "x.csv", tmp_path / "x.json"
        csv_path.mkdir()
        json_path.mkdir()
        for write in (lambda: cli.emit_csv(block_table("basis_z", "delta01"), csv_path,
                                           man, SPEC),
                      lambda: cli.emit_json({"a": 1}, json_path, man)):
            with pytest.raises(cli.CliError) as err:
                write()
            assert err.value.code == 3
        assert sorted(tmp_path.iterdir()) == [csv_path, json_path]

    def test_peak_does_not_grow_with_the_row_count(self, tmp_path):
        # sq1's keys at one and at five values of t: 32,160 and 160,800
        # rows, already in key order
        seeds = [cli.substream_seed(0, "disorder", i) for i in range(20)]
        rng = np.random.default_rng(6)
        peaks = []
        for n_t in (1, 5):
            keys = np.meshgrid(sorted(seeds), analysis.DEFAULT_BETA_GRID,
                               analysis.DEFAULT_G_GRID, np.linspace(1.0, 2.0, n_t),
                               indexing="ij")
            table = analysis.RecordTable(*(k.reshape(-1) for k in keys),
                                         rng.uniform(-1.0, 1.0, keys[0].size),
                                         "basis_z", "delta01")
            assert table.sorted() is table
            path = tmp_path / f"rows{len(table)}.csv"
            cli.emit_csv(table[:100], path, manifest(tmp_path), SPEC)  # warm
            tracemalloc.start()
            try:
                cli.emit_csv(table, path, manifest(tmp_path), SPEC)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]
        assert max(peaks) < 4 * 2 ** 20


def value_text(values) -> list:
    """The value formatter's text of every entry, padding stripped."""
    rows = cli._value_bytes(np.array(values, dtype=float))
    return [row.tobytes().replace(b"\0", b"").decode() for row in rows]


def _near(x: float) -> list:
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


# where the formatter's own digits could go wrong: the edges of its
# decades, values that round to 1e-4 or 1, ties of the 13th digit and
# the values next to them, zeros, subnormals and non-finite values
BOUNDARY_VALUES = [
    *_near(1e-4), 9.99999999999949e-5, 0.99999999999949, 0.9999999999995,
    np.nextafter(1.0, 0.0), 1.0, *_near(1e-3), *_near(1e-2), *_near(0.1),
    *(v for k in (123456789012, 999999999999, 100000000000, 500000000000)
      for e in (-1, -2, -3, -4) for m in (k, k + 0.5) for v in _near(m * 10.0 ** (e - 11))),
    0.0, -0.0, 5e-324, -2.225073858507201e-308, math.inf, -math.inf, math.nan,
    7 / 2 ** 16, -0.5, 1e-5, 12345.678, -1.2345678901234e-100, 1e300,
]
BOUNDARY_VALUES += [-v for v in BOUNDARY_VALUES]


def _near_grid(k: int, e: int, half: float, step: int, sign: int) -> float:
    """sign * (k + half) * 10^(e - 11), moved by step ulps: a double near
    the 12-digit grid of decade e, or near a tie of its 13th digit."""
    x = sign * (k + half) * 10.0 ** (e - 11)
    return float(np.nextafter(x, step * math.inf)) if step else x


# any double; doubles in the decades the formatter writes itself; doubles
# near its grid
DOUBLES = st.one_of(
    st.floats(), st.floats(-1.0, 1.0),
    st.builds(_near_grid, st.integers(10 ** 11, 10 ** 12 - 1), st.integers(-4, -1),
              st.sampled_from((0.0, 0.5)), st.integers(-1, 1), st.sampled_from((1, -1))))


class TestValueFormatter:
    @settings(max_examples=300, deadline=None)
    @example(BOUNDARY_VALUES)
    @given(st.lists(DOUBLES, min_size=1, max_size=40))
    def test_matches_percent_g(self, values):
        assert value_text(values) == [cli._FORMAT % v for v in values]


class TestSanitySuite:
    def test_fresh_build_passes(self):
        ok, checks = cli.sanity_suite()
        assert ok
        assert {name for name, _, _ in checks} == {
            "majorana_anticommutation", "stabilizer_table",
            "infinite_temperature_pairs", "size_level_projectors",
            "coupling_periodicity"}

    def test_negative_control(self):
        def broken_majorana(n_modes, k):
            # wrong relative sign in the odd combination: i(c + c^dag)
            if k % 2 == 1:
                c = qop.jw_annihilation(n_modes, k // 2 + 1)
                return 1j * (c + c.conj().T)
            return qop.majorana(n_modes, k)

        ok, checks = cli.sanity_suite(majorana_fn=broken_majorana)
        named = {name: passed for name, passed, _ in checks}
        assert not named["majorana_anticommutation"]
        assert not ok

    def test_reports_deviations(self):
        _, checks = cli.sanity_suite()
        for _, _, deviation in checks:
            assert np.isfinite(deviation)


def test_runtime_loads_no_scipy():
    # a fresh interpreter: the CLI import, SYK and kicked-Ising engines, one
    # curve of each metric (the level order and the maps order) and the
    # sanity suite load no scipy module; its import alone would add about
    # 0.2 s to every run's set-up
    code = """
import sys
from sykteleport import cli, protocol
eng = protocol.get_engine(protocol.ProtocolConfig(seed=1))
engt = protocol.get_engine(protocol.ProtocolConfig(model="tfim", seed=1, t=1.0))
engt.curve_basis_z([0.0, 5.0], 1.0, [0.5, 1.0])
engb = protocol.get_engine(protocol.ProtocolConfig(
    message="bell_phi_plus", swap_variant="bell_sequential", seed=1))
for gs in ([0.5, 1.0, 1.5, 2.0, 2.5], [0.5]):
    eng.curve_basis_z([0.0, 5.0], 1.0, gs)
    engb.curve_bell(5.0, [1.0, 2.0], gs)
    eng.curve_arbitrary_avg(5.0, 1.0, gs, [(0.6, 0.8)])
    eng.curve_arbitrary_avg(5.0, 1.0, gs, protocol.draw_haar_samples([0], 10)[0])
assert cli.sanity_suite()[0]
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""
    assert _fresh_interpreter(code) == "[]"


def test_serial_sweeps_load_no_process_pool():
    # a fresh interpreter: the CLI import and a serial sweep of each metric
    # load neither the process pool nor multiprocessing (about 2 MB of
    # resident memory and 11-18 ms of every run's set-up); only a sweep
    # with more than one worker imports them
    code = """
import sys
from sykteleport import analysis, cli, protocol
bell = protocol.ProtocolConfig(message="bell_phi_plus", swap_variant="bell_sequential")
for metric in analysis.METRICS:
    base = bell if metric == "bell_stabilizer" else protocol.ProtocolConfig()
    analysis.run_sweep(analysis.SweepSpec(
        base=base, g_grid=(0.5, 1.0), t_grid=(1.0,), beta_grid=(0.0, 5.0), seeds=(0, 1),
        metric=metric, n_samples=5), workers=1)
print(sorted(name for name in ("concurrent.futures.process", "multiprocessing")
             if name in sys.modules))
"""
    assert _fresh_interpreter(code) == "[]"


def test_sweep_analysis_loads_no_numpy_ma():
    # a fresh interpreter: a sweep and the analyses that group its records
    # load no numpy.ma (a plain np.unique imports it on numpy 2.4 to test
    # for a masked array, 10-14 ms of a fresh run)
    code = """
import sys
from sykteleport import analysis, protocol
spec = analysis.SweepSpec(
    base=protocol.ProtocolConfig(message="bell_phi_plus", swap_variant="bell_sequential"),
    g_grid=(0.5, 1.0, 1.5), t_grid=(2.0,), beta_grid=(0.0, 5.0), seeds=(0, 1),
    metric="bell_stabilizer")
g_star = analysis.optimal_g(analysis.run_sweep(spec), 0.0)
records = analysis.run_sweep(analysis.SweepSpec(
    base=protocol.ProtocolConfig(), g_grid=(g_star,), t_grid=(1.0, 2.0, 3.0),
    beta_grid=(0.0,), seeds=(0,)))
analysis.recovery_time(records)
print("numpy.ma" in sys.modules)
"""
    assert _fresh_interpreter(code) == "False"


def _fresh_interpreter(code: str) -> str:
    """The stripped standard output of `code` run in a new Python process
    that imports this package's source."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestSubstreams:
    def test_stable_under_extension(self):
        first = [cli.substream_seed(0, "disorder", i) for i in range(5)]
        longer = [cli.substream_seed(0, "disorder", i) for i in range(10)]
        assert longer[:5] == first

    def test_label_separation(self):
        assert cli.substream_seed(0, "disorder", 0) != cli.substream_seed(0, "haar", 0)


class TestMain:
    def test_sanity_exit_code(self, capsys):
        assert cli.main(["--sanity"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[sweep]\nmetric = nope\n")
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("text", [
        "[sweep]\ng_grid = [0.0, nan]\nseeds = [0]\n",
        "[sweep]\nt_grid = [inf]\nseeds = [0]\n",
        "[sweep]\nbeta_grid = [0, inf]\nseeds = [0]\n",
        # beta comes from beta_grid only, so this exits as an unknown key
        "[sweep]\nseeds = [0]\n[protocol]\nbeta = inf\n",
    ])
    def test_non_finite_config_exit_code(self, tmp_path, text):
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(text)
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert not (tmp_path / "sweep.csv").exists()

    def test_repeated_seed_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "repeat.cfg"
        cfg.write_text("[sweep]\ng_grid = [0.0]\nbeta_grid = [0]\nseeds = [1, 0, 1]\n")
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "repeat" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_repeated_size_mode_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "modes.cfg"
        cfg.write_text("[sweep]\ng_grid = [0.0]\nbeta_grid = [0]\nseeds = [0]\n"
                       "[protocol]\nsize_modes = [0, 0]\n")
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "size modes must not repeat" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_seeds_equal_mod_2_64_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "alias.cfg"
        cfg.write_text("[sweep]\ng_grid = [0.0]\nbeta_grid = [0]\n"
                       "seeds = [-1, 18446744073709551615, 3]\n")
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "repeat" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_readout_site_count_exit_code(self, tmp_path, capsys):
        # two readout sites for the one-qubit basis message
        cfg = tmp_path / "readout.cfg"
        cfg.write_text("[sweep]\ng_grid = [0.5, 1.0]\nbeta_grid = [0]\nseeds = [0]\n"
                       "[protocol]\nreadout_sites = [5, 6]\n")
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "readout site" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-2.5"])
    def test_bad_j_scale_exit_code(self, tmp_path, capsys, value):
        cfg = tmp_path / "j_scale.cfg"
        cfg.write_text("[sweep]\ng_grid = [0.5]\nbeta_grid = [0]\nseeds = [0]\n"
                       f"[protocol]\nj_scale = {value}\n")
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "j_scale" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bad_n_samples_exit_code(self, tmp_path, capsys, value):
        cfg = tmp_path / "n_samples.cfg"
        cfg.write_text("[sweep]\nmetric = arbitrary_avg\ng_grid = [0.5]\nbeta_grid = [0]\n"
                       f"seeds = [0]\nn_samples = {value}\n")
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "n_samples" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("text, line, key", [
        ("[sweep]\ng_grid = 0.5\n", 2, "g_grid"),
        ("[sweep]\nseeds = 3\n", 2, "seeds"),
        ("[protocol]\nthermal_readout = flase\n", 2, "thermal_readout"),
        ("[protocol]\nfermionic_insert = no\n", 2, "fermionic_insert"),
        ("[protocol]\nthermal_readout = 1\n", 2, "thermal_readout"),
        ("[sweep]\nseeds = [1.5]\n", 2, "seeds"),
        ("[sweep]\nmetric = arbitrary_avg\nn_samples = 2.7\n", 3, "n_samples"),
        ("[sweep]\nmetric = arbitrary_avg\nn_samples = 1e2\n", 3, "n_samples"),
        ("[sweep]\nseeds = []\n", 2, "seeds"),
        ("[sweep]\ng_grid = [0.5]\nbeta_grid = [0]\ng_grid = [1.0]\n", 4, "g_grid"),
        ("[protocol]\nj_scale = abc\n", 2, "j_scale"),
        ("[sweep]\nvariant = delta 02\n", 2, "variant"),
    ])
    def test_malformed_value_exit_code(self, tmp_path, capsys, text, line, key):
        cfg = tmp_path / "malformed.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"line {line}: {key}: " in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bell_variant_sweep_writes_stabilizer_rows(self, tmp_path):
        cfg = tmp_path / "bell.cfg"
        cfg.write_text("[sweep]\nvariant = bell_sequential\ng_grid = [0.5, 1.0]\n"
                       "beta_grid = [0]\nseeds = [0]\n")
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "sweep.csv")
        assert len(rows) == 2
        assert {(r.metric, r.variant) for r in rows} == {("bell_stabilizer", "bell_sequential")}

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_worker_count_exit_code(self, tmp_path, capsys, workers):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("[sweep]\ng_grid = [0.5]\nbeta_grid = [0]\nseeds = [0]\n")
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path),
                         "--workers", workers]) == 1
        assert "workers" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_timeevol_builds_one_engine_per_slice(self, tmp_path, monkeypatch):
        # the 20 seeds of a preset are one slice, whose engine the engine
        # cache holds, so the t sweeps of the second stage find the engine
        # of the g sweep, and each engine call takes the whole slice
        protocol._engine_cached.cache_clear()
        protocol._realization.clear()
        slices, calls = [], []
        init, finish = protocol.Engine.__init__, protocol.Engine.finish

        def counted(self, cfg, seeds=None):
            slices.append(seeds)
            init(self, cfg, seeds)

        def counted_finish(self, *args):
            calls.append(self.seeds)
            return finish(self, *args)
        monkeypatch.setattr(protocol.Engine, "__init__", counted)
        monkeypatch.setattr(protocol.Engine, "finish", counted_finish)
        cli.run_figure("timeevol", manifest(tmp_path, master_seed=0))
        assert len(slices) == 1 and len(set(slices[0])) == 20
        assert protocol._realization.builds == 20
        # the g sweep and one t sweep per beta
        assert calls == [tuple(slices[0])] * (1 + len(analysis.DEFAULT_BETA_GRID))

    def test_unknown_figure_raises(self, tmp_path):
        with pytest.raises(cli.CliError, match="sq3"):
            cli.run_figure("sq3", manifest(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, key", [
        ("[protocol]\ng = 2.0\n", "'g'"),
        ("[protocol]\nt = 3.0\n", "'t'"),
        ("[protocol]\nbeta = inf\n", "'beta'"),
        ("[sweep]\nmessage = arbitrary\n", "'message'"),
        ("[output]\ndirectory = elsewhere\n", "[output]"),
        ("[sweep]\nn_samples = 5\n", "n_samples"),
        ("[sweep]\nmodel = tfim\n[protocol]\nj_scale = 2.5\n", "j_scale"),
    ])
    def test_ignored_config_keys_exit_code(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "ignored.cfg"
        cfg.write_text("[sweep]\ng_grid = [0.5]\nbeta_grid = [0]\nseeds = [0]\n" + text)
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg), "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--figure", "sq3"], "invalid choice"),
        (["--workers", "abc"], "invalid int"),
        (["--sanity", "--figure", "sq1"], "not allowed with"),
        (["--figure", "sq1", "--config", "x.cfg"], "not allowed with"),
        (["--config", "x.cfg", "--sanity"], "not allowed with"),
    ])
    def test_usage_errors_exit_code(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_help_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert "--figure" in capsys.readouterr().out

    def test_failed_figure_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["--figure", "sq1", "--workers", "0", "--out", str(out)]) == 1
        assert "workers" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_is_io_error(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "missing.cfg"),
                         "--out", str(tmp_path)]) == 3

    def test_small_sweep_writes_csv(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("[sweep]\ng_grid = [0.0, 1.0]\nbeta_grid = [0]\n"
                       "seeds = [0, 1]\n")
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path),
                         "--seed", "3"]) == 0
        text = (tmp_path / "sweep.csv").read_text()
        # 3 comment lines + column header + 2 g x 1 beta x 2 seeds rows
        assert text.count("\n") == 3 + 1 + 4

    def test_worker_count_gives_identical_bytes(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("[sweep]\ng_grid = [0.0, 1.0, 2.0]\nbeta_grid = [0, 5]\n"
                       "seeds = [0, 1, 2]\n")
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert cli.main(["--config", str(cfg), "--out", str(out1),
                         "--workers", "1"]) == 0
        assert cli.main(["--config", str(cfg), "--out", str(out2),
                         "--workers", "3"]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
