import numpy as np
import pytest

from sykteleport import analysis, cli, protocol, qop


def manifest(tmp_path, **overrides):
    fields = dict(command="sweep", config_path=None, out_dir=str(tmp_path),
                  master_seed=7, workers=1)
    fields.update(overrides)
    return cli.RunManifest(**fields)


class TestConfigParsing:
    def test_empty_gives_defaults(self):
        spec = cli.parse_config("", master_seed=0)
        assert spec.metric == "basis_z"
        assert spec.g_grid == analysis.DEFAULT_G_GRID
        assert spec.beta_grid == analysis.DEFAULT_BETA_GRID
        assert len(spec.seeds) == len(analysis.DEFAULT_SEEDS)

    def test_override_beta_grid(self):
        spec = cli.parse_config("[sweep]\nbeta_grid = [0, 20]\n", master_seed=0)
        assert spec.beta_grid == (0.0, 20.0)

    def test_contradictory_variant_and_message(self):
        text = "[sweep]\nvariant = bell_sequential\nmessage = basis_zero\n"
        with pytest.raises(cli.CliError):
            cli.parse_config(text, master_seed=0)

    def test_unknown_key_is_named(self):
        with pytest.raises(cli.CliError, match="frobnicate"):
            cli.parse_config("[sweep]\nfrobnicate = 1\n", master_seed=0)
        # the thermofield double has one pairing, so it is not a setting
        with pytest.raises(cli.CliError, match="right_basis"):
            cli.parse_config("[protocol]\nright_basis = literal\n", master_seed=0)

    def test_syntax_error_reports_line(self):
        with pytest.raises(cli.CliError, match="line 2"):
            cli.parse_config("[sweep]\nmetric basis_z\n", master_seed=0)

    def test_unknown_section(self):
        with pytest.raises(cli.CliError, match="plotting"):
            cli.parse_config("[plotting]\nx = 1\n", master_seed=0)

    def test_protocol_section(self):
        text = ("[sweep]\nvariant = delta02\ng_grid = [0.0, 1.0]\nseeds = [3]\n"
                "[protocol]\nj_scale = 2.5\nthermal_readout = false\n")
        spec = cli.parse_config(text, master_seed=0)
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
        cli.emit_csv(self._records(), path, man)
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
        cli.emit_csv(self._records(), p1, man)
        cli.emit_csv(self._records(), p2, man)
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
        back = cli.read_csv(path)
        assert len(back) == len(records)
        for a, b in zip(back, sorted(records, key=analysis.FidelityRecord.sort_key)):
            assert a.sort_key() == b.sort_key()
            assert a.value == pytest.approx(b.value, rel=1e-11)

    def test_unwritable_path(self, tmp_path):
        man = manifest(tmp_path)
        with pytest.raises(cli.CliError) as err:
            cli.emit_csv(self._records(), tmp_path / "nodir" / "x.csv", man)
        assert err.value.code == 3


class TestSanitySuite:
    def test_fresh_build_passes(self):
        ok, checks = cli.sanity_suite()
        assert ok
        assert {name for name, _, _ in checks} == {
            "majorana_anticommutation", "stabilizer_table",
            "infinite_temperature_pairs", "coupling_periodicity"}

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
        "[sweep]\nseeds = [0]\n[protocol]\nbeta = inf\n",
    ])
    def test_non_finite_config_exit_code(self, tmp_path, text):
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(text)
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert not (tmp_path / "sweep.csv").exists()

    def test_unknown_figure_raises(self, tmp_path):
        with pytest.raises(cli.CliError, match="sq3"):
            cli.run_figure("sq3", manifest(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

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
