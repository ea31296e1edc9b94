"""Command line entry point: config parsing, figure presets, CSV/JSON output.

Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 I/O
failure.  Every output file starts with a comment header carrying the
master seed, grid hashes and the package version, so equal headers imply
byte-equal bodies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, analysis, layout, protocol, qop

CSV_HEADER = "seed,beta,g,t,metric,variant,value,value_unit_interval"


class CliError(Exception):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_path: str | None
    out_dir: str
    master_seed: int
    workers: int


# -- configuration ------------------------------------------------------

_SWEEP_KEYS = {
    "metric", "variant", "message", "model", "g_grid", "t_grid", "beta_grid",
    "seeds", "n_samples",
}
_PROTOCOL_KEYS = {
    "j_scale", "size_modes", "readout_sites", "thermal_readout",
    "fermionic_insert", "g", "t", "beta",
}
_OUTPUT_KEYS = {"directory"}
_SECTIONS = {"sweep": _SWEEP_KEYS, "protocol": _PROTOCOL_KEYS, "output": _OUTPUT_KEYS}


def _parse_scalar(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_value(text: str):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return ()
        return tuple(_parse_scalar(p) for p in inner.split(","))
    return _parse_scalar(text)


def parse_config_text(text: str):
    """Flat key-value config with [section] headers; unknown keys error."""
    values = {"sweep": {}, "protocol": {}, "output": {}}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise CliError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise CliError(f"line {lineno}: expected key = value")
        if section is None:
            raise CliError(f"line {lineno}: key outside of any [section]")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _SECTIONS[section]:
            raise CliError(f"line {lineno}: unknown key {key!r} in [{section}]")
        values[section][key] = _parse_value(val)
    return values


def spec_from_config(values: dict, master_seed: int) -> analysis.SweepSpec:
    sweep = dict(values.get("sweep", {}))
    proto = dict(values.get("protocol", {}))
    metric = sweep.pop("metric", "basis_z")
    variant = sweep.pop("variant", "delta01")
    message = sweep.pop("message", None)
    if message is None:
        message = "bell_phi_plus" if variant == "bell_sequential" else "basis_zero"
    model = sweep.pop("model", "syk")
    n_samples = int(sweep.pop("n_samples", 100))
    g_grid = tuple(float(x) for x in sweep.pop("g_grid", analysis.DEFAULT_G_GRID))
    t_default = (protocol.DEFAULT_T_BELL if variant == "bell_sequential"
                 else protocol.DEFAULT_T_SINGLE)
    t_grid = tuple(float(x) for x in sweep.pop("t_grid", (t_default,)))
    beta_grid = tuple(float(x) for x in sweep.pop("beta_grid", analysis.DEFAULT_BETA_GRID))
    seeds = tuple(int(s) for s in sweep.pop("seeds", ()))
    if not seeds:
        seeds = tuple(substream_seed(master_seed, "sweep", i)
                      for i in range(len(analysis.DEFAULT_SEEDS)))
    if sweep:
        raise CliError(f"unhandled sweep keys: {sorted(sweep)}")
    size_modes = proto.pop("size_modes", None)
    if size_modes is not None:
        size_modes = tuple(int(m) for m in size_modes)
    readout = proto.pop("readout_sites", None)
    if readout is not None:
        readout = tuple(int(s) for s in readout)
    base = protocol.ProtocolConfig(
        message=message,
        swap_variant=variant,
        model=model,
        j_scale=float(proto.pop("j_scale", protocol.DEFAULT_J_SCALE)),
        size_modes=size_modes,
        readout_sites=readout,
        thermal_readout=bool(proto.pop("thermal_readout", True)),
        fermionic_insert=bool(proto.pop("fermionic_insert", False)),
        g=float(proto.pop("g", 0.0)),
        t=float(proto.pop("t", t_default)),
        beta=float(proto.pop("beta", 0.0)),
    )
    if proto:
        raise CliError(f"unhandled protocol keys: {sorted(proto)}")
    try:
        spec = analysis.SweepSpec(base=base, g_grid=g_grid, t_grid=t_grid,
                                  beta_grid=beta_grid, seeds=seeds, metric=metric,
                                  n_samples=n_samples)
        spec.validate()
    except (analysis.SweepError, protocol.ConfigError) as exc:
        raise CliError(str(exc)) from exc
    return spec


def parse_config(text: str, master_seed: int) -> analysis.SweepSpec:
    return spec_from_config(parse_config_text(text), master_seed)


def substream_seed(master_seed: int, label: str, index: int) -> int:
    """Stable derived seed: adding seeds never shifts existing ones."""
    payload = f"{master_seed}:{label}:{index}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little") >> 1


# -- output -------------------------------------------------------------

def _fmt(value: float) -> str:
    return "%.12g" % value


def _grid_hash(*grids) -> str:
    h = hashlib.sha256()
    for grid in grids:
        h.update(repr(tuple(grid)).encode())
    return h.hexdigest()[:16]


def csv_text(records, manifest: RunManifest, spec: analysis.SweepSpec | None = None) -> str:
    lines = [
        f"# sykteleport {__version__}",
        f"# master_seed {manifest.master_seed}",
    ]
    if spec is not None:
        lines.append(
            "# grids " + _grid_hash(spec.g_grid, spec.t_grid, spec.beta_grid, spec.seeds)
        )
    lines.append(CSV_HEADER)
    for rec in sorted(records, key=analysis.FidelityRecord.sort_key):
        lines.append(",".join([
            str(rec.seed), _fmt(rec.beta), _fmt(rec.g), _fmt(rec.t),
            rec.metric, rec.variant, _fmt(rec.value),
            _fmt(rec.unit_interval_value()),
        ]))
    return "\n".join(lines) + "\n"


def emit_csv(records, path, manifest: RunManifest, spec=None):
    text = csv_text(records, manifest, spec)
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", code=3) from exc


def read_csv(path):
    """Round-trip reader for emitted record files."""
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or line == CSV_HEADER or not line.strip():
            continue
        seed, beta, g, t, metric, variant, value, _ = line.split(",")
        records.append(analysis.FidelityRecord(
            seed=int(seed), beta=float(beta), g=float(g), t=float(t),
            metric=metric, variant=variant, value=float(value)))
    return records


def emit_json(obj, path, manifest: RunManifest):
    payload = {
        "version": __version__,
        "master_seed": manifest.master_seed,
        "data": obj,
    }
    try:
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", code=3) from exc


# -- sanity suite -------------------------------------------------------

def sanity_suite(majorana_fn=None):
    """Fast self-test: stabilizer table, anticommutation, periodicity and
    the infinite-temperature pair structure.  Returns (ok, checks)."""
    if majorana_fn is None:
        majorana_fn = qop.majorana
    checks = []

    dev = 0.0
    n_modes = 3
    for a in range(2 * n_modes):
        ga = majorana_fn(n_modes, a)
        for b in range(2 * n_modes):
            gb = majorana_fn(n_modes, b)
            target = 2.0 * np.eye(2 ** n_modes) if a == b else 0.0
            dev = max(dev, float(np.abs(ga @ gb + gb @ ga - target).max()))
    checks.append(("majorana_anticommutation", dev <= 1e-12, dev))

    bells = {
        "phi_plus": np.array([1, 0, 0, 1]) / math.sqrt(2),
        "phi_minus": np.array([1, 0, 0, -1]) / math.sqrt(2),
        "psi_plus": np.array([0, 1, 1, 0]) / math.sqrt(2),
        "psi_minus": np.array([0, 1, -1, 0]) / math.sqrt(2),
    }
    expected = {"phi_plus": 1.0, "phi_minus": 1.0, "psi_plus": 1.0, "psi_minus": -1.0}
    dev = 0.0
    for name, vec in bells.items():
        rho = np.outer(vec, vec.conj())
        dev = max(dev, abs(protocol.stabilizer_fidelity(rho) - expected[name]))
    dev = max(dev, abs(protocol.stabilizer_fidelity(np.eye(4) / 4) - 0.5))
    checks.append(("stabilizer_table", dev <= 1e-12, dev))

    reg = layout.RegisterLayout(n_message=1)
    vac = layout.bell_vacuum(reg.n_side)
    pair_dev = 0.0
    for k in range(reg.n_side):
        rho = qop.reduced_density(vac, reg.block_qubits, [k, reg.block_qubits - 1 - k])
        purity = float(np.real(np.trace(rho @ rho)))
        pair_dev = max(pair_dev, abs(purity - 1.0))
    checks.append(("infinite_temperature_pairs", pair_dev <= 1e-10, pair_dev))

    cfg = protocol.ProtocolConfig(seed=0, beta=5.0, t=1.0)
    eng = protocol.get_engine(cfg)
    g_values = np.array([0.3, 1.1, 2.4])
    c1 = eng.curve_basis_z(cfg.beta, cfg.t, g_values)
    c2 = eng.curve_basis_z(cfg.beta, cfg.t, g_values + 2 * math.pi)
    per_dev = float(np.abs(c1 - c2).max())
    checks.append(("coupling_periodicity", per_dev <= 1e-8, per_dev))

    ok = all(passed for _, passed, _ in checks)
    return ok, checks


# -- figure presets ------------------------------------------------------

def _seeds(manifest: RunManifest, n: int):
    return tuple(substream_seed(manifest.master_seed, "disorder", i) for i in range(n))


def _single_spec(variant: str, manifest: RunManifest, n_seeds=20, **overrides):
    """The g-sweep of one swap variant: basis_z for the single-qubit
    variants, the stabilizer fidelity for the Bell one."""
    bell = variant == "bell_sequential"
    spec = analysis.SweepSpec(
        base=protocol.ProtocolConfig(
            message="bell_phi_plus" if bell else "basis_zero", swap_variant=variant),
        t_grid=(protocol.DEFAULT_T_BELL if bell else protocol.DEFAULT_T_SINGLE,),
        seeds=_seeds(manifest, n_seeds),
        metric="bell_stabilizer" if bell else "basis_z",
    )
    return replace(spec, **overrides)


def _recovery_records(spec: analysis.SweepSpec, manifest: RunManifest,
                      t_grid=analysis.DEFAULT_T_GRID, workers: int = 1):
    """Two-stage time sweeps: pick g* per beta from the g-sweep ensemble
    mean, then sweep t at that coupling."""
    gsweep = analysis.run_sweep(spec, workers=workers)
    records = []
    for beta in spec.beta_grid:
        g_star = analysis.optimal_g(gsweep, beta)
        tspec = replace(spec, g_grid=(g_star,), beta_grid=(beta,), t_grid=tuple(t_grid))
        records.extend(analysis.run_sweep(tspec, workers=workers))
    records.sort(key=analysis.FidelityRecord.sort_key)
    return records


# Each preset writes <name>.csv (and, for some, <name>.json) into out.

def _gsweep_figure(variant, name, manifest, out, workers):
    spec = _single_spec(variant, manifest)
    emit_csv(analysis.run_sweep(spec, workers), out / f"{name}.csv", manifest, spec)


def _recovery_figure(variant, name, manifest, out, workers):
    spec = _single_spec(variant, manifest)
    emit_csv(_recovery_records(spec, manifest, workers=workers),
             out / f"{name}.csv", manifest, spec)


def _ising_vs_syk_figure(name, manifest, out, workers):
    spec_syk = _single_spec("delta01", manifest, beta_grid=(0.0,))
    steps = float(protocol.DEFAULT_TFIM_STEPS)
    spec_tfim = replace(spec_syk, base=replace(spec_syk.base, model="tfim", t=steps),
                        t_grid=(steps,))
    comp = analysis.compare_models(spec_syk, spec_tfim, workers=workers)
    emit_csv(comp["syk"]["records"] + comp["tfim"]["records"],
             out / f"{name}.csv", manifest, spec_syk)
    emit_json({k: {kk: vv for kk, vv in v.items() if kk != "records"}
               if isinstance(v, dict) else v for k, v in comp.items()},
              out / f"{name}.json", manifest)


def _cffit_figure(name, manifest, out, workers):
    spec = _single_spec("bell_sequential", manifest)
    records = analysis.run_sweep(spec, workers)
    emit_csv(records, out / f"{name}.csv", manifest, spec)
    points, g_star, t_star = analysis.fixed_point_temperature_curve(records)
    fit = analysis.fit_beta_c(points)
    emit_json({"a": fit.a, "b": fit.b, "beta_c": fit.beta_c,
               "residual": fit.residual, "points": points,
               "g_star": g_star, "t_star": t_star},
              out / f"{name}.json", manifest)


def _heatmap_g_figure(name, manifest, out, workers):
    spec = _single_spec("bell_sequential", manifest)
    records = analysis.run_sweep(spec, workers)
    xs, ys, grid = analysis.heatmap(records, "g", "beta")
    emit_csv(records, out / f"{name}.csv", manifest, spec)
    emit_json({"x_g": xs.tolist(), "y_beta": ys.tolist(),
               "grid": grid.tolist()}, out / f"{name}.json", manifest)


def _heatmap_t_figure(name, manifest, out, workers):
    spec = _single_spec("bell_sequential", manifest)
    gsweep = analysis.run_sweep(replace(spec, beta_grid=(0.0,)), workers)
    g_star = analysis.optimal_g(gsweep, 0.0)
    tspec = replace(spec, g_grid=(g_star,), t_grid=analysis.BELL_T_WINDOW)
    records = analysis.run_sweep(tspec, workers)
    xs, ys, grid = analysis.heatmap(records, "t", "beta")
    emit_csv(records, out / f"{name}.csv", manifest, tspec)
    emit_json({"x_t": xs.tolist(), "y_beta": ys.tolist(),
               "grid": grid.tolist()}, out / f"{name}.json", manifest)


def _neofidelity_figure(name, manifest, out, workers):
    for variant in ("delta01", "delta02"):
        spec = _single_spec(variant, manifest, metric="arbitrary_avg",
                            beta_grid=(0.0, 20.0), n_seeds=10)
        emit_csv(analysis.run_sweep(spec, workers),
                 out / f"{name}_{variant}.csv", manifest, spec)


_PRESETS = {
    "sq1": partial(_gsweep_figure, "delta01"),
    "sq2": partial(_gsweep_figure, "delta02"),
    "isingvssyk": _ising_vs_syk_figure,
    "fig6": partial(_recovery_figure, "delta01"),
    "fig7": partial(_recovery_figure, "delta02"),
    "fig34": partial(_gsweep_figure, "bell_sequential"),
    "timeevol": partial(_recovery_figure, "bell_sequential"),
    "cffit": _cffit_figure,
    "heatmap-g": _heatmap_g_figure,
    "heatmap-t": _heatmap_t_figure,
    "neofidelity": _neofidelity_figure,
}
FIGURES = tuple(_PRESETS)


def run_figure(name: str, manifest: RunManifest, workers: int = 1):
    """Produce the records (and fits) behind one preset figure."""
    preset = _PRESETS.get(name)
    if preset is None:
        raise CliError(f"unknown figure {name!r}")
    out = Path(manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    preset(name, manifest, out, workers)


# -- entry point ---------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="sykteleport",
        description="Teleportation-fidelity sweeps for a coupled random "
                    "quartic-fermion model prepared in a thermofield double.")
    p.add_argument("--config", type=str, default=None, help="key=value config file")
    p.add_argument("--out", type=str, default="out", help="output directory")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--workers", type=int, default=1, help="worker processes")
    p.add_argument("--figure", type=str, choices=FIGURES, default=None,
                   help="run a preset figure sweep")
    p.add_argument("--sanity", action="store_true", help="run the fast self-test")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    manifest = RunManifest(
        command=args.figure or ("sanity" if args.sanity else "sweep"),
        config_path=args.config, out_dir=args.out,
        master_seed=args.seed, workers=args.workers)
    try:
        if args.sanity:
            ok, checks = sanity_suite()
            for name, passed, dev in checks:
                print(f"[{'PASS' if passed else 'FAIL'}] {name}: deviation {dev:.3e}")
            return 0 if ok else 2
        if args.figure:
            run_figure(args.figure, manifest, workers=args.workers)
            print(f"wrote {args.figure} outputs to {args.out}")
            return 0
        if args.config:
            try:
                text = Path(args.config).read_text(encoding="utf-8")
            except OSError as exc:
                raise CliError(f"cannot read {args.config}: {exc}", code=3) from exc
        else:
            text = ""
        values = parse_config_text(text)
        spec = spec_from_config(values, args.seed)
        out_dir = str(values.get("output", {}).get("directory", args.out))
        manifest = RunManifest(command="sweep", config_path=args.config,
                               out_dir=out_dir, master_seed=args.seed,
                               workers=args.workers)
        records = analysis.run_sweep(spec, workers=args.workers)
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        emit_csv(records, Path(out_dir) / "sweep.csv", manifest, spec)
        print(f"wrote {len(records)} records to {out_dir}/sweep.csv")
        return 0
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (protocol.ConfigError, analysis.SweepError, qop.QopError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
