"""Command line entry point: config parsing, figure presets, CSV/JSON output.

Exit codes: 0 success, 1 validation or usage error, 2 numerical failure,
3 I/O failure.  Every output file starts with a comment header carrying the
master seed, grid hashes and the package version.  The header does not name
the protocol settings (model, message, j_scale, ...), so equal headers do
not imply equal bodies; one config gives byte-equal files at any worker
count.  A file is written under a temporary name and moved onto its own
only once complete, so a failed run leaves no partial file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
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

def _scalar(convert, what):
    """A parser that converts one value or raises ValueError naming what
    it expected."""
    def parse(text: str):
        try:
            return convert(text)
        except (KeyError, ValueError):
            raise ValueError(f"expected {what}, got {text!r}") from None
    return parse


def _one_word(text: str) -> str:
    (word,) = text.split()  # ValueError unless there is exactly one
    return word


def _bracketed(item):
    def parse(text: str) -> tuple:
        if not (text[:1] == "[" and text[-1:] == "]" and text[1:-1].strip()):
            raise ValueError(f"expected a nonempty bracketed list, got {text!r}")
        return tuple(item(part.strip()) for part in text[1:-1].split(","))
    return parse


_WORD = _scalar(_one_word, "one word")
_FLOAT = _scalar(float, "a number")
_INT = _scalar(int, "an integer")
_BOOL = _scalar(lambda text: {"true": True, "false": False}[text.lower()], "true or false")
_FLOATS, _INTS = _bracketed(_FLOAT), _bracketed(_INT)

# the parser of every key of every section; each key changes the output.
# The [protocol] keys are ProtocolConfig fields, and the [sweep] keys but
# variant and model are SweepSpec fields.
_KEYS = {
    "sweep": {"metric": _WORD, "variant": _WORD, "model": _WORD, "g_grid": _FLOATS,
              "t_grid": _FLOATS, "beta_grid": _FLOATS, "seeds": _INTS, "n_samples": _INT},
    "protocol": {"j_scale": _FLOAT, "size_modes": _INTS, "readout_sites": _INTS,
                 "thermal_readout": _BOOL, "fermionic_insert": _BOOL},
}


def parse_config_text(text: str):
    """Flat key-value config with [section] headers; each value is parsed by
    its key's type, and unknown or repeated keys error."""
    values = {section: {} for section in _KEYS}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _KEYS:
                raise CliError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise CliError(f"line {lineno}: expected key = value")
        if section is None:
            raise CliError(f"line {lineno}: key outside of any [section]")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _KEYS[section]:
            raise CliError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if key in values[section]:
            raise CliError(f"line {lineno}: {key}: given twice")
        try:
            values[section][key] = _KEYS[section][key](val.strip())
        except ValueError as exc:
            raise CliError(f"line {lineno}: {key}: {exc}") from None
    return values


def _variant_defaults(variant: str):
    """The message, default t and default metric of a swap variant."""
    if variant == "bell_sequential":
        return "bell_phi_plus", protocol.DEFAULT_T_BELL, "bell_stabilizer"
    return "basis_zero", protocol.DEFAULT_T_SINGLE, "basis_z"


def spec_from_config(values: dict, master_seed: int) -> analysis.SweepSpec:
    """The sweep of parsed config values; a default applies only to an
    absent key."""
    sweep = dict(values.get("sweep", {}))
    proto = values.get("protocol", {})
    variant = sweep.pop("variant", "delta01")
    model = sweep.pop("model", "syk")
    message, t_default, metric_default = _variant_defaults(variant)
    sweep.setdefault("metric", metric_default)
    sweep.setdefault("t_grid", (t_default,))
    sweep.setdefault("seeds", tuple(substream_seed(master_seed, "sweep", i)
                                    for i in range(len(analysis.DEFAULT_SEEDS))))
    # a key that this sweep would not read is an error, not a no-op
    if "n_samples" in sweep and sweep["metric"] != "arbitrary_avg":
        raise CliError("n_samples applies only to metric = arbitrary_avg")
    if "j_scale" in proto and model == "tfim":
        raise CliError("j_scale does not apply to model = tfim")
    base = protocol.ProtocolConfig(message=message, swap_variant=variant, model=model,
                                   **proto)
    try:
        return analysis.SweepSpec(base=base, **sweep).validate()
    except (analysis.SweepError, protocol.ConfigError) as exc:
        raise CliError(str(exc)) from exc


def substream_seed(master_seed: int, label: str, index: int) -> int:
    """Stable derived seed: adding seeds never shifts existing ones."""
    payload = f"{master_seed}:{label}:{index}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little") >> 1


# -- output -------------------------------------------------------------

_FORMAT = "%.12g"


def _fmt(value: float) -> str:
    return _FORMAT % value


def _grid_hash(*grids) -> str:
    h = hashlib.sha256()
    for grid in grids:
        h.update(repr(tuple(grid)).encode())
    return h.hexdigest()[:16]


# _value_bytes writes values in the decades 1e-4 <= |x| < 1 itself.  The
# double nearest 10^k lies above 10^k for k = -4..-1, so comparing |x| with
# it compares with 10^k exactly.  The searchsorted position i of |x| in
# _DECADES is its decade e plus 5; _SCALES[i] is the exact double
# 10^(11 - e), which puts 12 digits of |x| before the point.  Text is built
# from little-endian uint32 words, so byte k of a word is its character k
# on any host.
_DECADES = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0])
_SCALES = (10 ** np.arange(16, 10, -1, dtype=np.int64)).astype(float)
_U32 = np.dtype("<u4")


def _word_tables():
    """_HEADS[6 * negative + i] is the sign, "0." and the 4 - i zeros after
    the point of position i, NUL-padded to two words; _QUADS[q] is the four
    digits of q < 10^4 as one word, and _QUADS[10**4 + q] the same with
    q's trailing zeros NUL."""
    head = np.zeros((2, 6, 8), dtype=np.uint8)
    head[1, :, 0] = ord("-")
    head[..., 1:3] = (ord("0"), ord("."))
    head[..., 3:6] = np.where(np.arange(3) >= np.arange(6)[:, None] - 1, ord("0"), 0)
    # q = 1000 a + 100 b + 10 c + d, one digit per axis; a digit is kept
    # when it or a later one is nonzero
    a, b, c, d = (digit + ord("0") for digit in np.ix_(*[np.arange(10, dtype=_U32)] * 4))
    kd = d > ord("0")
    kc = kd | (c > ord("0"))
    kb = kc | (b > ord("0"))
    ka = kb | (a > ord("0"))
    text = a | b << 8 | c << 16 | d << 24
    stripped = a * ka | b * kb << 8 | c * kc << 16 | d * kd << 24
    return (head.view(_U32).reshape(12, 2),
            np.concatenate([text, stripped], axis=None).astype(_U32))


_HEADS, _QUADS = _word_tables()


def _value_bytes(values: np.ndarray) -> np.ndarray:
    """'%.12g' of every entry of values as the rows of a NUL-padded uint8
    array 20 bytes wide: two words of head and three of digits.

    For 1e-4 <= |x| < 1 in decade e, y = |x| * 10^(11 - e) is one rounding
    of a number below 2^40, so it is off by at most 2^-14 and rounds to the
    12 digits of the exact product unless its fraction is within 1e-4 of
    one half.  Those rows, rows whose digits carry to 10^12, and zeros,
    non-finite values and values outside the decades are written by
    '%.12g' itself, which never takes more than 19 characters.
    """
    a = np.abs(values)
    position = np.searchsorted(_DECADES, a, side="right")  # NaN sorts last
    y = np.where((position >= 1) & (position <= 4), a, 0.0) * _SCALES[position]
    whole = np.floor(y)
    frac = y - whole
    rounded = whole + (frac > 0.5)
    exact = (np.abs(frac - 0.5) > 1e-4) & (whole >= 1e11) & (rounded < 1e12)
    high, low = np.divmod(np.where(exact, rounded, 0.0).astype(np.int64), 10 ** 4)
    high, mid = np.divmod(high, 10 ** 4)
    words = np.empty((len(values), 5), dtype=_U32)
    words[:, :2] = _HEADS.take(6 * (values < 0) + position, axis=0)
    words[:, 2] = _QUADS.take(high + 10 ** 4 * ((mid == 0) & (low == 0)))
    words[:, 3] = _QUADS.take(mid + 10 ** 4 * (low == 0))
    words[:, 4] = _QUADS.take(low + 10 ** 4)
    other = np.flatnonzero(~exact)
    text = np.array([_FORMAT % v for v in values[other].tolist()], dtype="S20")
    words[other] = text.view(_U32).reshape(len(other), 5)
    return words.view(np.uint8)


def _key_bytes(column: np.ndarray, fmt) -> np.ndarray:
    """fmt of every entry of column as the rows of a NUL-padded uint8
    array, called once per distinct entry and gathered by index.  Floats are
    told apart by their bits, so -0.0 and 0.0 keep their own text."""
    if column.dtype == float:
        keys = np.ascontiguousarray(column).view(np.uint64)
    else:
        keys = column
    _, first, index = np.unique(keys, return_index=True, return_inverse=True)
    text = np.array([fmt(v) for v in column[first].tolist()], dtype="S")
    return text.take(index).view(np.uint8).reshape(len(index), text.itemsize)


def _joined_rows(fields, n_rows: int) -> bytearray:
    """Rows of comma-separated fields, each field an array of NUL-padded
    uint8 rows (or one row for all), laid out in one byte matrix whose
    padding one translate strips."""
    width = sum(field.shape[1] + 1 for field in fields)
    buffer = bytearray(n_rows * width)
    out = np.frombuffer(buffer, dtype=np.uint8).reshape(n_rows, width)
    start = 0
    for field in fields:
        stop = start + field.shape[1]
        out[:, start:stop] = field
        out[:, stop] = ord(",")
        start = stop + 1
    out[:, -1] = ord("\n")
    return buffer.translate(None, b"\0")


# rows per CSV body block: a block's fields, its byte matrix and the
# value formatter's temporaries peak at about 400 bytes a row, so the
# writer holds about 3 * protocol.BATCH_BYTES however long the table is
_BLOCK_ROWS = protocol.BATCH_BYTES // 128


def _csv_blocks(records, manifest: RunManifest, spec: analysis.SweepSpec):
    """The CSV file of `records` as bytes: the header, then the body in
    blocks of at most _BLOCK_ROWS rows.  The table is built and sorted
    before the header is yielded."""
    # stable: rows of two sweeps with equal keys (isingvssyk) keep their order
    table = analysis.RecordTable.from_rows(records).sorted()
    lines = [
        f"# sykteleport {__version__}",
        f"# master_seed {manifest.master_seed}",
        "# grids " + _grid_hash(spec.g_grid, spec.t_grid, spec.beta_grid, spec.seeds),
        CSV_HEADER,
    ]
    yield ("\n".join(lines) + "\n").encode()
    pair = np.frombuffer(f"{table.metric},{table.variant}".encode(), np.uint8)[None]
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table[start:start + _BLOCK_ROWS]
        value, unit = block.value, block.unit_interval_value()
        fields = [_key_bytes(block.seed, str)]
        fields += [_key_bytes(getattr(block, c), _fmt) for c in ("beta", "g", "t")]
        fields.append(pair)
        fields.append(_value_bytes(value))
        fields.append(fields[-1] if unit is value else _value_bytes(unit))
        yield _joined_rows(fields, len(block))


def csv_text(records, manifest: RunManifest, spec: analysis.SweepSpec) -> str:
    """The CSV file of `records` as text: the bytes emit_csv writes."""
    return b"".join(_csv_blocks(records, manifest, spec)).decode()


def _write_atomic(path, head: bytes, rest=()):
    """Write head and then each chunk of rest to a temporary file next to
    path and move it onto path once all are written.  On any error the
    temporary file is removed and an earlier file at path is left as it
    was; an OSError is a CliError with code 3."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        # made here, so a run that fails before its first write leaves none
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "wb") as out:
                out.write(head)
                for chunk in rest:
                    out.write(chunk)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", code=3) from exc


def emit_csv(records, path, manifest: RunManifest, spec: analysis.SweepSpec):
    """Write the CSV file of `records` to path, each block of rows as soon
    as it is formatted, so the writer's memory does not grow with the row
    count.  The file appears at path only once it is complete."""
    blocks = _csv_blocks(records, manifest, spec)
    head = next(blocks)  # a table that cannot be written fails before any file
    _write_atomic(path, head, blocks)


def emit_json(obj, path, manifest: RunManifest):
    payload = {
        "version": __version__,
        "master_seed": manifest.master_seed,
        "data": obj,
    }
    _write_atomic(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


# -- sanity suite -------------------------------------------------------

def sanity_suite(majorana_fn=None):
    """Fast self-test: stabilizer table, anticommutation, periodicity, the
    infinite-temperature pair structure and the size-level projectors
    (complete, idempotent and mutually orthogonal).  Returns (ok, checks)."""
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

    # the pipeline applies exp(i g upsilon) as sum_p exp(i g p) Pi_p
    proj = protocol.build_size_operator(reg).projectors()
    proj_dev = float(np.abs(proj.sum(axis=0) - np.eye(proj.shape[-1])).max())
    for p, pp in enumerate(proj):
        for q, pq in enumerate(proj):
            proj_dev = max(proj_dev, float(np.abs(pp @ pq - (pp if p == q else 0.0)).max()))
    checks.append(("size_level_projectors", proj_dev <= 1e-12, proj_dev))

    beta, t = 5.0, 1.0
    eng = protocol.get_engine(protocol.ProtocolConfig(seed=0))
    g_values = np.array([0.3, 1.1, 2.4])
    c1 = eng.curve_basis_z(beta, t, g_values)
    c2 = eng.curve_basis_z(beta, t, g_values + 2 * math.pi)
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
    message, t, metric = _variant_defaults(variant)
    spec = analysis.SweepSpec(
        base=protocol.ProtocolConfig(message=message, swap_variant=variant),
        t_grid=(t,), seeds=_seeds(manifest, n_seeds), metric=metric)
    return replace(spec, **overrides)


def _recovery_records(spec: analysis.SweepSpec, workers: int):
    """Two-stage time sweeps: pick g* per beta from the g-sweep ensemble
    mean, then sweep t over DEFAULT_T_GRID at that coupling."""
    gsweep = analysis.run_sweep(spec, workers=workers)
    tables = []
    for beta in spec.beta_grid:
        g_star = analysis.optimal_g(gsweep, beta)
        tspec = replace(spec, g_grid=(g_star,), beta_grid=(beta,),
                        t_grid=analysis.DEFAULT_T_GRID)
        tables.append(analysis.run_sweep(tspec, workers=workers))
    return analysis.RecordTable.concat(tables).sorted()


# Each preset writes <name>.csv (and, for some, <name>.json) into out; a
# g-sweep preset writes the summary of its records, if it takes one.

def _gsweep_figure(variant, summary, name, manifest, out, workers):
    spec = _single_spec(variant, manifest)
    records = analysis.run_sweep(spec, workers)
    emit_csv(records, out / f"{name}.csv", manifest, spec)
    if summary is not None:
        emit_json(summary(records), out / f"{name}.json", manifest)


def _cf_fit(records):
    points, g_star, t_star = analysis.fixed_point_temperature_curve(records)
    fit = analysis.fit_beta_c(points)
    return {"a": fit.a, "b": fit.b, "beta_c": fit.beta_c, "residual": fit.residual,
            "points": points, "g_star": g_star, "t_star": t_star}


def _g_heatmap(records):
    xs, ys, grid = analysis.heatmap(records, "g", "beta")
    return {"x_g": xs.tolist(), "y_beta": ys.tolist(), "grid": grid.tolist()}


def _recovery_figure(variant, name, manifest, out, workers):
    spec = _single_spec(variant, manifest)
    emit_csv(_recovery_records(spec, workers),
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
    "sq1": partial(_gsweep_figure, "delta01", None),
    "sq2": partial(_gsweep_figure, "delta02", None),
    "isingvssyk": _ising_vs_syk_figure,
    "fig6": partial(_recovery_figure, "delta01"),
    "fig7": partial(_recovery_figure, "delta02"),
    "fig34": partial(_gsweep_figure, "bell_sequential", None),
    "timeevol": partial(_recovery_figure, "bell_sequential"),
    "cffit": partial(_gsweep_figure, "bell_sequential", _cf_fit),
    "heatmap-g": partial(_gsweep_figure, "bell_sequential", _g_heatmap),
    "heatmap-t": _heatmap_t_figure,
    "neofidelity": _neofidelity_figure,
}
FIGURES = tuple(_PRESETS)


def run_figure(name: str, manifest: RunManifest, workers: int = 1):
    """Produce the records (and fits) behind one preset figure."""
    preset = _PRESETS.get(name)
    if preset is None:
        raise CliError(f"unknown figure {name!r}")
    preset(name, manifest, Path(manifest.out_dir), workers)


# -- entry point ---------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1, not 2, which means a numerical failure here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def build_parser():
    p = _ArgumentParser(
        prog="sykteleport",
        description="Teleportation-fidelity sweeps for a coupled random "
                    "quartic-fermion model prepared in a thermofield double.")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--config", type=str, default=None, help="key=value config file")
    mode.add_argument("--figure", type=str, choices=FIGURES, default=None,
                      help="run a preset figure sweep")
    mode.add_argument("--sanity", action="store_true", help="run the fast self-test")
    p.add_argument("--out", type=str, default="out", help="output directory")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--workers", type=int, default=1, help="worker processes")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.sanity:
            ok, checks = sanity_suite()
            for name, passed, dev in checks:
                print(f"[{'PASS' if passed else 'FAIL'}] {name}: deviation {dev:.3e}")
            return 0 if ok else 2
        manifest = RunManifest(
            command=args.figure or "sweep", config_path=args.config,
            out_dir=args.out, master_seed=args.seed, workers=args.workers)
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
        spec = spec_from_config(parse_config_text(text), args.seed)
        records = analysis.run_sweep(spec, workers=args.workers)
        emit_csv(records, Path(args.out) / "sweep.csv", manifest, spec)
        print(f"wrote {len(records)} records to {args.out}/sweep.csv")
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
