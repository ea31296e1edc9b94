"""Benchmark for sykteleport: sweep throughput, set-up time and memory,
with correctness checks, and a per-layer trace.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload gsweep_z --seed 1 --seconds 32 --trace 0

Every repetition runs in a fresh interpreter (perfbench/child.py) with a
cold engine cache and ``--workers 1``; BLAS/OpenMP are pinned to one
thread.  Repetitions continue until ``--seconds`` is used up, and each
timing is the median over them.  With
``--trace 0`` the last line of output carries the end-to-end metrics; with
``--trace 1`` each repetition is an untraced/traced pair on the same
inputs and the last line carries the per-layer metrics.  The records of
every repetition are checked: finite values, the expected count, a
sample recomputed with the dense protocol unitary, the first untraced
repetition against the reference values in perfbench/reference/, and
traced against untraced records bit for bit.  A failed check, or an
exception in any repetition, makes the exit code 1; a checkout without the
package makes it 2.

``--capture-reference`` rewrites perfbench/reference/ from the current
code.
"""

from __future__ import annotations

import os

THREAD_PINS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import LAYERS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE_DIR = HERE / "reference"

WORKLOAD_NAMES = ("gsweep_z", "tgrid_bell", "haar_avg", "realization_ensemble")
REF_SEED = 0            # master seed of the first untraced repetition
MIN_REPS = 3            # untraced repetitions even past --seconds
MIN_PAIRS = 1           # untraced/traced pairs even past --seconds
SETUP_SAMPLES = 7       # set-up measurements per run, repetitions included
ORACLE_SAMPLES = 12     # records per run recomputed with the dense unitary
ORACLE_TOL = 1e-9
REF_TOL = 1e-10
CHILD_TIMEOUT_S = 150

# Functions whose call count and share of traced time are reported as
# per-layer metrics; every wrapped function is in the written trace.
LAYER_FUNCTIONS = (
    "protocol.Engine.finish", "qop.apply_matrix_on_sites", "qop.evolve",
    "protocol.Engine.side_evolution", "protocol.Engine.thermal_weight_right",
    "protocol.Engine.basis_z_value", "protocol.Engine.curve_basis_z",
    "tfd.build_tfd", "qop.hermitian_eig", "qop.is_hermitian",
    "protocol.Engine.dressed_state", "protocol.Engine.tfd_vector",
    "protocol.stabilizer_fidelity", "protocol.Engine.bell_value",
    "protocol.Engine.curve_bell", "qop.kron",
    "models.split_uniform", "protocol.run_arbitrary_avg", "protocol.haar_qubit",
    "qop.reduced_density",
    "protocol.Engine.__init__", "protocol.get_engine", "protocol.build_insert",
    "qop.swap_matrix", "qop.swap_pauli_decomposition",
    "models.sample_syk_couplings", "models.gaussian_draw",
    "models.build_syk_side_matrix", "models.build_tfim_floquet",
    "models.floquet_effective_spectrum", "protocol.build_size_operator",
    "layout.bell_vacuum",
    "analysis.run_sweep", "analysis.ensemble_mean", "analysis.optimal_g",
    "analysis.heatmap", "analysis.compare_models",
    "cli.run_figure", "cli.csv_text", "cli.emit_csv",
)


class BenchError(RuntimeError):
    """The harness itself could not run (as opposed to a failed check)."""


def per_layer_units() -> dict:
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for name in LAYER_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_share"] = "share"
    units.update({
        "protocol.engine_cache.hit_ratio": "ratio",
        "qop.hermitian_eig.calls_per_engine": "count",
        "qop.apply_matrix_on_sites.gflop_computed": "GFLOP",
        "trace.section_s": "s",
        "trace.spans": "count",
        "trace.points_per_s_traced": "1/s",
        "trace.points_per_s_untraced": "1/s",
        "trace.overhead_points_per_s": "1/s",
    })
    return units


END_TO_END_UNITS = {"points_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


# -- repetitions ---------------------------------------------------------

def rep_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"perfbench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def spawn(request: dict) -> dict:
    """Run one fresh interpreter; its last stdout line is the JSON summary."""
    request = dict(request, spawned_at=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(request)],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"repetition exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rep(workload: str, seed: int, out: Path, trace: bool, tiny: bool) -> dict:
    summary = spawn({"workload": workload, "seed": seed, "out": str(out),
                     "trace": trace, "tiny": tiny})
    summary.update(seed=seed, out=str(out), trace=trace)
    return summary


def repeat(workload: str, seed: int, seconds: float, trace: bool, tiny: bool, run_dir: Path):
    """Repetitions until the time is used up.  Untraced: the first uses
    REF_SEED, the rest seeds derived from --seed.  Traced: each step is an
    untraced and a traced repetition on the same derived seed."""
    start = time.monotonic()
    steps = []
    while True:
        i = len(steps)
        if trace:
            s = rep_seed(seed, i)
            steps.append((run_rep(workload, s, run_dir / f"rep{i}", False, tiny),
                          run_rep(workload, s, run_dir / f"rep{i}-traced", True, tiny)))
        else:
            s = REF_SEED if i == 0 else rep_seed(seed, i)
            steps.append(run_rep(workload, s, run_dir / f"rep{i}", False, tiny))
        elapsed = time.monotonic() - start
        enough = len(steps) >= (MIN_PAIRS if trace else MIN_REPS)
        if enough and elapsed * (len(steps) + 1) / len(steps) > seconds:
            return steps


def setup_probes(reps) -> list:
    """Set-up-only runs that top the set-up samples up to SETUP_SAMPLES."""
    return [spawn({"setup_only": True}) for _ in range(SETUP_SAMPLES - len(reps))]


# -- checks --------------------------------------------------------------

def load_records(rep: dict) -> dict:
    with np.load(Path(rep["out"]) / "records.npz") as data:
        arrays = {key: data[key] for key in data.files}
    arrays["sweeps"] = json.loads(str(arrays["sweeps"]))
    return arrays


def keys_digest(rec: dict) -> str:
    h = hashlib.sha256(json.dumps(rec["sweeps"], sort_keys=True).encode())
    for key in ("sweep", "seed", "beta", "g", "t"):
        h.update(rec[key].tobytes())
    return h.hexdigest()


def identical(a: dict, b: dict) -> bool:
    return a["sweeps"] == b["sweeps"] and all(
        np.array_equal(a[key], b[key]) for key in ("sweep", "seed", "beta", "g", "t", "value"))


def reference_deviation(workload: str, rec: dict) -> float:
    """Largest |value - reference| over every record; inf on a key mismatch."""
    path = REFERENCE_DIR / f"{workload}.npz"
    with np.load(path) as ref:
        if str(ref["keys_digest"]) != keys_digest(rec):
            return float("inf")
        return float(np.abs(rec["value"] - ref["value"]).max())


def oracle_deviation(records, seed: int, n_samples: int) -> tuple:
    """Largest |fast - dense| over a fixed sample, drawn evenly over sweeps."""
    import oracle
    from sykteleport import protocol

    rng = np.random.default_rng(seed)
    n_sweeps = len(records[0]["sweeps"])
    per_sweep = -(-n_samples // n_sweeps)
    worst, checked = 0.0, 0
    for k in range(n_sweeps):
        pool = [(r, j) for r in records for j in np.flatnonzero(r["sweep"] == k)]
        for pick in rng.choice(len(pool), size=min(per_sweep, len(pool)), replace=False):
            rec, j = pool[pick]
            fields = dict(rec["sweeps"][k])
            metric, n_s = fields.pop("metric"), fields.pop("n_samples")
            fields = {key: (complex(val) if key in ("alpha", "beta_msg") else
                            tuple(val) if isinstance(val, list) else val)
                      for key, val in fields.items()}
            cfg = replace(protocol.ProtocolConfig(**fields), seed=int(rec["seed"][j]),
                          beta=float(rec["beta"][j]), g=float(rec["g"][j]),
                          t=float(rec["t"][j]))
            if metric == "arbitrary_avg":
                cfg = replace(cfg, message="arbitrary")
            dense = oracle.dense_value(cfg, metric, n_s)
            worst = max(worst, abs(dense - float(rec["value"][j])))
            checked += 1
    return worst, checked


# -- machine --------------------------------------------------------------

def steal_ticks() -> int:
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return -1


def machine(load_start, steal_start) -> dict:
    import scipy

    steal_end = steal_ticks()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_pins": THREAD_PINS,
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "cpu_steal_s": ((steal_end - steal_start) / os.sysconf("SC_CLK_TCK")
                        if steal_start >= 0 and steal_end >= 0 else None),
        "noise_note": ("on a shared 2-core sandbox, five fresh sq1 runs ranged "
                       "2.69-3.76 s with CPU time tracking wall time; metrics are "
                       "medians over repetitions"),
    }


# -- metrics ---------------------------------------------------------------

def end_to_end(reps, setups) -> dict:
    """Medians over the repetitions."""
    return {
        "points_per_s": statistics.median(r["points"] / r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(pairs) -> dict:
    traced = [t for _, t in pairs]
    first = traced[0]["layers"]
    calls = {name: first[name]["calls"] for name in first}
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = statistics.median(
            sum(v["self_s"] for n, v in t["layers"].items() if n.startswith(layer + "."))
            for t in traced)
    for name in LAYER_FUNCTIONS:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_share"] = statistics.median(
            t["layers"][name]["self_s"] / t["wall_s"] for t in traced)
    builds = calls["protocol.Engine.__init__"]
    lookups = calls["protocol.get_engine"]
    values["protocol.engine_cache.hit_ratio"] = 1.0 - builds / lookups if lookups else 0.0
    values["qop.hermitian_eig.calls_per_engine"] = (
        calls["qop.hermitian_eig"] / builds if builds else 0.0)
    values["qop.apply_matrix_on_sites.gflop_computed"] = (
        traced[0]["flops"].get("qop.apply_matrix_on_sites", 0.0) / 1e9)
    traced_pps = statistics.median(t["points"] / t["wall_s"] for t in traced)
    plain_pps = statistics.median(u["points"] / u["wall_s"] for u, _ in pairs)
    values.update({
        "trace.section_s": statistics.median(t["wall_s"] for t in traced),
        "trace.spans": traced[0]["spans"],
        "trace.points_per_s_traced": traced_pps,
        "trace.points_per_s_untraced": plain_pps,
        "trace.overhead_points_per_s": traced_pps - plain_pps,
    })
    return values


# -- one benchmark run -------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run, check and summarize one benchmark run; returns the full result."""
    import workloads

    _, expected = workloads.WORKLOADS[workload]
    if tiny:
        expected = workloads.TINY_POINTS[workload]
    load_start, steal_start = list(os.getloadavg()), steal_ticks()
    run_dir = WORK / "runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        spawn({"setup_only": True})  # warm-up: bytecode caches, page cache
        steps = repeat(workload, seed, seconds, trace, tiny, run_dir)
        reps = [r for step in steps for r in (step if trace else (step,))]
        untraced = [step[0] for step in steps] if trace else steps
        probes = setup_probes(reps)
        setups = [r["setup_s"] for r in reps + probes]
        records = [load_records(r) for r in reps]
        failed = sum(max(expected - int(np.isfinite(rec["value"]).sum()), 0)
                     for rec in records)
        checks = {"point_count": all(r["points"] <= expected for r in reps)}
        errors = [r["error"] for r in reps if r["error"]]
        checks["no_errors"] = not errors
        oracle_dev, oracle_n = oracle_deviation(records, seed, ORACLE_SAMPLES)
        checks["oracle"] = oracle_dev <= ORACLE_TOL
        ref_dev = None
        if not trace and not tiny:
            ref_dev = reference_deviation(workload, records[0])
            checks["reference"] = ref_dev <= REF_TOL
        if trace:
            checks["traced_equals_untraced"] = all(
                identical(records[2 * i], records[2 * i + 1]) for i in range(len(steps)))
            spans_dir = WORK / "trace"
            spans_dir.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(Path(steps[-1][1]["out"]) / "spans.npz",
                            spans_dir / f"{workload}.npz")
        attempted = expected * len(reps)
        checks["no_failed_points"] = failed == 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "workload": workload, "seed": seed, "trace": trace, "tiny": tiny,
        "repetitions": len(steps), "seeds": [r["seed"] for r in reps],
        "attempted": attempted, "failed": failed, "errors": errors[:5],
        "error_rate": failed / attempted,
        "oracle_max_abs_dev": oracle_dev, "oracle_records": oracle_n,
        "ref_max_abs_dev": ref_dev,
        "checks": checks, "correct": all(checks.values()),
        "end_to_end": end_to_end(untraced, setups), "setup_samples": setups,
        "rep_wall_s": [r["wall_s"] for r in reps],
        "rep_points": [r["points"] for r in reps],
        "per_layer": per_layer(steps) if trace else None,
        "layers": steps[0][1]["layers"] if trace else None,
        "machine": machine(load_start, steal_start),
    }


def report(result: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    e2e = result["end_to_end"]
    print(f"perfbench {result['workload']} seed={result['seed']} trace={int(result['trace'])} "
          f"repetitions={result['repetitions']} seeds={result['seeds']}")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name} = {e2e[name]:.6g} {unit}")
    print(f"  error_rate = {result['error_rate']:.6g} 1")
    print(f"  oracle_max_abs_dev = {result['oracle_max_abs_dev']:.3e} 1 "
          f"({result['oracle_records']} records)")
    if result["ref_max_abs_dev"] is not None:
        print(f"  ref_max_abs_dev = {result['ref_max_abs_dev']:.3e} 1")
    print(f"  checks = {json.dumps(result['checks'])}")
    if result["trace"]:
        pl = result["per_layer"]
        print(f"  trace overhead: {pl['trace.points_per_s_traced']:.6g} traced - "
              f"{pl['trace.points_per_s_untraced']:.6g} untraced = "
              f"{pl['trace.overhead_points_per_s']:.6g} points/s")
        rows = sorted(result["layers"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in rows:
            if row["calls"]:
                print(f"  {name:42s} calls {row['calls']:8d}  self {row['self_s']:9.4f} s"
                      f"  total {row['total_s']:9.4f} s")
    print("  machine = " + json.dumps(result["machine"]))
    if result["trace"]:
        units, values = per_layer_units(), result["per_layer"]
    else:
        units, values = END_TO_END_UNITS, e2e
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def capture_reference():
    """Store every record of one untraced REF_SEED repetition per workload."""
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOAD_NAMES:
        out = WORK / "capture" / workload
        rep = run_rep(workload, REF_SEED, out, False, False)
        rec = load_records(rep)
        np.savez_compressed(REFERENCE_DIR / f"{workload}.npz", value=rec["value"],
                            keys_digest=keys_digest(rec))
        shutil.rmtree(out, ignore_errors=True)
        print(f"{workload}: {rep['points']} records")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                   help="one workload, or all four in turn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--capture-reference", action="store_true",
                   help="rewrite perfbench/reference/ from the current code")
    args = p.parse_args(argv)
    if not (SRC / "sykteleport" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.capture_reference:
        capture_reference()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    status = 0
    for workload in WORKLOAD_NAMES if args.workload == "all" else (args.workload,):
        try:
            result = measure(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        final = report(result)
        results_dir = WORK / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
        (results_dir / name).write_text(json.dumps(result, indent=1) + "\n")
        print(json.dumps(final))
        status = max(status, 0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
