"""Self-test of the benchmark harness.

Run from the root of a source checkout:

    python3 perfbench/selftest.py          # tiny grids, about a minute
    python3 perfbench/selftest.py --full   # adds traced runs at real sizes

Tiny checks, per workload: every check passes, per-layer call counts repeat
exactly between two traced runs, and the printed metric names are the ones
BENCHMARK.json declares.  It also checks that the oracle and the bit-identity
check catch a perturbed record, and that the benchmark exits non-zero without
a result in a directory that holds only the benchmark.  ``--full`` checks the
call counts quoted for each workload at its real size.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import numpy as np

import run

# Call counts of one traced repetition at real size.  hermitian_eig on
# tgrid_bell is 11,780: set-up has already diagonalized the size operator.
FULL_COUNTS = {
    "gsweep_z": {"points": 32_160, "protocol.Engine.dressed_state": 160,
                 "tfd.build_tfd": 160},
    "tgrid_bell": {"points": 15_700, "protocol.Engine.dressed_state": 11_700,
                   "qop.hermitian_eig": 11_780, "protocol.stabilizer_fidelity": 15_700},
    "haar_avg": {"points": 784, "models.split_uniform": 157_040,
                 "protocol.get_engine": 792, "protocol.Engine.__init__": 16},
    "realization_ensemble": {"points": 20_000, "protocol.Engine.__init__": 800},
}


def check(ok: bool, what: str, failures: list):
    print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        failures.append(what)


def calls(result: dict) -> dict:
    return {name: row["calls"] for name, row in result["layers"].items()}


def declared_names() -> tuple:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def tiny_checks(failures: list):
    e2e_declared, layer_declared = declared_names()
    for workload in run.WORKLOAD_NAMES:
        first = run.measure(workload, 11, 0, trace=True, tiny=True)
        second = run.measure(workload, 11, 0, trace=True, tiny=True)
        check(first["correct"] and second["correct"],
              f"{workload}: traced runs pass every check {first['checks']}", failures)
        check(calls(first) == calls(second),
              f"{workload}: per-layer call counts repeat exactly", failures)
        plain = run.measure(workload, 11, 0, trace=False, tiny=True)
        check(plain["correct"], f"{workload}: untraced run passes every check", failures)
        for result, declared, kind in ((plain, e2e_declared, "end-to-end"),
                                       (first, layer_declared, "per-layer")):
            with contextlib.redirect_stdout(io.StringIO()):
                printed = {k: v["unit"] for k, v in run.report(result)["metrics"].items()}
            check(printed == declared, f"{workload}: {kind} names match BENCHMARK.json",
                  failures)


def perturbation_checks(failures: list):
    out = run.WORK / "selftest" / "perturb"
    rep = run.run_rep("gsweep_z", 3, out, False, True)
    rec = run.load_records(rep)
    bumped = dict(rec, value=rec["value"] + 1e-6)
    dev, _ = run.oracle_deviation([bumped], 3, run.ORACLE_SAMPLES)
    check(dev > run.ORACLE_TOL, f"oracle catches a 1e-6 shift (dev {dev:.1e})", failures)
    ulp = dict(rec, value=rec["value"].copy())
    ulp["value"][0] = np.nextafter(ulp["value"][0], np.inf)
    check(not run.identical(rec, ulp), "bit-identity check catches a one-ulp change", failures)
    shutil.rmtree(out, ignore_errors=True)


def bare_directory_check(failures: list):
    bare = run.WORK / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(run.HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                           "gsweep_z", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          f"without the package: exit {proc.returncode}, no result printed", failures)
    shutil.rmtree(bare, ignore_errors=True)


def full_checks(failures: list):
    for workload, expected in FULL_COUNTS.items():
        result = run.measure(workload, 11, 0, trace=True)
        counts = dict(calls(result), points=result["rep_points"][1])
        got = {name: counts[name] for name in expected}
        check(result["correct"] and got == expected,
              f"{workload}: real-size counts {got}", failures)


def main(argv) -> int:
    if not (run.SRC / "sykteleport" / "__init__.py").is_file():
        print("error: run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    failures = []
    tiny_checks(failures)
    perturbation_checks(failures)
    bare_directory_check(failures)
    if "--full" in argv:
        full_checks(failures)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
