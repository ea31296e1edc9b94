"""One timed repetition in a fresh interpreter.

Usage: python3 perfbench/child.py '<json request>'

The request names the workload, master seed, output directory, whether to
trace, and the monotonic time at which the parent started this process.
The child imports the package, builds one unrelated Engine (set-up), then
runs the workload once with a cold engine cache and times it.  It writes
the evaluated records (and, when tracing, every span) next to the output
and prints a JSON summary as its last line.  BLAS/OpenMP thread pins come
from the environment the parent sets.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

# a realization seed no workload uses: workloads take 63-bit derived seeds
UNRELATED_SEED = 7


def capture_sweeps(analysis, sink):
    """Wrap analysis.run_sweep so each returned record list lands in sink."""
    original = analysis.run_sweep

    @functools.wraps(original)
    def run_sweep(spec, workers=1):
        records = original(spec, workers)
        sink.append((spec, records))
        return records

    analysis.run_sweep = run_sweep


def save_records(path, sweeps):
    base_fields = []
    sweep_index, seed, beta, g, t, value = [], [], [], [], [], []
    for k, (spec, records) in enumerate(sweeps):
        fields = dict(spec.base.__dict__)
        fields.update(metric=spec.metric, n_samples=spec.n_samples)
        fields = {key: (repr(val) if isinstance(val, complex) else val)
                  for key, val in fields.items()}
        base_fields.append(fields)
        for rec in records:
            sweep_index.append(k)
            seed.append(rec.seed)
            beta.append(rec.beta)
            g.append(rec.g)
            t.append(rec.t)
            value.append(rec.value)
    np.savez(path, sweeps=json.dumps(base_fields),
             sweep=np.array(sweep_index, dtype=np.int32),
             seed=np.array(seed, dtype=np.int64), beta=np.array(beta, dtype=float),
             g=np.array(g, dtype=float), t=np.array(t, dtype=float),
             value=np.array(value, dtype=float))


def main(request: dict) -> dict:
    import sykteleport
    from sykteleport import analysis, protocol

    protocol.get_engine(protocol.ProtocolConfig(seed=UNRELATED_SEED))
    setup_s = time.monotonic() - request["spawned_at"]
    result = {"setup_s": setup_s}
    if request.get("setup_only"):
        return result

    import workloads

    run, _ = workloads.WORKLOADS[request["workload"]]
    out = Path(request["out"])
    out.mkdir(parents=True, exist_ok=True)
    sweeps = []
    capture_sweeps(analysis, sweeps)
    tracer = None
    if request["trace"]:
        from tracer import Tracer
        tracer = Tracer(sykteleport).install()
    error = None
    start = time.perf_counter()
    try:
        run(request["seed"], out, tiny=request.get("tiny", False))
    except Exception as exc:  # a failing workload is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    result.update(
        wall_s=wall_s, error=error,
        points=sum(len(records) for _, records in sweeps),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    save_records(out / "records.npz", sweeps)
    if tracer is not None:
        result.update(layers=tracer.summary(), flops=tracer.flops, spans=tracer.n_spans)
        tracer.save(out / "spans.npz")
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
