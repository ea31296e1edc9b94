"""The four benchmark workloads, driven only through the package's public API.

Each workload takes a master seed and an output directory and writes the
same files a CLI user would get.  The records it evaluates are collected
by the caller, which wraps ``analysis.run_sweep`` from outside.  ``tiny``
shrinks every grid to a few points with the same stages, for the harness
self-test.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from sykteleport import analysis, cli, protocol

# g step pi/12 over [0, 4 pi]: 49 points
HAAR_G_GRID = tuple(np.arange(0.0, 4 * math.pi + 1e-12, math.pi / 12))
# g step pi/6 over [0, 4 pi]: 25 points
ENSEMBLE_G_GRID = tuple(np.arange(0.0, 4 * math.pi + 1e-12, math.pi / 6))

TINY_G_GRID = tuple(analysis.DEFAULT_G_GRID[:4])


def _manifest(name: str, seed: int, out) -> cli.RunManifest:
    return cli.RunManifest(command=name, config_path=None, out_dir=str(out),
                           master_seed=seed, workers=1)


def _disorder_seeds(master_seed: int, n: int) -> tuple:
    return tuple(cli.substream_seed(master_seed, "disorder", i) for i in range(n))


def _spec(variant: str, metric: str, seeds, **overrides) -> analysis.SweepSpec:
    bell = variant == "bell_sequential"
    base = protocol.ProtocolConfig(message="bell_phi_plus" if bell else "basis_zero",
                                   swap_variant=variant)
    t = protocol.DEFAULT_T_BELL if bell else protocol.DEFAULT_T_SINGLE
    return replace(analysis.SweepSpec(base=base, t_grid=(t,), seeds=seeds, metric=metric),
                   **overrides)


def gsweep_z(seed: int, out, tiny: bool = False):
    """The sq1 preset: delta01 <Z> over 201 g x 8 beta x 20 seeds at t = 1."""
    manifest = _manifest("sq1", seed, out)
    if not tiny:
        cli.run_figure("sq1", manifest, workers=1)
        return
    spec = _spec("delta01", "basis_z", _disorder_seeds(seed, 2),
                 g_grid=TINY_G_GRID, beta_grid=(0.0, 5.0))
    cli.emit_csv(analysis.run_sweep(spec, 1), out / "sq1.csv", manifest, spec)


def tgrid_bell(seed: int, out, tiny: bool = False):
    """The heatmap-t preset: Bell g-sweep at beta = 0 for g*, then
    73 t x 8 beta x 20 seeds at g*."""
    manifest = _manifest("heatmap-t", seed, out)
    if not tiny:
        cli.run_figure("heatmap-t", manifest, workers=1)
        return
    spec = _spec("bell_sequential", "bell_stabilizer", _disorder_seeds(seed, 2),
                 g_grid=TINY_G_GRID, beta_grid=(0.0, 5.0))
    gsweep = analysis.run_sweep(replace(spec, beta_grid=(0.0,)), 1)
    g_star = analysis.optimal_g(gsweep, 0.0)
    tspec = replace(spec, g_grid=(g_star,), t_grid=analysis.BELL_T_WINDOW[:3])
    records = analysis.run_sweep(tspec, 1)
    xs, ys, grid = analysis.heatmap(records, "t", "beta")
    cli.emit_csv(records, out / "heatmap-t.csv", manifest, tspec)
    cli.emit_json({"x_t": xs.tolist(), "y_beta": ys.tolist(), "grid": grid.tolist()},
                  out / "heatmap-t.json", manifest)


def haar_avg(seed: int, out, tiny: bool = False):
    """neofidelity settings on a smaller grid: Haar-averaged fidelity for
    delta01 and delta02 over 49 g x beta {0, 20} x 4 seeds, 100 samples."""
    manifest = _manifest("neofidelity", seed, out)
    n_seeds, grid, n_samples = (1, TINY_G_GRID, 10) if tiny else (4, HAAR_G_GRID, 100)
    for variant in ("delta01", "delta02"):
        spec = _spec(variant, "arbitrary_avg", _disorder_seeds(seed, n_seeds),
                     g_grid=grid, beta_grid=(0.0, 20.0), n_samples=n_samples)
        cli.emit_csv(analysis.run_sweep(spec, 1), out / f"neofidelity_{variant}.csv",
                     manifest, spec)


def realization_ensemble(seed: int, out, tiny: bool = False):
    """isingvssyk on many realizations: SYK and kicked Ising at beta = 0,
    delta01 <Z>, 400 seeds x 25 g each at t = 1."""
    manifest = _manifest("isingvssyk", seed, out)
    n_seeds, grid = (3, TINY_G_GRID) if tiny else (400, ENSEMBLE_G_GRID)
    spec_syk = _spec("delta01", "basis_z", _disorder_seeds(seed, n_seeds),
                     g_grid=grid, beta_grid=(0.0,))
    steps = float(protocol.DEFAULT_TFIM_STEPS)
    spec_tfim = replace(spec_syk, base=replace(spec_syk.base, model="tfim", t=steps),
                        t_grid=(steps,))
    comp = analysis.compare_models(spec_syk, spec_tfim, workers=1)
    cli.emit_csv(comp["syk"]["records"] + comp["tfim"]["records"],
                 out / "isingvssyk.csv", manifest, spec_syk)
    cli.emit_json({k: {kk: vv for kk, vv in v.items() if kk != "records"}
                   if isinstance(v, dict) else v for k, v in comp.items()},
                  out / "isingvssyk.json", manifest)


WORKLOADS = {
    "gsweep_z": (gsweep_z, 32_160),
    "tgrid_bell": (tgrid_bell, 15_700),
    "haar_avg": (haar_avg, 784),
    "realization_ensemble": (realization_ensemble, 20_000),
}

TINY_POINTS = {
    "gsweep_z": 16,            # 4 g x 2 beta x 2 seeds
    "tgrid_bell": 20,          # 4 g x 2 seeds, then 3 t x 2 beta x 2 seeds
    "haar_avg": 16,            # 2 variants x 4 g x 2 beta x 1 seed
    "realization_ensemble": 24,  # 2 models x 4 g x 3 seeds
}
