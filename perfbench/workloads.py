"""The benchmark's scenario workloads, generated from a seed.

``BENCHMARK.json`` gates three of them.  ``hybrid-ml-hpc`` stays
runnable by name: it is the only one whose ML allreduces communicate,
but on a shared host its run-to-run spread was the widest of the
pure-Python workloads, and ``paper-scale-hybrid`` measures the same
engine and layers.

Each generator returns a plain scenario mapping -- exactly what
``repro.scenario.parse_scenario`` accepts -- so the program under test
receives only the generated scenario.  The seed becomes the scenario's
simulation seed (placement shuffles, adaptive-routing draws, traffic
destinations); sizes and engines are fixed per workload.
"""

from __future__ import annotations

DEFAULT_SEED = 1

MINI_1D = {"network": "1d", "scale": "mini"}


def hybrid_ml_hpc(seed: int) -> dict:
    """The paper's Workload3 co-run (examples/scenarios/hybrid_workload.toml).

    Two ML skeletons whose allreduces communicate, plus three HPC apps,
    on the pure-Python ``sequential`` engine (bypasses the accel kernel).
    """
    return {
        "name": "hybrid-ml-hpc",
        "topology": dict(MINI_1D),
        "routing": "adp",
        "placement": "rg",
        "seed": seed,
        "horizon": 0.05,
        "jobs": [{"app": a} for a in ("cosmoflow", "alexnet", "nekbone", "milc", "nn")],
    }


def _storm(name: str, seed: int, iters: int, engine: dict) -> dict:
    """One 128-rank uniform-random job: 64 KiB every 1 us per rank."""
    return {
        "name": name,
        "topology": dict(MINI_1D),
        "routing": "adp",
        "placement": "rn",
        "seed": seed,
        "horizon": 1.0,
        "engine": engine,
        "jobs": [{
            "app": "ur",
            "nranks": 128,
            "params": {"msg_bytes": 65536, "interval_s": 1e-6, "iters": iters},
        }],
    }


def storm_accel(seed: int) -> dict:
    """The storm on ``accel-sequential``: the compiled kernel's workload."""
    return _storm("storm-accel", seed, 48, {"type": "accel-sequential"})


def paper_scale_hybrid(seed: int) -> dict:
    """Four apps at paper scale (7,829 ranks on the 8,448-node 1D dragonfly).

    The only workload whose set-up layers (topology, placement, rank
    launch) and working set are large.
    """
    return {
        "name": "paper-scale-hybrid",
        "topology": {"network": "1d", "scale": "paper"},
        "routing": "adp",
        "placement": "rg",
        "seed": seed,
        "horizon": 0.3e-3,
        "jobs": [{"app": a} for a in ("cosmoflow", "nekbone", "milc", "nn")],
    }


def storm_mp(seed: int) -> dict:
    """A shorter storm on ``mp-conservative``: two spawned workers, YAWNS windows."""
    return _storm("storm-mp", seed, 16,
                  {"type": "mp-conservative", "partitions": 2, "backend": "mp"})


WORKLOADS = {
    "hybrid-ml-hpc": hybrid_ml_hpc,
    "storm-accel": storm_accel,
    "paper-scale-hybrid": paper_scale_hybrid,
    "storm-mp": storm_mp,
}

#: What each workload's result must show about the engine that ran it:
#: both fallbacks are silent in the program, so a timing would otherwise
#: measure a different engine than the one named.
EXPECT_ENGINE = {
    "storm-accel": {"backend": "compiled"},
    "storm-mp": {"mode": "distributed", "fallback": None, "partitions": 2},
}
