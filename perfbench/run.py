#!/usr/bin/env python3
"""Scenario-level benchmark: time to result, set-up time and peak memory.

Run from the repository root::

    python3 perfbench/run.py --workload storm-accel --seed 1 --seconds 35 --trace 0

A run generates the workload's scenario from ``--seed`` and executes it
repeatedly, each time in a fresh process (``rep.py``), until
about ``--seconds`` of measurement have passed and at least ``MIN_REPS``
executions are done.  Between executions it launches extra set-up-only
processes, so ``setup_s`` is a median over many samples.

End-to-end metrics (``--trace 0``), each the median over the run:

* ``run_s``       -- a built session to the result document in hand:
  ``step(horizon)`` + ``finalize()`` + ``reduce_scenario_result`` +
  canonical JSON emission;
* ``setup_s``     -- launching the process to a built session:
  interpreter start and imports, spec parse, ``build_manager`` and
  ``SimulationSession.build()``;
* ``peak_rss_mb`` -- peak RSS of the process plus that of each
  ``mp-conservative`` worker it spawned.

Every time, ``run_s`` and ``setup_s`` and the phase spans alike, is host
wall time rescaled to a fixed host speed: a probe thread in each
execution (``hostspeed.py``) times a fixed loop on the program's vCPU
every 50 ms, and each phase's wall time is multiplied by
``REFERENCE_S / mean probe time`` over set-up or over the run.  On a
shared host the vCPU's speed drifts with other tenants' load, with no
steal time to subtract.  A change to the program moves a rescaled time
by the same share as its wall time.  The raw wall times and mean probe
times are printed on each execution's line and in the host record.

``--trace 1`` reports the per-layer metrics instead: phase spans and
exact counts from the untraced executions, then one cProfile execution
folded into layer self-time shares (``layers.py``) with the tracing
overhead against the untraced ``run_s``.  cProfile sees one process: on
``storm-mp`` the shares are the coordinator's, whose time is mostly
spent waiting for its workers.

Set-up outside the timing: the first execution of every run is an
untimed warm-up that compiles the accel kernel into ``.bench_build``
(once per checkout; users pay that once per install) and fills the
bytecode and page caches.

Correctness: every execution must commit the pinned event count and
produce the pinned sha256 of the sorted-key result JSON (``pins.json``)
when the seed is pinned, and otherwise the first execution's; the
engine must be the one the workload names (``workloads.EXPECT_ENGINE``).
A miss, a crash or a timeout counts as a failed operation.

The last stdout line is the result JSON; the lines before it are the
host record (interpreter, CPUs, kernel cache, mean probe times, raw
wall-time medians) and one line per execution.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import COUNTS, SHARES
from workloads import DEFAULT_SEED, EXPECT_ENGINE, WORKLOADS
from hostspeed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
PINS = HERE / "pins.json"

MIN_REPS = 3
SETUP_ONLY_PER_REP = 1
#: Measurement stops this long after the warm-up, so that a run exits
#: well inside the 180 s it is allowed.
HARD_WALL_S = 165.0
#: First-run allowance for compiling the accel kernel.
WARM_TIMEOUT_S = 600.0

SETUP_SPANS = (
    ("startup.import_s", "launch", "imported"),
    ("scenario.parse_s", "imported", "parsed"),
    ("scenario.build_s", "parsed", "built"),
    ("union.session_build_s", "built", "session_built"),
)
RUN_SPANS = (
    ("union.step_s", "session_built", "stepped"),
    ("union.finalize_s", "finalize_start", "finalized"),
    ("scenario.reduce_s", "finalized", "reduced"),
    ("scenario.emit_s", "reduced", "emitted"),
)


class RepFailed(Exception):
    """One execution raised, timed out, or produced a wrong result."""


def rep_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["UNION_ACCEL_CACHE"] = str(BUILD_DIR / "accel")
    env.pop("UNION_ACCEL_DISABLE", None)
    # Installed packages import from cached bytecode; the warm-up writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _kill_group(pgid: int) -> None:
    """SIGKILL a process group and wait until none of it is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def launch(scenario: dict, mode: str, timeout: float) -> dict:
    """Execute ``rep.py`` once; its record with spans relative to launch."""
    payload = json.dumps(scenario)
    t_launch = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), mode],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT, env=rep_env(), start_new_session=True,
    )
    try:
        out, err = proc.communicate(payload, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise RepFailed(f"{mode} execution timed out after {timeout:.0f} s") from None
    # The process exited; reap anything it left in its group.
    _kill_group(proc.pid)
    if proc.returncode != 0:
        raise RepFailed(f"{mode} execution exited {proc.returncode}: "
                        f"{err.strip()[-600:]}")
    lines = out.strip().splitlines()
    mains = [line for line in lines if line.startswith("main ")]
    if mains != [f"main {proc.pid}"]:
        # A spawned mp worker that re-imported rep.py ran its body too.
        raise RepFailed(f"{mode} execution: benchmark body ran in {mains}, "
                        f"not only in the launched process {proc.pid}")
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RepFailed(f"{mode} execution printed no record: {out[-300:]!r}") from None
    marks = dict(record.pop("marks"), launch=t_launch)
    samples = record.pop("hostspeed")
    record["probe_s"] = {}
    record["spans"] = spans = {}
    for total, phases in (("setup_s", SETUP_SPANS), ("run_s", RUN_SPANS)):
        if phases[-1][2] not in marks:
            continue
        start, end = marks[phases[0][1]], marks[phases[-1][2]]
        probe_s = mean_probe_s(samples, start, end)
        for name, a, b in phases:
            spans[name] = (marks[b] - marks[a]) * REFERENCE_S / probe_s
        spans[total] = sum(spans[name] for name, _, _ in phases)
        spans[total.replace("_s", "_wall_s")] = end - start
        record["probe_s"][total] = probe_s
    return record


def mean_probe_s(samples: list, start: float, end: float) -> float:
    """Mean host-speed probe time over ``[start, end]``.

    The mean, not the median: the rare samples that take 10x longer
    catch the vCPU being taken away, which slows the program too.  A
    phase shorter than the probe period takes the nearest sample.
    """
    inside = [dt for t, dt in samples if start <= t <= end]
    if inside:
        return statistics.fmean(inside)
    if not samples:
        raise RepFailed("the host-speed probe took no sample")
    return min(samples, key=lambda s: abs(s[0] - end))[1]


def check(workload: str, record: dict, reference: dict) -> None:
    """Raise :class:`RepFailed` unless ``record`` is a correct result.

    ``reference`` is the pinned result, or the run's first correct one;
    ``None`` checks only the engine.
    """
    engine = record["engine"] or {}
    for key, want in EXPECT_ENGINE.get(workload, {}).items():
        if engine.get(key) != want:
            raise RepFailed(f"engine {key} is {engine.get(key)!r}, expected {want!r}"
                            f" (engine record {engine})")
    for key in ("events", "sha256"):
        if reference is not None and record[key] != reference[key]:
            raise RepFailed(f"{key} {record[key]} != expected {reference[key]}"
                            f" ({reference['source']})")
    if engine.get("mode") == "distributed":
        # One worker per partition, and each committed its own share of
        # the total.
        parts = engine["partitions"]
        workers = record["worker_rss_kb"]
        per_part = record["partition_events"]
        if len(workers) != parts or len(per_part) != parts:
            raise RepFailed(f"{len(workers)} workers / {len(per_part)} partition "
                            f"counts for {parts} partitions")
        if min(per_part) <= 0 or sum(per_part) != record["events"]:
            raise RepFailed(f"partition events {per_part} do not split "
                            f"{record['events']}")


def load_pins(workload: str, seed: int) -> dict | None:
    pins = json.loads(PINS.read_text())["workloads"].get(workload, {})
    pin = pins.get(str(seed))
    return None if pin is None else dict(pin, source=f"pins.json seed {seed}")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def host_record(kernel_cached: bool, kernel: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "kernel_loaded_from_cache": kernel_cached,
        "kernel_available": kernel.get("available"),
    }


def run(args) -> dict:
    scenario = WORKLOADS[args.workload](args.seed)
    pin = load_pins(args.workload, args.seed)

    attempted = failed = 0
    reference = pin
    full, setups = [], []
    iterations = 0

    def remaining() -> float:
        return HARD_WALL_S - (time.monotonic() - t_measure)

    def attempt(mode: str, timeout: float | None = None) -> dict | None:
        nonlocal attempted, failed, reference
        attempted += 1
        try:
            record = launch(scenario, mode, timeout or remaining())
            if mode in ("full", "profile"):
                check(args.workload, record, reference)
                if reference is None:
                    reference = dict(record, source="first execution of this run")
        except RepFailed as exc:
            failed += 1
            print(f"FAILED {mode}: {exc}", flush=True)
            return None
        return record

    accel_dir = BUILD_DIR / "accel"
    kernel_cached = accel_dir.is_dir() and any(accel_dir.glob("_union_accel.*"))
    warm = attempt("warm", WARM_TIMEOUT_S)
    host = host_record(kernel_cached, warm["kernel"] if warm else {})
    t_measure = time.monotonic()
    deadline = t_measure + args.seconds

    iteration_s = 0.0
    while remaining() > 0:
        t_iteration = time.monotonic()
        # Start another execution only if it would end nearer the
        # deadline than skipping it, so a run lasts about --seconds.
        if iterations >= MIN_REPS and t_iteration + iteration_s / 2 >= deadline:
            break
        iterations += 1
        record = attempt("full")
        if record is not None:
            full.append(record)
            setups.append(record["spans"])
            sp = record["spans"]
            probe = record["probe_s"]
            print(f"rep {len(full)}: run_s {sp['run_s']:.4f} (wall {sp['run_wall_s']:.4f}, "
                  f"probe {probe['run_s'] * 1e3:.4f} ms) setup_s {sp['setup_s']:.4f} "
                  f"(wall {sp['setup_wall_s']:.4f}, probe {probe['setup_s'] * 1e3:.4f} ms) "
                  f"rss_mb {peak_rss_mb(record):.1f} events {record['events']}", flush=True)
        for _ in range(SETUP_ONLY_PER_REP):
            if remaining() <= 0:
                break
            record = attempt("setup")
            if record is not None:
                setups.append(record["spans"])
        iteration_s = time.monotonic() - t_iteration

    run_s = median([r["spans"]["run_s"] for r in full])
    host["probe_ms"] = [{k: round(v * 1e3, 5) for k, v in r["probe_s"].items()} for r in full]
    host["run_wall_s"] = median([r["spans"]["run_wall_s"] for r in full])
    host["setup_wall_s"] = median([s["setup_wall_s"] for s in setups])
    print("host " + json.dumps(host), flush=True)

    metrics = {
        "run_s": (run_s, "s"),
        "setup_s": (median([s["setup_s"] for s in setups]), "s"),
        "peak_rss_mb": (median([peak_rss_mb(r) for r in full]), "MB"),
    }
    if args.trace:
        e2e = metrics
        metrics = per_layer(full, setups)
        print("end_to_end " + json.dumps({k: v for k, (v, _) in e2e.items()}), flush=True)
        profiled = attempt("profile")
        folded = profiled["layers"] if profiled else {}
        for name in SHARES:
            metrics[name] = (folded.get(name, 0.0), "share")
        for name in COUNTS:
            metrics[name] = (folded.get(name, 0), "count")
        overhead = profiled["spans"]["run_s"] / run_s if profiled and run_s else 0.0
        metrics["trace.overhead"] = (overhead, "ratio")
        for name, (value, unit) in metrics.items():
            print(f"  {name:36s} {value:>14.6g} {unit}", flush=True)

    print(f"{args.workload} seed {args.seed}: {len(full)} executions, "
          f"{len(setups)} set-ups, {failed}/{attempted} failed, pins "
          f"{'checked' if pin else 'not pinned for this seed'}", flush=True)
    return {
        "correct": failed == 0 and bool(full),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def peak_rss_mb(record: dict) -> float:
    return (record["rss_kb"] + sum(record["worker_rss_kb"])) / 1024.0


def per_layer(full: list[dict], setups: list[dict]) -> dict:
    metrics = {}
    for name, _, _ in SETUP_SPANS:
        metrics[name] = (median([s[name] for s in setups]), "s")
    for name, _, _ in RUN_SPANS:
        metrics[name] = (median([r["spans"][name] for r in full]), "s")
    events = full[0]["events"] if full else 0
    metrics["pdes.events"] = (events, "count")
    step_s = metrics["union.step_s"][0]
    metrics["pdes.events_per_s"] = (events / step_s if step_s else 0.0, "1/s")
    metrics["pdes.windows"] = (full[0]["windows"] if full else 0, "count")
    metrics["mpi.messages"] = (full[0]["messages"] if full else 0, "count")
    metrics["parallel.mp.worker_rss_mb"] = (
        median([sum(r["worker_rss_kb"]) / 1024.0 for r in full]), "MB")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
