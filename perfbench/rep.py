"""One scenario execution in a fresh process, timed phase by phase.

Reads a scenario mapping as JSON on stdin and drives it through the
program's public front door -- ``parse_scenario``, ``build_manager``,
``SimulationSession.build/step/finalize``, ``reduce_scenario_result``
and the canonical (sorted-key) JSON emission -- recording the host
monotonic time at each boundary.  The last stdout line is one JSON
record; ``run.py`` turns its marks into phase spans against the time it
launched this process.  A host-speed probe (``hostspeed.py``) samples
from its own thread throughout, so that ``run.py`` can rescale the spans
to a fixed host speed.

Usage: ``python rep.py {full,setup,warm,profile} < scenario.json``

* ``full``    -- the whole pipeline, untraced;
* ``setup``   -- stop once the session is built (extra set-up samples);
* ``warm``    -- like ``setup``, after loading the accel kernel so its
  compile cache is filled before anything is timed;
* ``profile`` -- the whole pipeline under cProfile, folded into layers.

Spawn safety: the ``mp-conservative`` engine starts its workers with the
``spawn`` method, which re-imports this file as ``__mp_main__`` in every
worker.  Only definitions live at module level and the body runs under
the ``__main__`` guard; ``main`` announces its pid so the benchmark can
verify that no worker ran it.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import resource
import sys
import time

from hostspeed import HostSpeedProbe


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set size of a live process, from /proc."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def main(mode: str) -> dict:
    # Every process that runs this body says so on the shared stdout; the
    # benchmark requires exactly one such line, from the process it launched.
    print(f"main {os.getpid()}", flush=True)
    marks = {}
    from repro.scenario import build_manager, parse_scenario, reduce_scenario_result

    record: dict = {}
    if mode == "warm":
        from repro.accel import kernel_status

        record["kernel"] = kernel_status()
    marks["imported"] = time.monotonic()

    profiler = None
    if mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    spec = parse_scenario(json.loads(sys.stdin.read()))
    marks["parsed"] = time.monotonic()
    mgr = build_manager(spec)
    marks["built"] = time.monotonic()
    session = mgr.session().build()
    marks["session_built"] = time.monotonic()
    record["marks"] = marks
    if mode in ("setup", "warm"):
        return record

    session.step(spec.horizon)
    marks["stepped"] = time.monotonic()
    # Workers of mp-conservative are idle once step() has collected
    # their state; their peak RSS is final before finalize reaps them.
    workers = multiprocessing.active_children()
    record["worker_rss_kb"] = [_vm_hwm_kb(p.pid) for p in workers]
    marks["finalize_start"] = time.monotonic()
    outcome = session.finalize()
    marks["finalized"] = time.monotonic()
    result = reduce_scenario_result(spec, outcome)
    marks["reduced"] = time.monotonic()
    doc = json.dumps(result.to_json_dict(), sort_keys=True)
    marks["emitted"] = time.monotonic()
    if profiler is not None:
        profiler.disable()
        from layers import fold

        record["layers"] = fold(profiler)

    engine = outcome.fabric.engine
    record.update(
        sha256=hashlib.sha256(doc.encode()).hexdigest(),
        events=result.events,
        engine=result.engine,
        messages=sum(j.messages for j in result.jobs),
        windows=getattr(engine, "windows_executed", 0),
        partition_events=list(getattr(engine, "committed_by_partition", [])),
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    return record


if __name__ == "__main__":
    probe = HostSpeedProbe().start()
    record = main(sys.argv[1])
    record["hostspeed"] = probe.stop()
    print(json.dumps(record))
