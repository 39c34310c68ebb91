"""Fold a cProfile run into per-layer self-time shares and exact counts.

Layers are the simulator's own packages under ``repro/``; a function's
self time goes to the bucket of the file that defines it.  Two
built-ins get buckets of their own because they carry a layer's work
outside any ``repro`` file: the ``heapq`` primitives the Python engines
schedule with, and the compiled kernel's ``Kernel.run`` commit loop.
"""

from __future__ import annotations

import pstats

KERNEL_RUN = "<method 'run' of '_union_accel.Kernel' objects>"

#: ``repro/<package>/<module>.py`` -> bucket; the first match wins.
#: A ``None`` module matches every file of the package.
_FILE_BUCKETS = (
    ("pdes", "rng.py", "self.pdes.rng"),
    ("pdes", None, "self.pdes.engine"),
    ("accel", None, "self.accel.engines"),
    ("network", "router.py", "self.network.router"),
    ("network", "terminal.py", "self.network.terminal"),
    ("network", "routing.py", "self.network.routing"),
    ("network", "stats.py", "self.network.stats"),
    # packets, links, topology and config: the rest of the fabric model
    ("network", None, "self.network.fabric"),
    ("mpi", None, "self.mpi"),
    ("union", None, "self.union"),
    ("telemetry", None, "self.telemetry"),
    ("placement", None, "self.placement"),
    ("registry", None, "self.registry"),
    ("parallel", None, "self.parallel"),
)

SHARES = (
    "self.pdes.engine", "self.pdes.heapq", "self.pdes.rng",
    "self.accel.kernel", "self.accel.engines",
    "self.network.router", "self.network.terminal", "self.network.routing",
    "self.network.fabric", "self.network.stats",
    "self.mpi", "self.union", "self.telemetry", "self.placement",
    "self.registry", "self.parallel", "self.other",
)

COUNTS = ("accel.callbacks", "pdes.rng.draws", "network.routing.select_path_calls")


def _repro_module(filename: str) -> tuple[str, str] | None:
    """``(package, module)`` for a file under ``repro/``, else ``None``."""
    path = filename.replace("\\", "/")
    idx = path.rfind("/repro/")
    if idx < 0:
        return None
    package, _, module = path[idx + len("/repro/"):].partition("/")
    return package, module


def bucket(filename: str, funcname: str) -> str:
    if filename == "~":
        if funcname.startswith("<built-in method _heapq."):
            return "self.pdes.heapq"
        if funcname == KERNEL_RUN:
            return "self.accel.kernel"
        return "self.other"
    where = _repro_module(filename)
    if where is not None:
        package, module = where
        for pkg, mod, name in _FILE_BUCKETS:
            if pkg == package and (mod is None or mod == module):
                return name
    return "self.other"


def fold(profile) -> dict[str, float]:
    """Shares of total self time per layer, plus the exact call counts."""
    stats = pstats.Stats(profile).stats
    self_time = dict.fromkeys(SHARES, 0.0)
    counts = dict.fromkeys(COUNTS, 0)
    kernel_key = ("~", 0, KERNEL_RUN)
    for (filename, _line, funcname), (_cc, nc, tt, _ct, callers) in stats.items():
        self_time[bucket(filename, funcname)] += tt
        where = _repro_module(filename)
        if where == ("pdes", "rng.py") and funcname == "next_u64":
            counts["pdes.rng.draws"] += nc
        elif where is not None and where[0] == "network" and funcname == "select_path":
            counts["network.routing.select_path_calls"] += nc
        if filename != "~" and kernel_key in callers:
            # callers[caller] = (calls, primitive calls, tottime, cumtime)
            counts["accel.callbacks"] += callers[kernel_key][0]
    total = sum(self_time.values()) or 1.0
    out = {name: t / total for name, t in self_time.items()}
    out.update(counts)
    return out
