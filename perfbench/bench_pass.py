"""One benchmark pass, run in a fresh interpreter by run.py.

    python3 perfbench/bench_pass.py --workload NAME --seed N [--trace] [--setup-only]

Imports chromalg from the checkout's src/, checks that the pass starts cold,
runs the workload once under a speed probe and prints one JSON line: the
monotonic time at which set-up ended, the pass's wall time (raw and rescaled
by the probe) and CPU time, peak RSS, the operations and, with --trace, the
per-span figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class NotCold(RuntimeError):
    """The pass did not start from a fresh interpreter and empty caches."""


def lru_caches() -> dict:
    """Every functools.lru_cache in the imported chromalg modules, by name."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("chromalg."):
            continue
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == name:
                out[f"{name[len('chromalg.'):]}.{attr}"] = obj
    return out


def assert_cold(preloaded: list):
    """Raise NotCold unless no chromalg module was loaded before this pass
    imported it and every lru_cache is still empty."""
    filled = {name: fn.cache_info().currsize for name, fn in lru_caches().items()
              if fn.cache_info().currsize}
    if preloaded or filled:
        raise NotCold(f"preloaded modules {preloaded}, filled caches {filled}")


# On shared hosts the speed of pure-Python code drifts by up to 1.6x within
# seconds and between minutes (sibling hardware threads, clock frequency),
# in process time as much as in wall time.  The probe times a fixed unit of
# Python work every PROBE_EVERY_S during the pass (every SETUP_PROBE_EVERY_S
# during the imports), and wall_s and setup_s are the measured times without
# the probe's own time, rescaled to the speed at which one unit takes
# PROBE_UNIT_S (its median on the 2-CPU machine of the recorded baseline).
PROBE_EVERY_S = 0.05
SETUP_PROBE_EVERY_S = 0.01
PROBE_UNIT_S = 0.00125


def probe_unit():
    acc, table = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i % 13, i % 7 + 1)
        table[i % 97, i % 3] = i * i % 7
    return acc


class SpeedProbe:
    """Samples the machine's current speed on a SIGALRM timer."""

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.samples = []

    def sample(self, signum=None, frame=None):
        # no collection inside the unit: its cost would grow with the pass's heap
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe_unit()
        self.samples.append(time.perf_counter() - t0)
        if collecting:
            gc.enable()

    def __enter__(self):
        self.sample()
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def busy_s(self) -> float:
        return sum(self.samples)

    def speed(self) -> float:
        return statistics.fmean(PROBE_UNIT_S / s for s in self.samples)

    def rescale(self, seconds: float) -> float:
        """`seconds` less the probe's own time, at the reference speed."""
        return (seconds - self.busy_s()) * self.speed()


def series_mul_size(acc: dict, args):
    from chromalg.series import Series
    a, b = args
    nb = len(b.terms) if isinstance(b, Series) else 1
    acc["pairs"] = acc.get("pairs", 0) + len(a.terms) * nb
    acc["max_prec"] = max(acc.get("max_prec", 0), a.ctx.prec)


def solve_many_size(acc: dict, args):
    acc["max_cols"] = max(acc.get("max_cols", 0), len(args[1]))


def smith_size(acc: dict, args):
    mat = args[0]
    acc["max_dim"] = max(acc.get("max_dim", 0), len(mat), len(mat[0]) if mat else 0)


SIZES = {"series.Series.__mul__": series_mul_size,
         "linalg.FieldOps.solve_many": solve_many_size,
         "linalg.smith_normal_form": smith_size}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    preloaded = sorted(m for m in sys.modules if m.split(".")[0] == "chromalg")
    sys.path.insert(0, str(SRC))
    with SpeedProbe(SETUP_PROBE_EVERY_S) as setup_probe:
        import chromalg.checks  # noqa: F401 - the check registry is part of set-up
        import chromalg.report  # noqa: F401
        setup_end = time.monotonic()
    if not Path(chromalg.__file__).resolve().is_relative_to(SRC):
        raise NotCold(f"chromalg imported from {chromalg.__file__}, not {SRC}")
    assert_cold(preloaded)
    out = {"setup_end": setup_end, "setup_probe_s": setup_probe.busy_s(),
           "setup_speed": setup_probe.speed()}
    if not args.setup_only:
        import workloads
        if args.trace:
            from spans import Tracer
            tracer = Tracer().install(SIZES)
        with SpeedProbe(PROBE_EVERY_S) as probe:
            cpu0, t0 = time.process_time(), time.perf_counter()
            ops = workloads.run_workload(args.workload, args.seed)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
        out["wall_raw_s"] = wall
        out["wall_s"] = probe.rescale(wall)
        out["cpu_s"] = cpu - probe.busy_s()
        out["probe_samples"] = len(probe.samples)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["ops"] = ops
        if args.trace:
            out["spans"] = tracer.report()
            out["caches"] = {name: fn.cache_info()._asdict()
                             for name, fn in lru_caches().items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
