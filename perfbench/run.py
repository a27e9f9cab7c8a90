"""masscomb benchmark: one seeded workload, measured in a closed loop.

    python3 perfbench/run.py --workload gen-combine --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; masscomb is imported from ``src/``
and nothing is installed.  After a warm-up pass on tiny inputs, passes run back to back
for about ``--seconds`` seconds.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` then runs the same number of seconds again with
spans around masscomb's entry points and reports the per-layer metrics.
Every operation of every pass is checked against an independent reference.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Runs are warm: the benchmark drops no caches, pins no CPU and changes no
machine setting.  Scratch files and span dumps go to ``.perfbench/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

#: Fresh processes whose set-up time is measured; the median is reported.
SETUP_PROBES = 7

#: The shared host's speed drifts by up to 1.8x within minutes, and the drift
#: slows the interpreter, numpy and process starts alike.  So fixed
#: calibration work runs before and after each timed pass and set-up probe,
#: outside the timed span, and each time is reported at the reference speed:
#: multiplied by the calibration's reference time over its mean wall time
#: around it.  The reference times are fixed constants near the calibration's
#: times on 2 vCPUs of an Intel Xeon at 2.0 GHz, so the reported times are
#: near wall times there.  Changing them, or the calibration work, rescales
#: every reported time.
CAL_LOOPS = 500_000
CAL_ROUNDS = 10
CAL_REF_S = 0.1
#: Reference time of the process start that the calibration adds around set-up
#: probes and the passes of workloads that start processes: work like theirs
#: tracks their drift better than in-process work alone.
CAL_SPAWN_REF_S = 0.2

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _limit_threads() -> None:
    """Cap BLAS and OpenMP pools at the CPUs this process may use, before
    numpy is imported; children inherit the environment."""
    nproc = len(os.sched_getaffinity(0))
    for var in _THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)


def _use_sources() -> None:
    if not (SRC / "masscomb" / "__init__.py").is_file():
        sys.exit(f"perfbench: no masscomb sources at {SRC.relative_to(ROOT)}/masscomb;"
                 " run from a source checkout")
    sys.path.insert(0, str(SRC))


def machine() -> dict:
    """nproc, CPU model, cache sizes, Python and numpy versions."""
    import platform

    import numpy

    info = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": platform.processor() or platform.machine()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"L{level}"] = size
    return info


def calibrate(spawn: bool) -> float:
    """Wall time of fixed work that touches nothing of masscomb's: an
    arithmetic loop, numpy calls on tiny arrays, and building, sorting and
    dropping dicts of lists; with ``spawn``, also a Python process that
    imports numpy.  The cyclic garbage collector is off meanwhile, so that
    the objects this process holds, such as spans, do not slow it."""
    import numpy as np

    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOPS):
            acc += i * i
        base = np.arange(4.0)
        x = base
        for _ in range(CAL_LOOPS // 50):
            x = np.maximum(x * 0.5, base).copy()
        for _ in range(CAL_ROUNDS):
            table = {i: [i] for i in range(10_000)}
            sorted(table, key=lambda k: -k)
        if spawn:
            subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _at_reference(raw: list[float], cal: list[float], spawn: bool) -> list[float]:
    """Scale each wall time by the calibrations just before and after it: the
    time it would have taken where the calibration takes its reference time."""
    ref = CAL_REF_S + (CAL_SPAWN_REF_S if spawn else 0.0)
    return [ref * dt * 2 / (a + b) for dt, a, b in zip(raw, cal, cal[1:])]


def _setup_seconds(args) -> tuple[list[float], list[float]]:
    """Time fresh processes from spawn until their inputs are ready; return the
    wall times and the same times at reference speed."""
    from tracing import now

    raw, cal = [], [calibrate(spawn=True)]
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
                "--size", args.size, "--setup-probe"]
        start = now()
        done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
        raw.append(float(done.stdout.split()[-1]) - start)
        cal.append(calibrate(spawn=True))
    return raw, _at_reference(raw, cal, spawn=True)


def _warm_up(cls, seed: int) -> None:
    """One untimed pass of the same recipe on tiny inputs: it runs every code
    path once, so imports inside functions, caches and the page cache are
    filled before timing, without spending a full pass."""
    wl = cls(seed, True, WORKDIR)
    try:
        wl.after_pass(wl.run_pass())
    finally:
        wl.close()


def _passes(wl, seconds: float, recs: list, tracer=None) -> tuple[list[float], list[float]]:
    """Run passes back to back until the next one would end nearer past
    ``seconds`` than before it, with the calibration between them;
    return their wall times and the same times at reference speed."""
    raw, cal = [], [calibrate(wl.starts_processes)]
    begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.pass_id = len(recs)
        with tracer.span("pass") if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            rec = wl.run_pass()
            dt = time.perf_counter() - t0
        wl.after_pass(rec)
        cal.append(calibrate(wl.starts_processes))
        recs.append(rec)
        raw.append(dt)
        if time.perf_counter() - begin + dt / 2 >= seconds:
            return raw, _at_reference(raw, cal, wl.starts_processes)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs for the smoke check")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    _limit_threads()
    _use_sources()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    WORKDIR.mkdir(exist_ok=True)
    if args.setup_probe:
        from tracing import now

        wl = WORKLOADS[args.workload](args.seed, args.size == "tiny", WORKDIR)
        ready = now()
        wl.close()
        print(repr(ready))
        return 0

    import masscomb

    if Path(masscomb.__file__).resolve().parent != (SRC / "masscomb").resolve():
        sys.exit(f"perfbench: imported masscomb from {masscomb.__file__}, not from the checkout")
    from metrics import END_TO_END, PER_LAYER

    setup_raw, setup = _setup_seconds(args)
    _warm_up(WORKLOADS[args.workload], args.seed)
    wl = WORKLOADS[args.workload](args.seed, args.size == "tiny", WORKDIR)
    try:
        recs: list = []
        times, scaled = _passes(wl, args.seconds, recs)
        pass_s = statistics.median(scaled)
        peak_mb = wl.peak_rss_mb()
        if args.trace:
            from layers import derive
            from tracing import Tracer

            tracer = Tracer()
            wl.install(tracer)
            first = len(recs)
            traced, traced_scaled = _passes(wl, args.seconds, recs, tracer)
            tracer.unwrap()
            wl.startup_probe(tracer)
            layer, absent = derive(tracer, list(range(first, len(recs))),
                                   statistics.median(traced_scaled) - pass_s)
        try:
            attempted, failures = wl.check(recs)
        except Exception as exc:  # no reference, so no operation counts as correct
            attempted = wl.ops_per_pass * len(recs)
            failures = [f"reference check failed: {exc!r}"] * attempted
    finally:
        wl.close()

    failed = min(len(failures), attempted)
    for line in failures[:20]:
        print(f"FAIL {line}")
    e2e = {
        "pass_s": pass_s,
        "throughput": wl.work_items / pass_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_mb,
    }
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    print(f"{args.workload} seed={args.seed} passes={len(times)} after a tiny warm-up pass")
    for name, value in e2e.items():
        print(f"  {name:<12} {value:.6g} {units[name]}")
    print(f"  {'pass_wall_s':<12} {statistics.median(times):.6g} s (median wall time, unscaled)")
    print(f"  {'setup_wall_s':<12} {statistics.median(setup_raw):.6g} s (median wall time, unscaled)")
    print(f"  {'error_rate':<12} {failed / attempted:.6g} share ({failed} of {attempted} operations)")
    if args.trace:
        for name, *_ in PER_LAYER:
            note = f"  (absent: {absent[name]})" if name in absent else ""
            print(f"  {name:<34} {layer[name]:.6g} {units[name]}{note}")
        dump = WORKDIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(dump, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "machine": machine(),
                       "untraced_pass_s": times, "traced_pass_s": traced,
                       "per_layer": layer, "absent": absent,
                       "spans": [sp.to_dict() for sp in tracer.spans]}, fh)
        print(f"  spans written to {dump.relative_to(ROOT)}")
        shown = {name: layer[name] for name, *_ in PER_LAYER}
    else:
        shown = e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
