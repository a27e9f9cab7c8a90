"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workload gen-combine ...] [--output FILE]

Spread is the distance between the first and third quartile of the runs
(``statistics.quantiles(values, n=4)``) as a share of their median; a
metric whose spread is above a third of its bound in ``BENCHMARK.json`` is
flagged.  ``--output`` writes every run, the summary and the machine block
as JSON, under ``end_to_end``, or ``per_layer`` with ``--trace 1``; the
other section of an existing file is kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(t) for t in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def summarize(values: list[float], bound: float | None) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else None
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": spread, "bound": bound,
            "steady": bound is None or (spread is not None and spread < bound / 3)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", default="1-10", help="A-B or a comma list")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--output")
    args = p.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}

    runs: dict[str, list] = {}
    summary: dict[str, dict] = {}
    for wl in workloads:
        runs[wl] = []
        for seed in _seeds(args.seeds):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
            wall = time.perf_counter() - t0
            if done.returncode != 0:
                print(done.stdout, done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs[wl].append({"seed": seed, "wall_s": wall, **result})
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if k in bounds and bounds[k] is not None)
            print(f"{wl} seed={seed} wall={wall:.1f}s correct={result['correct']}"
                  f" failed={result['failed']}/{result['attempted']} {shown}", flush=True)
        summary[wl] = {
            name: summarize([r["metrics"][name]["value"] for r in runs[wl]], bound)
            for name, bound in bounds.items()
        }
        summary[wl]["wall_s"] = summarize([r["wall_s"] for r in runs[wl]], None)
    for wl, metrics in summary.items():
        for name, s in metrics.items():
            if s["bound"] is not None or name == "wall_s":
                flag = "" if s["steady"] else "  <-- spread above a third of the bound"
                print(f"{wl:<15} {name:<12} median={s['median']:.6g} spread={s['spread']:.4f}"
                      f" bound={s['bound']}{flag}")
    if args.output:
        sys.path.insert(0, str(HERE))
        from run import machine

        out = Path(args.output)
        doc = json.loads(out.read_text()) if out.exists() else {}
        doc["machine"] = machine()
        doc[kind] = {"seeds": args.seeds, "seconds": args.seconds,
                     "summary": summary, "runs": runs}
        out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
