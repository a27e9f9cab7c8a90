"""Per-layer metrics derived from the spans of a traced run.

Sums are taken per traced pass and reported as the median over passes;
per-call percentiles pool the calls of every traced pass.  A metric that no
span fed is reported as 0 and listed in ``absent`` with the reason.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

import numpy as np

from metrics import EKNN_RULES, GROUPED_STAGES, PER_LAYER
from tracing import Tracer, self_seconds

#: Fewest calls a percentile is reported from: ten calls beyond it.
_MIN_CALLS = {"p50": 20, "p99": 1000}

_IO = ("io.read_csv", "io.read_json", "io.write_csv", "io.write_json")


def _pass_sums(spans, selfs) -> dict[str, float]:
    m: dict[str, float] = defaultdict(float)
    for sp in spans:
        name, attrs = sp.name, sp.attrs
        if name == "genrand.generate" or name.startswith("io.read_"):
            m["core.input_bytes_resident"] += attrs.get("resident_bytes", 0)
        if name == "genrand.generate":
            m["genrand.generate_s"] += sp.seconds
        elif name in _IO:
            m[f"{name}_s"] += sp.seconds
            if "bytes" in attrs:
                m["io.input_bytes"] += attrs["bytes"]
        elif name == "rules.combine":
            rule = attrs["rule"]
            m["rules.combine_calls"] += 1
            m[f"rules.{rule}.combine_s"] += sp.seconds
            if rule == "lns" and "groups" in attrs:
                m["rules.lns.groups"] += attrs["groups"]
            for stage, sec in attrs.get("step_seconds", {}).items():
                m[f"rules.{rule}.{stage}_s"] += sec
            inputs = attrs.pop("_inputs", None)
            if inputs is not None:
                m["rules.enum_tuples"] += math.prod(len(x.focal_elements()) for x in inputs)
        elif name == "eknn.classify":
            m["eknn.self_s"] += selfs[sp.id]
        elif name == "eknn.evaluate_loo":
            m[f"eknn.{attrs['rule']}.k{attrs['k']}.loo_s"] += sp.seconds
        elif name == "experiments.run_experiment":
            m["experiments.self_s"] += selfs[sp.id]
        elif name.startswith("cli.") and name != "cli.startup":
            m["cli.self_s"] += selfs[sp.id]
    return m


def _percentiles(calls: dict[str, list[float]], template: str, scale: float, out, absent):
    for rule in EKNN_RULES:
        xs = calls.get(rule, [])
        for q, need in _MIN_CALLS.items():
            name = template.format(rule=rule, q=q)
            if len(xs) >= need:
                out[name] = float(np.percentile(xs, int(q[1:]))) * scale
            else:
                absent[name] = f"{len(xs)} calls; {q} needs at least {need}"


def derive(tracer: Tracer, pass_ids: list[int], overhead_s: float):
    """Return ``(values, absent)`` for every per-layer metric."""
    selfs = self_seconds(tracer.spans)
    by_pass = defaultdict(list)
    for sp in tracer.spans:
        by_pass[sp.pass_id].append(sp)
    sums = [_pass_sums(by_pass[pid], selfs) for pid in pass_ids]
    fed = set().union(*sums)
    values: dict[str, float] = {}
    absent: dict[str, str] = {}
    for name, *_ in PER_LAYER:
        if name in fed:
            values[name] = statistics.median(s.get(name, 0.0) for s in sums)

    combine_calls, classify_calls = defaultdict(list), defaultdict(list)
    for pid in pass_ids:
        for sp in by_pass[pid]:
            if sp.name == "rules.combine":
                combine_calls[sp.attrs["rule"]].append(sp.seconds)
            elif sp.name == "eknn.classify":
                classify_calls[sp.attrs["rule"]].append(sp.seconds)
    _percentiles(combine_calls, "rules.{rule}.combine_{q}_us", 1e6, values, absent)
    _percentiles(classify_calls, "eknn.{rule}.classify_{q}_ms", 1e3, values, absent)

    startup = [sp.seconds for sp in tracer.spans if sp.name == "cli.startup"]
    if startup:
        values["cli.startup_s"] = statistics.median(startup)
    values["bench.trace_overhead_s"] = overhead_s

    called = set(combine_calls)
    for name, *_ in PER_LAYER:
        if name in values or name in absent:
            continue
        parts = name.split(".")
        if parts[0] == "rules" and parts[-1][:-2] in GROUPED_STAGES and parts[1] in called:
            absent[name] = "the fused results carry no step_seconds"
        else:
            absent[name] = "no call in this workload feeds it"
    for name in absent:
        values.setdefault(name, 0.0)
    return values, absent
