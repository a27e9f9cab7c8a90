"""Every metric the benchmark reports: name, unit, direction, and the layer
and workload whose end-to-end numbers it is expected to move.

``BENCHMARK.json`` at the repository root lists the same names and units;
``smoke.py`` checks that the two agree.
"""

from __future__ import annotations

GEN_RULES = ("lns", "lnsa", "conjunctive", "cautious", "average")
EKNN_RULES = ("dempster", "lns", "dp", "pcr6")
EKNN_KS = tuple(range(2, 11))
GROUPED_STAGES = ("decompose", "inner_combine", "discount", "global_combine")

#: (name, unit, better, meaning).  Reported with tracing off.  The failure
#: share (``error_rate``) is printed beside them and carried by the result's
#: ``attempted``/``failed`` counts; it is 0 on a healthy tree, so it has no
#: relative bound of its own.
END_TO_END = (
    ("pass_s", "s", "lower", "median time of one closed-loop pass, at the reference speed"),
    ("throughput", "items/s", "higher",
     "assignments fused per second (classifications per second on eknn-sweep)"),
    ("setup_s", "s", "lower",
     "process start until the inputs are ready, median of seven fresh processes,"
     " at the reference speed"),
    ("peak_rss_mb", "MB", "lower",
     "peak resident memory of the process that runs the workload"
     " (largest CLI child on file-roundtrip)"),
)

_G, _F, _E = "gen-combine", "file-roundtrip", "eknn-sweep"


def _per_layer():
    rows = [
        ("genrand.generate_s", "s", "genrand", f"pass_s on {_G}"),
        ("io.read_csv_s", "s", "io", f"pass_s and peak_rss_mb on {_F}"),
        ("io.read_json_s", "s", "io", f"pass_s on {_F}"),
        ("io.write_csv_s", "s", "io", f"pass_s on {_F}"),
        ("io.write_json_s", "s", "io", f"pass_s on {_F}"),
        ("io.input_bytes", "bytes", "io", f"pass_s on {_F} (measured file sizes)"),
        ("core.input_bytes_resident", "bytes", "core",
         f"peak_rss_mb on {_G} and {_F} (measured values.nbytes)"),
    ]
    rows += [(f"rules.{r}.combine_s", "s", "rules", f"pass_s on {_G}; lns also on {_F}")
             for r in GEN_RULES]
    rows += [(f"rules.{r}.{st}_s", "s", "rules", f"pass_s on {_G} (FusionResult.step_seconds)")
             for r in ("lns", "lnsa") for st in GROUPED_STAGES]
    rows += [
        ("rules.lns.groups", "count", "rules", f"pass_s on {_G} (measured)"),
        ("rules.combine_calls", "count", "rules", f"pass_s on {_E} (measured)"),
    ]
    for r in EKNN_RULES:
        rows += [(f"rules.{r}.combine_{q}_us", "us", "rules", f"pass_s and throughput on {_E}")
                 for q in ("p50", "p99")]
    rows.append(("rules.enum_tuples", "count", "rules",
                 f"pass_s on {_E} (computed: focal-count product per dp/pcr6 call)"))
    for r in EKNN_RULES:
        rows += [(f"eknn.{r}.classify_{q}_ms", "ms", "eknn", f"pass_s on {_E}")
                 for q in ("p50", "p99")]
    rows.append(("eknn.self_s", "s", "eknn", f"pass_s on {_E}"))
    rows += [(f"eknn.{r}.k{k}.loo_s", "s", "eknn", f"pass_s on {_E}")
             for r in EKNN_RULES for k in EKNN_KS]
    rows += [
        ("experiments.self_s", "s", "experiments", f"pass_s on {_E}"),
        ("cli.startup_s", "s", "cli", f"pass_s on {_F}"),
        ("cli.self_s", "s", "cli", f"pass_s on {_F}"),
        ("bench.trace_overhead_s", "s", "bench", "traced pass_s minus untraced pass_s"),
    ]
    return tuple((name, unit, "lower", layer, moves) for name, unit, layer, moves in rows)


#: (name, unit, better, layer, what it should move).  Reported by the traced run.
PER_LAYER = _per_layer()
