"""Named desk-scale experiments emitting replayable reports.

Each experiment embeds its full parameter set (including seeds) so a
report can be reproduced cell for cell.  Reports hold tables (rows are
subsets in natural order, columns are rules) and plot-ready series;
rendering is left to external tooling.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import eknn, rules
from .core import FrameOfDiscernment, MassFunction, SimpleSupport, pignistic
from .errors import ParameterError, TotalConflictError
from .genrand import GenSpec, generate
from .rules import RuleConfig, combine

#: Every parameter of each experiment with its default, in report order.
_DEFAULTS: dict[str, dict] = {
    "table1": {
        "eta": 1.0,
        "rules": ["conjunctive", "dempster", "disjunctive", "dp", "pcr6", "cautious", "average", "lns"],
    },
    "eta-sweep": {"seed": 42, "counts": [60, 50, 50], "eta_max": 6.0, "eta_points": 31},
    "conflict-sweep": {
        "seed": 42,
        "s2_grid": list(range(5, 101, 5)),
        "ts": [1, 2, 3, 4],
        "rules": ["conjunctive", "dempster", "average", "cautious", "lns", "lnsa"],
        "deterministic_w": None,
        "min_singleton_mass": 0.5,
        "eta": 1.0,
    },
    "timing": {
        "seed": 42,
        "sources_grid": [10_000, 100_000],
        "frame_size": 8,
        "kind": "ssf",
        "repeats": 5,
        "rules": ["conjunctive", "average", "cautious", "lns", "lnsa"],
    },
    "eknn-sweep": {
        "seed": 42,
        "n_per_class": 100,
        "separation": 4.0,
        "dim": 2,
        "ks": list(range(1, 26)),
        "rules": ["dempster", "lns", "conjunctive"],
        "alpha": 0.95,
    },
}

EXPERIMENT_NAMES = tuple(_DEFAULTS)

#: Number of decimals used when rendering table cells.
TABLE_DECIMALS = 5


@dataclass
class ExperimentReport:
    """Replayable experiment output.

    ``parameters`` holds exactly the inputs accepted by
    :func:`run_experiment`, so feeding a report's parameter block back in
    reproduces it; ``notes`` carries informational context that is not an
    input.
    """

    name: str
    parameters: dict
    notes: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def save(self, path) -> None:
        write_report(path, self.to_dict())

    def format_table(self, name: str) -> str:
        """Fixed-point text rendering of one table."""
        tab = self.tables[name]
        cols = tab["column_labels"]
        width = max(12, *(len(c) + 2 for c in cols))
        head = " " * 16 + "".join(f"{c:>{width}}" for c in cols)
        lines = [head]
        for label, row in zip(tab["row_labels"], tab["values"]):
            cells = "".join(
                f"{v:>{width}.{TABLE_DECIMALS}f}" if v is not None else f"{'-':>{width}}"
                for v in row
            )
            lines.append(f"{label:<16}{cells}")
        return "\n".join(lines)


def write_report(target, payload: dict) -> None:
    """Write ``payload`` as indented JSON and a newline, to the file
    ``target`` names or to ``target`` itself if it is an open text stream."""
    text = json.dumps(payload, indent=1, allow_nan=False) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w") as fh:
            fh.write(text)


def _series(x, y, **extra) -> dict:
    out = {"x": list(x), "y": list(y)}
    out.update(extra)
    return out


def _spawn_seed(seed: int, *key: int) -> int:
    """Derive a child seed from a base seed and an integer key path."""
    return int(np.random.SeedSequence(seed, spawn_key=tuple(key)).generate_state(1)[0])


def six_source_inputs(frame: FrameOfDiscernment | None = None) -> list[MassFunction]:
    """The six-source showcase: five weak supporters of one singleton and a
    strong dissenter on another."""
    frame = frame or FrameOfDiscernment.numbered(3)
    supports = [SimpleSupport(frame, 1, w) for w in (0.88, 0.84, 0.85, 0.89, 0.86)]
    supports.append(SimpleSupport(frame, 2, 0.05))
    return [s.to_mass() for s in supports]


def _coerce(key: str, default, value):
    """``value`` as the type of ``default``: a non-empty list of elements each
    coerced like the default's first element, a float or None, or the
    default's own scalar type.  A value that does not convert, a string,
    scalar or empty list for a list, or a non-integral number for an int
    raises :class:`ParameterError` naming ``key``."""
    try:
        if isinstance(default, list):
            if isinstance(value, str):
                raise TypeError
            out = [_coerce(key, default[0], v) for v in value]
            if not out:
                raise ValueError
            return out
        if default is None:
            return None if value is None else float(value)
        if isinstance(default, int) and isinstance(value, float) and not value.is_integer():
            raise ValueError
        return type(default)(value)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"bad value {value!r} for experiment parameter {key!r}") from None


def run_experiment(name: str, params: dict | None = None) -> ExperimentReport:
    """Run a named experiment with optional parameter overrides.

    The overrides are merged over the experiment's defaults, each coerced
    to the type of its default; the merged set is the report's
    ``parameters``.
    """
    if name not in EXPERIMENT_NAMES:
        raise ParameterError(f"unknown experiment {name!r}; choose from {EXPERIMENT_NAMES}")
    defaults = _DEFAULTS[name]
    params = params or {}
    unknown = set(params) - set(defaults)
    if unknown:
        raise ParameterError(f"unknown experiment parameters: {sorted(unknown)}")
    runner = {
        "table1": _run_table1,
        "eta-sweep": _run_eta_sweep,
        "conflict-sweep": _run_conflict_sweep,
        "timing": _run_timing,
        "eknn-sweep": _run_eknn_sweep,
    }[name]
    p = {key: _coerce(key, d, params.get(key, d)) for key, d in defaults.items()}
    if p.get("seed", 0) < 0:
        raise ParameterError(f"experiment parameter 'seed' must be non-negative, got {p['seed']}")
    return runner(p)


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------


def _run_table1(p: dict) -> ExperimentReport:
    frame = FrameOfDiscernment.numbered(3)
    inputs = six_source_inputs(frame)
    columns = []
    status = {}
    for rule in p["rules"]:
        res = combine(inputs, RuleConfig(rule=rule, eta=p["eta"]))
        columns.append(res.mass.values)
        status[rule] = "ok"
    values = [
        [float(col[a]) for col in columns] for a in range(frame.powerset_size)
    ]
    report = ExperimentReport(name="table1", parameters=p)
    report.tables["fused"] = {
        "row_labels": [frame.format_subset(a) for a in range(frame.powerset_size)],
        "column_labels": list(p["rules"]),
        "values": values,
        "column_status": status,
    }
    return report


# ---------------------------------------------------------------------------
# eta-sweep
# ---------------------------------------------------------------------------


def _run_eta_sweep(p: dict) -> ExperimentReport:
    frame = FrameOfDiscernment.numbered(3)
    focals = (1, 2, 6)  # {theta1}, {theta2}, {theta2,theta3}
    if len(p["counts"]) != len(focals):
        raise ParameterError(f"experiment parameter 'counts' needs {len(focals)} source counts")
    if p["eta_points"] < 1:
        raise ParameterError(f"experiment parameter 'eta_points' must be at least 1, got {p['eta_points']}")
    inputs: list[MassFunction] = []
    for i, (focal, count) in enumerate(zip(focals, p["counts"])):
        spec = GenSpec(frame, kind="ssf", focal_pool=(focal,), seed=_spawn_seed(p["seed"], i))
        inputs.extend(generate(spec, count))

    etas = np.linspace(0.0, p["eta_max"], p["eta_points"])
    masses = np.empty((len(etas), frame.powerset_size))
    betps = np.empty((len(etas), frame.n))
    for i, eta in enumerate(etas):
        res = rules.combine_lns(inputs, RuleConfig(rule="lns", eta=float(eta)))
        masses[i] = res.mass.values
        betps[i] = pignistic(res.mass).values

    report = ExperimentReport(
        name="eta-sweep",
        parameters=p,
        notes={
            "focal_elements": [frame.format_subset(a) for a in focals],
            "weight_distribution": "uniform[0,1)",
        },
    )
    xs = etas.tolist()
    for a in sorted({0, *focals, frame.full_set}):
        report.series[f"mass/{frame.format_subset(a)}"] = _series(xs, masses[:, a].tolist())
    for i, lab in enumerate(frame.labels):
        report.series[f"betp/{lab}"] = _series(xs, betps[:, i].tolist())
    report.series["betp/theta1-theta2"] = _series(
        xs, (betps[:, 0] - betps[:, 1]).tolist()
    )
    return report


# ---------------------------------------------------------------------------
# conflict-sweep
# ---------------------------------------------------------------------------


def _run_conflict_sweep(p: dict) -> ExperimentReport:
    frame = FrameOfDiscernment.numbered(2)
    w = p["deterministic_w"]

    def sources(t: int, s2: int) -> list[MassFunction]:
        out: list[MassFunction] = []
        for focal, count in ((1, t * s2), (2, s2)):  # t times as many on {theta1}
            if w is not None:
                out += [SimpleSupport(frame, focal, w).to_mass()] * count
            else:
                spec = GenSpec(frame, kind="ssf", focal_pool=(focal,),
                               min_singleton_mass=p["min_singleton_mass"],
                               seed=_spawn_seed(p["seed"], t, s2, focal))
                out += generate(spec, count)
        return out

    report = ExperimentReport(
        name="conflict-sweep",
        parameters=p,
        notes={"weight_distribution": "uniform[0,1) filtered" if w is None else "constant"},
    )
    for rule in p["rules"]:
        cfg = RuleConfig(rule=rule, eta=p["eta"])
        for t in p["ts"]:
            kappas, masses, notes = [], [], []
            for s2 in p["s2_grid"]:
                try:
                    res = combine(sources(t, int(s2)), cfg)
                except TotalConflictError:
                    kappas.append(None)
                    masses.append(None)
                    notes.append("saturated")
                    continue
                kappas.append(res.conflict)
                masses.append(float(res.mass.values[1]))
                notes.append("ok")
            xs = list(p["s2_grid"])
            report.series[f"kappa/{rule}/t{t}"] = _series(xs, kappas, status=notes)
            report.series[f"m_theta1/{rule}/t{t}"] = _series(xs, masses, status=notes)
    return report


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------


def median_timing(
    inputs: list[MassFunction], cfg: RuleConfig, repeats: int
) -> tuple[float, dict[str, float]]:
    """Median wall-clock seconds of ``repeats`` calls to :func:`combine` after
    one discarded warm-up, plus the median of each stage the result reports
    in ``step_seconds`` (empty for rules that report none)."""
    if repeats < 1:
        raise ParameterError(f"repeats must be at least 1, got {repeats}")
    combine(inputs, cfg)  # warm-up, discarded
    samples = []
    step_samples: dict[str, list[float]] = {}
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = combine(inputs, cfg)
        samples.append(time.perf_counter() - t0)
        for key, val in (res.step_seconds or {}).items():
            step_samples.setdefault(key, []).append(val)
    return statistics.median(samples), {k: statistics.median(v) for k, v in step_samples.items()}


def _run_timing(p: dict) -> ExperimentReport:
    if p["kind"] not in ("ssf", "consonant"):
        raise ParameterError("timing inputs are 'ssf' or 'consonant'")

    frame = FrameOfDiscernment.numbered(p["frame_size"])
    report = ExperimentReport(
        name="timing",
        parameters=p,
        notes={"method": "median of repeats after one discarded warm-up run"},
    )
    times: dict[str, list[float]] = {rule: [] for rule in p["rules"]}
    steps: dict[str, list[float]] = {}
    for si, S in enumerate(p["sources_grid"]):
        spec = GenSpec(frame, kind=p["kind"], num_focals=min(5, frame.n),
                       seed=_spawn_seed(p["seed"], si))
        inputs = generate(spec, int(S))
        for rule in p["rules"]:
            seconds, step_seconds = median_timing(inputs, RuleConfig(rule=rule), p["repeats"])
            times[rule].append(seconds)
            if rule == "lns":
                for key, val in step_seconds.items():
                    steps.setdefault(key, []).append(val)
    xs = list(p["sources_grid"])
    for rule in p["rules"]:
        report.series[f"time/{rule}"] = _series(xs, times[rule])
    for key, vals in steps.items():
        report.series[f"lns_step/{key}"] = _series(xs, vals)
    return report


# ---------------------------------------------------------------------------
# eknn-sweep
# ---------------------------------------------------------------------------


def _run_eknn_sweep(p: dict) -> ExperimentReport:
    if p["dim"] < 1:
        raise ParameterError(f"experiment parameter 'dim' must be at least 1, got {p['dim']}")
    ds = eknn.two_gaussian_dataset(p["n_per_class"], p["separation"], dim=p["dim"], seed=p["seed"])
    report = ExperimentReport(
        name="eknn-sweep",
        parameters=p,
        notes={"gamma": "auto (inverse mean same-class pair distance)"},
    )
    sweeps = eknn._loo_sweep(ds, p["ks"], p["alpha"], [RuleConfig(rule=rule) for rule in p["rules"]])
    for rule, (accs, maxk, err_counts) in zip(p["rules"], sweeps):
        xs = list(p["ks"])
        report.series[f"accuracy/{rule}"] = _series(xs, accs)
        report.series[f"max_kappa/{rule}"] = _series(xs, maxk, errors=err_counts)
    return report
