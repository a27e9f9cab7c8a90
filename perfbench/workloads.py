"""The three closed-loop workloads.

Each workload is built once from the seed (its set-up), then runs passes one
after another.  ``run_pass`` is the timed part and drives masscomb only
through public functions or its command line; ``after_pass`` keeps what
the checks need without holding large inputs; ``check`` compares every
operation of every pass against the references in :mod:`reference`.
Calls go through module attributes (``masscomb.combine``, ...) looked up at
call time, so a :class:`tracing.Tracer` can wrap them.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference as ref
from metrics import EKNN_KS, EKNN_RULES, GEN_RULES
from tracing import fusion_attrs, resident_bytes, rule_of

HERE = Path(__file__).resolve().parent
FRAME_SIZE = 8

#: Full-size inputs.  Each is small enough that a pass takes about a second,
#: so a run holds dozens of passes and its median pass is not at the mercy
#: of a few seconds in which the shared host runs slow.
GEN_TOTAL = 10_000
ROUNDTRIP_ROWS = 2_000
EKNN_PER_CLASS = 25


def _max_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


class Workload:
    """Defaults shared by the workloads: an in-process workload's peak is
    this process's own, and there is nothing to clean up or probe."""

    name: str
    #: Whether a pass starts processes, so that the calibration around it
    #: starts one too (see ``run.calibrate``).
    starts_processes = False
    ops_per_pass: int
    work_items: int

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def startup_probe(self, tracer) -> None:
        pass

    def close(self) -> None:
        pass


class GenCombine(Workload):
    """``generate`` 10k sources (80% simple supports, 20% consonant) over
    an 8-hypothesis frame, then ``combine`` them with five rules."""

    name = "gen-combine"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        import masscomb

        self.mc = masscomb
        self.seed = seed
        frame = masscomb.FrameOfDiscernment.numbered(FRAME_SIZE)
        total = 1_000 if tiny else GEN_TOTAL
        self.ssf_count = total * 4 // 5
        self.draws = [
            (masscomb.GenSpec(frame, kind="ssf", seed=seed, stream=1), self.ssf_count),
            (masscomb.GenSpec(frame, kind="consonant", num_focals=5, seed=seed, stream=2),
             total - self.ssf_count),
        ]
        self.configs = {rule: masscomb.RuleConfig(rule=rule) for rule in GEN_RULES}
        self.ops_per_pass = len(self.draws) + len(self.configs)
        self.work_items = total * len(self.configs)
        self.batch = None

    def run_pass(self) -> dict:
        self.batch = None  # the previous pass's inputs must not stay resident
        mc = self.mc
        errors = []
        batch = []
        for spec, count in self.draws:
            try:
                batch += mc.generate(spec, count)
            except Exception as exc:  # counted as a failed operation
                errors.append(f"generate {spec.kind}: {exc!r}")
        fused = {}
        for rule, cfg in self.configs.items():
            try:
                fused[rule] = mc.combine(batch, cfg)
            except Exception as exc:
                errors.append(f"combine {rule}: {exc!r}")
        return {"batch": batch, "fused": fused, "errors": errors}

    def after_pass(self, rec: dict) -> None:
        self.batch = rec.pop("batch")
        h = hashlib.blake2b()
        for m in self.batch:
            h.update(m.values)
        rec["digest"] = h.hexdigest()
        rec["fused"] = {
            rule: (res.mass.values, res.conflict,
                   None if res.groups is None else {g.focal: g.count for g in res.groups})
            for rule, res in rec["fused"].items()
        }

    def install(self, tracer) -> None:
        tracer.wrap(self.mc, "generate", "genrand.generate", after=resident_bytes)
        tracer.wrap(self.mc, "combine", "rules.combine", before=rule_of, after=fusion_attrs)

    def _reference(self) -> dict:
        n = FRAME_SIZE
        batch = self.batch
        want = ref.pooled(ref.dense_chunks(batch), n, self.configs["lns"].eta)
        problems = []
        if want["bad_rows"]:
            problems.append(f"generate: {want['bad_rows']} rows not simple, consonant and normalised")
        simple = np.array([m.values for m in batch[: self.ssf_count]])
        if np.count_nonzero(simple[:, :-1], axis=1).max() != 1:
            problems.append("generate: ssf stream produced a non-simple assignment")
        for (spec, count), start in zip(self.draws, (0, self.ssf_count)):
            k = min(ref.REPLAY, count)
            got = np.array([m.values for m in batch[start : start + k]])
            drawn = ref.replay(spec.kind, self.seed, spec.stream, n, k, spec.num_focals)
            if got.shape != drawn.shape or _max_diff(got, drawn) > 1e-12:
                problems.append(f"generate {spec.kind}: draws differ from the PCG64 replay")
        if len(batch) != sum(c for _, c in self.draws):
            problems.append(f"generate: {len(batch)} assignments")
        want["problems"] = problems
        return want

    def check(self, recs: list[dict]):
        want = self._reference()
        digest = recs[-1]["digest"]
        failures = []
        for i, rec in enumerate(recs):
            failures += [f"pass {i}: {e}" for e in rec["errors"]]
            if rec["digest"] != digest or want["problems"]:
                failures += [f"pass {i}: {p}" for p in want["problems"] or ["inputs differ"]]
            for rule, (values, conflict, groups) in rec["fused"].items():
                diff = _max_diff(values, want["fused"][rule])
                if diff > ref.TOL or abs(conflict - values[0]) > ref.TOL:
                    failures.append(f"pass {i}: {rule} off by {diff:.3g}")
                elif rule == "lns" and groups != want["groups"]:
                    failures.append(f"pass {i}: lns groups differ")
        return self.ops_per_pass * len(recs), failures


class FileRoundtrip(Workload):
    """``masscomb gen`` then ``masscomb fuse --rule lns``, file to file, for
    dense CSV and sparse JSON, one command-line process at a time."""

    name = "file-roundtrip"
    starts_processes = True

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        import masscomb
        import masscomb.io

        self.mc = masscomb
        self.seed = seed
        self.count = 200 if tiny else ROUNDTRIP_ROWS
        self.dir = workdir / f"roundtrip-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.commands = []
        for fmt in ("csv", "json"):
            src, out = self.dir / f"in.{fmt}", self.dir / f"out.{fmt}"
            self.commands.append(("gen", fmt, src, [
                "gen", "--kind", "ssf", "--frame-size", str(FRAME_SIZE),
                "--count", str(self.count), "--seed", str(seed), "--output", str(src)]))
            self.commands.append(("fuse", fmt, out, [
                "fuse", "--rule", "lns", "--input", str(src), "--output", str(out)]))
        self.ops_per_pass = len(self.commands)
        self.work_items = 2 * self.count
        self.env = dict(os.environ, PYTHONPATH=str(Path(masscomb.__file__).parent.parent))
        self.tracer = None
        self.peak_kb = 0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _spawn(self, argv: list[str]):
        proc = subprocess.Popen(argv, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        with proc.stderr:
            err = proc.stderr.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss, err

    def _run_cli(self, cmd: str, fmt: str, args: list[str]):
        if self.tracer is None:
            return self._spawn([sys.executable, "-m", "masscomb.cli", *args])
        spans = self.dir / "spans.json"
        spans.unlink(missing_ok=True)
        with self.tracer.span(f"cli.{cmd}", fmt=fmt) as sp:
            result = self._spawn([sys.executable, str(HERE / "tracedcli.py"), str(spans), *args])
        if result[0] == 0:
            with open(spans) as fh:
                self.tracer.adopt(json.load(fh), sp)
        return result

    def run_pass(self) -> dict:
        runs = []
        for cmd, fmt, _, args in self.commands:
            runs.append((cmd, fmt, *self._run_cli(cmd, fmt, args)))
        return {"runs": runs}

    def after_pass(self, rec: dict) -> None:
        self.peak_kb = max([self.peak_kb] + [r[3] for r in rec["runs"]])
        rec["files"] = {}
        for cmd, fmt, path, _ in self.commands:
            if not path.is_file():
                continue
            if cmd == "gen":
                rec["files"][path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            else:
                rec["files"][path.name] = _read_single(path)

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0

    def install(self, tracer) -> None:
        self.tracer = tracer

    def startup_probe(self, tracer, times: int = 5) -> None:
        """Time command-line processes that parse no input and do no work."""
        for _ in range(times):
            with tracer.span("cli.startup"):
                self._spawn([sys.executable, "-m", "masscomb.cli", "--help"])

    def _reference(self) -> dict:
        n = FRAME_SIZE
        csv_rows = _read_rows_csv(self.dir / "in.csv")
        json_rows = _read_rows_json(self.dir / "in.json")
        problems = []
        if csv_rows.shape != (self.count, 1 << n) or json_rows.shape != csv_rows.shape:
            problems.append(f"gen: shapes {csv_rows.shape} and {json_rows.shape}")
        elif _max_diff(csv_rows, json_rows) > 1e-12:
            problems.append("gen: CSV and JSON hold different assignments")
        else:
            k = min(ref.REPLAY, self.count)
            if _max_diff(csv_rows[:k], ref.replay("ssf", self.seed, 0, n, k)) > 1e-12:
                problems.append("gen: draws differ from the PCG64 replay")
            if np.count_nonzero(csv_rows[:, :-1], axis=1).max() != 1:
                problems.append("gen: non-simple assignment")
        focal, weight, _ = ref.components(csv_rows, n)
        cfg = self.mc.RuleConfig(rule="lns")
        fused, _ = ref.grouped(focal, weight, n, cfg.eta, approximate=False)
        in_memory = {
            fmt: self.mc.combine(self.mc.io.read_bbas(self.dir / f"in.{fmt}"), cfg).mass.values
            for fmt in ("csv", "json")
        }
        return {"problems": problems, "fused": fused, "in_memory": in_memory}

    def check(self, recs: list[dict]):
        want = self._reference()
        digests = {name: d for name, d in recs[-1]["files"].items() if name.startswith("in.")}
        failures = []
        for i, rec in enumerate(recs):
            for cmd, fmt, code, _, err in rec["runs"]:
                tag = f"pass {i}: {cmd} {fmt}"
                if code != 0:
                    failures.append(f"{tag}: exit {code}: {err.strip()[-200:]}")
                elif cmd == "gen":
                    name = f"in.{fmt}"
                    if rec["files"].get(name) != digests.get(name) or want["problems"]:
                        failures.append(f"{tag}: {want['problems'] or 'file differs'}")
                else:
                    got = rec["files"].get(f"out.{fmt}")
                    if got is None or got.shape != want["fused"].shape:
                        failures.append(f"{tag}: unreadable output")
                        continue
                    diff = max(_max_diff(got, want["fused"]), _max_diff(got, want["in_memory"][fmt]))
                    if diff > ref.TOL:
                        failures.append(f"{tag}: fused result off by {diff:.3g}")
        return self.ops_per_pass * len(recs), failures


def _read_rows_csv(path: Path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    n = len(header).bit_length() - 1
    if header != [format(i, f"0{n}b") for i in range(1 << n)]:
        raise ValueError(f"{path.name}: bad header")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _read_rows_json(path: Path) -> np.ndarray:
    with open(path) as fh:
        doc = json.load(fh)
    bit = {label: 1 << i for i, label in enumerate(doc["frame"])}
    rows = np.zeros((len(doc["bbas"]), 1 << len(bit)))
    for row, bba in zip(rows, doc["bbas"]):
        for members, mass in zip(bba["focal elements"], bba["masses"]):
            row[sum(bit[x] for x in members)] += mass
    return rows


def _read_single(path: Path):
    """The one assignment in a fused output file, or None if unreadable."""
    try:
        rows = _read_rows_json(path) if path.suffix == ".json" else _read_rows_csv(path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {path.name}: {exc!r}", file=sys.stderr)
        return None
    return rows[0] if len(rows) == 1 else None


class EknnSweep(Workload):
    """``run_experiment("eknn-sweep")`` on the two-Gaussian dataset: leave-one-out
    evidential K-NN for four rules and K = 2..10."""

    name = "eknn-sweep"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        import masscomb
        import masscomb.eknn

        self.mc = masscomb
        n_per_class = 15 if tiny else EKNN_PER_CLASS
        self.ks = EKNN_KS[:4] if tiny else EKNN_KS
        self.params = {"seed": seed, "n_per_class": n_per_class, "separation": 4.0, "dim": 2,
                       "alpha": 0.95, "rules": EKNN_RULES, "ks": self.ks}
        self.dataset = ref.two_gaussians(seed, n_per_class, 4.0, 2)
        self.ops_per_pass = len(EKNN_RULES) * len(self.ks) * 2 * n_per_class
        self.work_items = self.ops_per_pass

    def run_pass(self) -> dict:
        try:
            return {"report": self.mc.run_experiment("eknn-sweep", dict(self.params)), "errors": []}
        except Exception as exc:
            return {"report": None, "errors": [f"run_experiment: {exc!r}"]}

    def after_pass(self, rec: dict) -> None:
        report = rec.pop("report")
        if report is not None:
            rec["series"] = {k: (v["y"], v.get("errors")) for k, v in report.series.items()}

    def install(self, tracer) -> None:
        eknn = self.mc.eknn
        tracer.wrap(self.mc, "run_experiment", "experiments.run_experiment")
        tracer.wrap(eknn, "evaluate_loo", "eknn.evaluate_loo",
                    before=lambda a, kw: {"rule": a[1].rule.rule, "k": a[1].k})
        tracer.wrap(eknn, "classify", "eknn.classify",
                    before=lambda a, kw: {"rule": a[2].rule.rule})
        tracer.wrap(eknn, "combine", "rules.combine", before=rule_of, after=fusion_attrs)

    def check(self, recs: list[dict]):
        points, labels = self.dataset
        n = len(labels)
        want = ref.eknn_sweep(points, labels, self.ks, EKNN_RULES, self.params["alpha"])
        failures = []
        for i, rec in enumerate(recs):
            if "series" not in rec:
                failures += [f"pass {i}: {e}" for e in rec["errors"]]
                failures += [f"pass {i}: no result"] * (self.ops_per_pass - 1)
                continue
            for rule in EKNN_RULES:
                accs, _ = rec["series"][f"accuracy/{rule}"]
                kappas, errs = rec["series"][f"max_kappa/{rule}"]
                for k, acc, kappa, err in zip(self.ks, accs, kappas, errs or [0] * len(accs)):
                    low, high, worst = want[(rule, k)]
                    hits = round(acc * n)
                    tag = f"pass {i}: {rule} K={k}"
                    failures += [f"{tag}: classification failed"] * err
                    missed = max(low - hits, hits - high, 0)
                    failures += [f"{tag}: {hits} hits, reference {low}..{high}"] * missed
                    if not abs(kappa - worst) <= ref.TOL:
                        failures.append(f"{tag}: max conflict {kappa} against {worst}")
        return self.ops_per_pass * len(recs), failures


WORKLOADS = {cls.name: cls for cls in (GenCombine, FileRoundtrip, EknnSweep)}
