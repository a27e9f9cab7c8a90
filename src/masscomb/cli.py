"""Command-line front-end.

Subcommands: fuse, transform, decompose, discount, gen, eknn,
experiment <name>.  Exit codes: 0 success, 2 validation error,
3 saturation / total conflict, 4 complexity guard.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import eknn as eknn_mod
from . import io as mio
from .core import FrameOfDiscernment, MassFunction, canonical_decompose, discount, resolve_kind, transform
from .errors import ComplexityGuardError, MassCombError, ParameterError, TotalConflictError
from .experiments import EXPERIMENT_NAMES, run_experiment, write_report
from .genrand import GEN_KINDS, GenSpec, generate
from .rules import RULE_NAMES, RuleConfig, combine

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SATURATION = 3
EXIT_GUARD = 4


def _add_io_flags(p: argparse.ArgumentParser, need_input: bool = True) -> None:
    if need_input:
        p.add_argument("--input", required=True, help="mass-function file to read")
    p.add_argument("--output", help="file to write (default: stdout)")
    p.add_argument("--format", choices=mio.FORMATS, help="file format (default: by extension)")


def _add_rule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rule", choices=RULE_NAMES, default="conjunctive")
    p.add_argument("--eta", type=float, default=1.0, help="precision exponent for grouped rules")
    p.add_argument("--enumeration-guard", type=int, default=10_000_000)


def _rule_config(args: argparse.Namespace) -> RuleConfig:
    return RuleConfig(rule=args.rule, eta=args.eta, enumeration_guard=args.enumeration_guard)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="masscomb", allow_abbrev=False,
                                     description="Combine belief functions, at any source count.")
    sub = parser.add_subparsers(dest="command", required=True)
    # no prefix matching: a misspelt or shortened flag is an error, not another flag
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    p = command("fuse", help="combine the assignments in a file")
    _add_io_flags(p)
    _add_rule_flags(p)
    p.set_defaults(handler=_cmd_fuse)

    p = command("transform", help="convert an assignment to another representation")
    _add_io_flags(p)
    p.add_argument("--kind", required=True,
                   help="belief|plausibility|commonality|implicability|pignistic (or bel/pl/q/b/betp)")
    p.set_defaults(handler=_cmd_transform)

    p = command("decompose", help="canonical simple-support weights of each assignment")
    _add_io_flags(p)
    p.set_defaults(handler=_cmd_decompose)

    p = command("discount", help="apply a reliability factor to each assignment")
    _add_io_flags(p)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(handler=_cmd_discount)

    p = command("gen", help="generate random assignments")
    _add_io_flags(p, need_input=False)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--kind", choices=GEN_KINDS, default="general")
    p.add_argument("--frame-size", type=int, default=3)
    p.add_argument("--labels", help="comma-separated hypothesis labels (overrides --frame-size)")
    p.add_argument("--focal-pool", help="comma-separated binary bitmasks, e.g. 001,010 (general, ssf)")
    p.add_argument("--num-focals", type=int, default=3)
    p.add_argument("--min-singleton-mass", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0,
                   help="independent substream of the same seed")
    p.set_defaults(handler=_cmd_gen)

    p = command("eknn", help="evidential K-nearest-neighbour evaluation")
    p.add_argument("--train", required=True, help="CSV with features and the label in the last column")
    p.add_argument("--k", default="5", metavar="K|A:B",
                   help="neighbour count, or every count from A to B")
    p.add_argument("--alpha", type=float, default=0.95)
    _add_rule_flags(p)
    p.add_argument("--report", help="write the evaluation report as JSON")
    p.set_defaults(handler=_cmd_eknn)

    p = command("experiment", help="run a named experiment")
    p.add_argument("name", choices=EXPERIMENT_NAMES)
    # a flag given sets the experiment parameter its dest names; see _NOT_PARAMETERS
    param = functools.partial(p.add_argument, default=argparse.SUPPRESS)
    param("--seed", type=int)
    param("--eta", type=float)
    param("--deterministic-w", type=float, help="constant simple-support weight (conflict-sweep)")
    param("--t", type=int, action="append", dest="ts", metavar="T",
          help="restrict the conflict-sweep to these majority ratios (repeatable)")
    param("--rule", action="append", dest="rules", metavar="RULE",
          help="restrict to these rules (repeatable)")
    p.add_argument("--sources", type=int, action="append", help="source-count grid point (repeatable)")
    param("--frame", type=int, dest="frame_size", metavar="FRAME", help="frame size (timing)")
    param("--kind", choices=("ssf", "consonant"), help="input family (timing)")
    param("--repeats", type=int, help="timed repetitions (timing)")
    p.add_argument("--k-max", type=int, help="largest neighbour count (eknn-sweep)")
    p.add_argument("--output", help="write the report as JSON")
    p.set_defaults(handler=_cmd_experiment)

    return parser


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _emit_bbas(args, bbas) -> None:
    mio.write_bbas(args.output or sys.stdout, bbas, fmt=args.format)


def _emit_rows(args, kind: str, frame: FrameOfDiscernment, columns, values: list) -> None:
    """Write one vector per assignment, with the columns they run over."""
    payload = {"kind": kind, "frame": list(frame.labels), "columns": list(columns), "values": values}
    write_report(args.output or sys.stdout, payload)


def _read_inputs(args) -> list[MassFunction]:
    return mio.read_bbas(args.input, fmt=args.format)


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_fuse(args) -> int:
    bbas = _read_inputs(args)
    result = combine(bbas, _rule_config(args))
    _emit_bbas(args, [result.mass])
    print(
        f"rule={args.rule} sources={len(bbas)} conflict={result.conflict:.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_transform(args) -> int:
    bbas = _read_inputs(args)
    frame = bbas[0].frame
    if resolve_kind(args.kind) == "mass":
        _emit_bbas(args, bbas)
        return EXIT_OK
    rows = [transform(m, args.kind) for m in bbas]
    kind = rows[0].kind
    header = frame.labels if kind == "pignistic" else mio.bitmask_header(frame.n)
    _emit_rows(args, kind, frame, header, [r.values.tolist() for r in rows])
    return EXIT_OK


def _cmd_decompose(args) -> int:
    bbas = _read_inputs(args)
    frame = bbas[0].frame
    weights = [canonical_decompose(m).weights.tolist() for m in bbas]
    _emit_rows(args, "decomposition-weights", frame, mio.bitmask_header(frame.n), weights)
    return EXIT_OK


def _cmd_discount(args) -> int:
    bbas = _read_inputs(args)
    _emit_bbas(args, [discount(m, args.alpha) for m in bbas])
    return EXIT_OK


def _parse_focal_pool(text: str) -> tuple[int, ...]:
    pool = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            pool.append(int(tok, 2))
        except ValueError:
            raise ParameterError(f"focal pool entry {tok!r} is not a binary bitmask") from None
    return tuple(pool)


def _cmd_gen(args) -> int:
    if args.labels:
        frame = FrameOfDiscernment(tuple(s.strip() for s in args.labels.split(",")))
    else:
        frame = FrameOfDiscernment.numbered(args.frame_size)
    pool = None if args.focal_pool is None else _parse_focal_pool(args.focal_pool)
    spec = GenSpec(
        frame,
        kind=args.kind,
        focal_pool=pool,
        num_focals=args.num_focals,
        min_singleton_mass=args.min_singleton_mass,
        seed=args.seed,
        stream=args.stream,
    )
    _emit_bbas(args, generate(spec, args.count))
    return EXIT_OK


def _parse_ks(text: str) -> list[int]:
    """The neighbour counts ``--k`` names: ``K``, or every K from A to B."""
    lo, sep, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise ParameterError(f"--k expects K or A:B, got {text!r}") from None
    if sep and not 1 <= lo <= hi:
        raise ParameterError(f"bad K range {text!r}")
    return list(range(lo, hi + 1))


def _cmd_eknn(args) -> int:
    ds = eknn_mod.load_dataset_csv(args.train)
    rule_cfg = _rule_config(args)
    ks = _parse_ks(args.k)
    [(accs, maxk, errs)] = eknn_mod._loo_sweep(ds, ks, args.alpha, [rule_cfg])
    payload = {
        "dataset": {"samples": ds.n_samples, "features": ds.n_features,
                    "classes": list(ds.frame.labels)},
        "rule": args.rule,
        "alpha": args.alpha,
        "gamma": "auto (inverse mean same-class pair distance)",
        "k": ks,
        "accuracy": accs,
        "max_kappa": maxk,
        "failed_samples": errs,
    }
    write_report(args.report or sys.stdout, payload)
    if args.report:
        print(f"k={ks} accuracy={accs}", file=sys.stderr)
    return EXIT_OK


#: The ``experiment`` arguments that are not an experiment parameter as given.
_NOT_PARAMETERS = ("command", "handler", "name", "sources", "k_max", "output")


def _cmd_experiment(args) -> int:
    params = {key: value for key, value in vars(args).items() if key not in _NOT_PARAMETERS}
    if args.sources:
        params["s2_grid" if args.name == "conflict-sweep" else "sources_grid"] = args.sources
    if args.k_max is not None:
        params["ks"] = list(range(1, args.k_max + 1))
    report = run_experiment(args.name, params)
    write_report(args.output or sys.stdout, report.to_dict())
    if args.output:
        print(f"report written to {args.output}", file=sys.stderr)
    for name in report.tables:
        print(report.format_table(name), file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (MassCombError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ComplexityGuardError):
            return EXIT_GUARD
        return EXIT_SATURATION if isinstance(exc, TotalConflictError) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
