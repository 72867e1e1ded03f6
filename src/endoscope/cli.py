"""Command-line front end.

Subcommands: ``endosoc`` (family endosocle report), ``sweep``
(invariant vs truncation table), ``verify`` (named check suites),
``radical-profile``, ``transversal``, and ``matsub eval``.

Exit codes: 0 success / all checks passed, 1 verification failure or
a closed output pipe, 2 usage error (including unsupported field
modes), 3 inconclusive (a locality or decomposition certificate was
refused).  Reports are deterministic for a given input; ``--seed``
only drives ``verify``'s matrix-subgroup sampling.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .endosocle import EndostructureError, family_endosocle, relative_endosocle_series
from .harness import (
    FamilySpec,
    HarnessError,
    SWEEP_INVARIANTS,
    finish_report,
    make_report,
    report_to_json,
    suite_names,
    sweep,
    transversal,
    verify,
)
from .homs import (
    DecompositionInconclusive,
    LocalityUnverified,
    UnsupportedFieldError,
)
from .linalg import LinalgError, field_from_name, scalar_to_str
from .matsub import MatrixSubgroupError, check_endo_invariant, evaluate
from .quiver import QuiverError
from .radical import RadicalError, radical_profile
from .reps import RepresentationError
from .serialize import (
    SerializationError,
    pointed_matrix_from_json,
    representation_from_json,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _family_options(parser: argparse.ArgumentParser):
    parser.add_argument("--family", required=True, help="preinj | preproj | regular | file")
    parser.add_argument("--range", dest="range_arg", help="index range, e.g. 1..8")
    parser.add_argument("--size", type=int, default=1, help="regular module size n")
    parser.add_argument("--file", dest="path", help="family file for --family file")


def _common_options(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=0, help="seed of verify's matrix-subgroup sampling")
    parser.add_argument("--field", default="q", help="q or fp:<p>")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    parser.add_argument("--out", help="write the report to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="endoscope", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("endosoc", help="endosocle components of a family")
    _family_options(p)
    _common_options(p)
    p.add_argument("--relative", action="store_true", help="also report the relative series")

    p = sub.add_parser("sweep", help="invariant as a function of truncation")
    _family_options(p)
    _common_options(p)
    p.add_argument("--invariant", required=True, choices=SWEEP_INVARIANTS)
    p.add_argument("--min", dest="lo", type=int, default=3)
    p.add_argument("--max", dest="hi", type=int, required=True)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help="one of: " + ", ".join(suite_names()) + ", all")
    _common_options(p)

    p = sub.add_parser("radical-profile", help="radical power dimensions of a family")
    _family_options(p)
    _common_options(p)
    p.add_argument("--depth", type=int, default=16, help="maximum depth to compute")

    p = sub.add_parser("transversal", help="deduplicate a family up to isomorphism")
    _family_options(p)
    _common_options(p)

    p = sub.add_parser("matsub", help="matrix subgroup operations")
    matsub_sub = p.add_subparsers(dest="matsub_command", required=True)
    pe = matsub_sub.add_parser("eval", help="evaluate a pointed matrix on a representation")
    pe.add_argument("--matrix", required=True, help="pointed matrix JSON (inline or @file)")
    pe.add_argument("--rep", help="representation JSON file")
    pe.add_argument("--family", help="builtin family for the carrier")
    pe.add_argument("--index", type=int, help="index in the builtin family")
    pe.add_argument("--size", type=int, default=1)
    _common_options(pe)
    return parser


def _emit(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _build_family(args, field):
    spec = FamilySpec.parse(args.family, args.range_arg, size=args.size, path=getattr(args, "path", None))
    return spec, spec.build(field)


def _cmd_endosoc(args) -> int:
    started = time.perf_counter()
    field = field_from_name(args.field)
    if args.fmt != "json":
        raise HarnessError("endosoc reports are JSON only")
    spec, fam = _build_family(args, field)
    report = family_endosocle(fam.members, labels=fam.labels, boundary=fam.boundary)
    results = {
        "members": [str(l) for l in fam.labels],
        "B": {
            str(l): {"total": comp.total_dim, "by_vertex": comp.dims()}
            for l, comp in report.components.items()
        },
        "support": [str(l) for l in report.support],
        "total_dim": report.total_dim,
        "boundary": [str(l) for l in report.boundary],
    }
    if args.relative:
        series = relative_endosocle_series(fam.members, labels=fam.labels, boundary=fam.boundary)
        results["relative_series"] = {
            "supports": [[str(l) for l in t.support] for t in series.terms],
            "dims": [t.dim for t in series.terms],
            "relative_length": series.stabilization_index,
        }
    payload = make_report("endosoc", _config(args), results)
    _emit(args, report_to_json(finish_report(payload, started)))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    started = time.perf_counter()
    field = field_from_name(args.field)
    spec = FamilySpec.parse(args.family, args.range_arg or f"1..{args.hi}", size=args.size, path=getattr(args, "path", None))
    rows = sweep(spec, args.invariant, range(args.lo, args.hi + 1), field=field)
    if args.fmt == "csv":
        lines = ["truncation,invariant,value,boundary_flag"]
        lines += [
            f"{r['truncation']},{r['invariant']},{r['value']},{str(r['boundary_flag']).lower()}"
            for r in rows
        ]
        _emit(args, "\n".join(lines))
        return EXIT_OK
    payload = make_report("sweep", _config(args), {"rows": rows})
    _emit(args, report_to_json(finish_report(payload, started)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    if args.fmt != "json":
        raise HarnessError("verify reports are JSON only")
    result = verify(args.suite, seed=args.seed)
    payload = make_report("verify", _config(args, suite=args.suite), result)
    _emit(args, report_to_json(finish_report(payload, started)))
    return EXIT_OK if result["passed"] else EXIT_FAIL


def _cmd_radical_profile(args) -> int:
    started = time.perf_counter()
    field = field_from_name(args.field)
    if args.fmt != "json":
        raise HarnessError("radical-profile reports are JSON only")
    spec, fam = _build_family(args, field)
    profile = radical_profile(fam.members, d_max=args.depth, labels=fam.labels)
    pairs = {}
    for i in fam.labels:
        for j in fam.labels:
            dims = [level[(i, j)] for level in profile.dims]
            if any(dims):
                pairs[f"{i}->{j}"] = dims
    results = {"pairs": pairs, "vanishing_depth": profile.vanishing_depth, "depth_computed": profile.depth_reached()}
    payload = make_report("radical-profile", _config(args), results)
    _emit(args, report_to_json(finish_report(payload, started)))
    return EXIT_OK


def _cmd_transversal(args) -> int:
    started = time.perf_counter()
    field = field_from_name(args.field)
    if args.fmt != "json":
        raise HarnessError("transversal reports are JSON only")
    spec, fam = _build_family(args, field)
    report = transversal(fam.members, labels=fam.labels)
    results = {
        "representatives": [str(l) for l in report.labels],
        "multiplicities": {str(k): v for k, v in report.multiplicities.items()},
    }
    payload = make_report("transversal", _config(args), results)
    _emit(args, report_to_json(finish_report(payload, started)))
    return EXIT_OK


def _load_carrier(args, field):
    if args.rep:
        with open(args.rep) as fh:
            return representation_from_json(json.load(fh), field=field)
    if args.family and args.index is not None:
        spec = FamilySpec.parse(args.family, f"{args.index}..{args.index}", size=args.size)
        return spec.build(field).members[0]
    raise HarnessError("matsub eval needs --rep FILE or --family/--index")


def _cmd_matsub_eval(args) -> int:
    started = time.perf_counter()
    field = field_from_name(args.field)
    if args.fmt != "json":
        raise HarnessError("matsub reports are JSON only")
    raw = args.matrix
    if raw.startswith("@"):
        with open(raw[1:]) as fh:
            data = json.load(fh)
    else:
        data = json.loads(raw)
    rep = _load_carrier(args, field)
    pm = pointed_matrix_from_json(data, rep.presentation)
    sub = evaluate(pm, rep)
    invariant = check_endo_invariant(sub, rep)
    results = {
        "dim": sub.dim,
        "ambient_dim": sub.ambient_dim,
        "basis": [[scalar_to_str(x) for x in col] for col in sub.vectors()],
        "endo_invariant": invariant,
    }
    payload = make_report("matsub eval", _config(args), results)
    _emit(args, report_to_json(finish_report(payload, started)))
    return EXIT_OK


def _config(args, **extra) -> dict:
    config = {"seed": args.seed, "field": args.field}
    for key in ("family", "range_arg", "size", "invariant", "lo", "hi", "depth", "relative"):
        if hasattr(args, key) and getattr(args, key) is not None:
            config[key] = getattr(args, key)
    config.update(extra)
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "endosoc": _cmd_endosoc,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "radical-profile": _cmd_radical_profile,
        "transversal": _cmd_transversal,
        "matsub": _cmd_matsub_eval,
    }
    try:
        code = handlers[args.command](args)
        # a closed pipe surfaces here, while the exit code can still be chosen
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (`| head`); stdout goes to devnull so the
        # interpreter's own flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_FAIL
    except (LocalityUnverified, DecompositionInconclusive) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (HarnessError, UnsupportedFieldError, SerializationError, LinalgError, RadicalError, RepresentationError,
            QuiverError, EndostructureError, MatrixSubgroupError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
