"""Command-line front end.

Subcommands: ``endosoc`` (family endosocle report), ``sweep``
(invariant vs truncation table), ``verify`` (named check suites),
``radical-profile``, ``transversal``, and ``matsub eval``.

``COMMANDS`` maps each report name to a results builder
``(args, field) -> (results, exit code)`` and a CSV renderer (None:
JSON only).  ``main`` parses ``argv`` with one parser per process,
built on its first call, parses ``--field``, refuses an unsupported
``--format``, times the builder, writes the report
``{"command", "config", "results", "timing_ms"}`` to ``--out`` or
stdout, and maps every expected exception to an exit code: 1 for a
closed output pipe, 3 inconclusive (``LocalityUnverified``: a member
is not certified local; its stderr line names it), 2 usage error (bad
options or input data, unsupported field modes, unreadable or
unwritable files).  A builder returns 0 on success, 1 on a failed
verification.  Reports are deterministic for a given input apart from
``timing_ms``; ``--seed`` only drives ``verify``'s matrix-subgroup sampling.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache
from pathlib import Path

from .endosocle import EndostructureError, family_endosocle, relative_endosocle_series
from .harness import (
    FamilySpec,
    HarnessError,
    SWEEP_INVARIANTS,
    suite_names,
    sweep,
    transversal,
    verify,
)
from .homs import LocalityUnverified, UnsupportedFieldError
from .linalg import LinalgError, field_from_name, scalar_to_str
from .matsub import MatrixSubgroupError, check_endo_invariant, evaluate
from .quiver import QuiverError
from .radical import RadicalError, radical_profile
from .reps import RepresentationError
from .serialize import SerializationError, pointed_matrix_from_json, representation_from_json

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

_DESCRIPTION = """Exact endo-structure invariants of quiver representations over Q or GF(p):
endosocles and their series, radical profiles, transversals up to isomorphism and
matrix subgroups.  Commands: endosoc, sweep, verify, radical-profile, transversal,
matsub eval.  Exit codes: 0 done, 1 a failed verification or a closed output pipe,
2 usage error, 3 inconclusive (a member not certified local)."""


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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process on ``main``'s first call; ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="endoscope", description=_DESCRIPTION)
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


def _family(args, field):
    return FamilySpec.parse(args.family, args.range_arg, size=args.size, path=args.path).build(field)


def _endosoc(args, field):
    fam = _family(args, field)
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
    return results, EXIT_OK


def _sweep(args, field):
    spec = FamilySpec.parse(args.family, args.range_arg or f"1..{args.hi}", size=args.size, path=args.path)
    return {"rows": sweep(spec, args.invariant, range(args.lo, args.hi + 1), field=field)}, EXIT_OK


def _sweep_csv(results) -> str:
    lines = ["truncation,invariant,value,boundary_flag"]
    lines += [
        f"{r['truncation']},{r['invariant']},{r['value']},{str(r['boundary_flag']).lower()}"
        for r in results["rows"]
    ]
    return "\n".join(lines)


def _verify(args, field):
    if args.field != "q":
        raise HarnessError(f"verify suites run over the rationals, not --field {args.field}")
    result = verify(args.suite, seed=args.seed)
    return result, EXIT_OK if result["passed"] else EXIT_FAIL


def _radical_profile(args, field):
    fam = _family(args, field)
    profile = radical_profile(fam.members, d_max=args.depth, labels=fam.labels)
    pairs = {}
    for i in profile.labels:
        for j in profile.labels:
            dims = profile.pair_dims(i, j)
            if any(dims):
                pairs[f"{i}->{j}"] = dims
    results = {"pairs": pairs, "vanishing_depth": profile.vanishing_depth, "depth_computed": profile.depth_reached()}
    return results, EXIT_OK


def _transversal(args, field):
    fam = _family(args, field)
    report = transversal(fam.members, labels=fam.labels)
    return {
        "representatives": [str(l) for l in report.labels],
        "multiplicities": {str(k): v for k, v in report.multiplicities.items()},
    }, EXIT_OK


def _matsub_eval(args, field):
    raw = args.matrix
    data = json.loads(Path(raw[1:]).read_text() if raw.startswith("@") else raw)
    if args.rep:
        rep = representation_from_json(json.loads(Path(args.rep).read_text()), field=field)
    elif args.family and args.index is not None:
        rep = FamilySpec.parse(args.family, f"{args.index}..{args.index}", size=args.size).build(field).members[0]
    else:
        raise HarnessError("matsub eval needs --rep FILE or --family/--index")
    sub = evaluate(pointed_matrix_from_json(data, rep.presentation), rep)
    return {
        "dim": sub.dim,
        "ambient_dim": sub.ambient_dim,
        "basis": [[scalar_to_str(x) for x in col] for col in sub.vectors()],
        "endo_invariant": check_endo_invariant(sub, rep),
    }, EXIT_OK


# report name -> (results builder, CSV renderer or None)
COMMANDS = {
    "endosoc": (_endosoc, None),
    "sweep": (_sweep, _sweep_csv),
    "verify": (_verify, None),
    "radical-profile": (_radical_profile, None),
    "transversal": (_transversal, None),
    "matsub eval": (_matsub_eval, None),
}

_USAGE = (HarnessError, UnsupportedFieldError, SerializationError, LinalgError, RadicalError, RepresentationError,
          QuiverError, EndostructureError, MatrixSubgroupError, OSError, UnicodeDecodeError, json.JSONDecodeError)


def _config(args) -> dict:
    config = {"seed": args.seed, "field": args.field}
    for key in ("family", "range_arg", "size", "invariant", "lo", "hi", "depth", "relative", "suite"):
        if getattr(args, key, None) is not None:
            config[key] = getattr(args, key)
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    name = f"matsub {args.matsub_command}" if args.command == "matsub" else args.command
    build, render_csv = COMMANDS[name]
    try:
        started = time.perf_counter()
        field = field_from_name(args.field)
        if args.fmt == "csv" and render_csv is None:
            raise HarnessError(f"{name} reports are JSON only")
        results, code = build(args, field)
        if args.fmt == "csv":
            text = render_csv(results)
        else:
            report = {
                "command": name,
                "config": _config(args),
                "results": results,
                "timing_ms": round((time.perf_counter() - started) * 1000, 3),
            }
            text = json.dumps(report, indent=2, sort_keys=True, default=str)
        if args.out:
            with open(args.out, "w") as fh:
                print(text, file=fh)
        else:
            print(text)
        # a closed pipe surfaces here, while the exit code can still be chosen
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (`| head`); stdout goes to devnull so the
        # interpreter's own flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_FAIL
    except LocalityUnverified as exc:  # DecompositionInconclusive too
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except _USAGE as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
