"""The benchmark's four workloads: seeded inputs, cold jobs and exact-value gates.

A workload's ``setup`` makes every input from the seed and returns its
jobs.  A job builds fresh member objects, runs one user-visible
computation through the public API or the in-process CLI entry point,
and returns whether the result passes its exact-value gate.  The runner
clears the hom/End caches before each job, so every job starts cold, as
a CLI invocation does.

Jobs look functions up on the package at call time (``ep.cli.main``,
``ep.two_route_endosocle_agree``...), so the tracer's rebinding reaches
them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    small: str  # name of the job reported as small_s
    setup: Callable  # (ep, seed, outdir) -> list[Job]


def run_cli(ep, argv) -> tuple[int, dict | None]:
    """Call ``endoscope.cli.main`` in process; return (exit code, parsed report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ep.cli.main(argv)
    text = buf.getvalue()
    return code, (json.loads(text) if text.strip() else None)


# -- preinj-endosoc ------------------------------------------------------------

PREINJ_LADDER = (8, 12, 16)


def _endosoc_gate(code, report, n) -> bool:
    if code != 0 or report is None:
        return False
    res = report["results"]
    dims = {label: comp["total"] for label, comp in res["B"].items()}
    want = {str(i): 1 if i <= 2 else 0 for i in range(1, n + 1)}
    return res["support"] == ["1", "2"] and dims == want and res["boundary"] == [str(n)]


def endosoc_job(ep, n: int, seed: int) -> Job:
    argv = ["endosoc", "--family", "preinj", "--range", f"1..{n}", "--seed", str(seed)]

    def run():
        code, report = run_cli(ep, argv)
        return _endosoc_gate(code, report, n)

    return Job(f"endosoc-1..{n}", run)


def setup_preinj(ep, seed, outdir):
    return [endosoc_job(ep, n, seed) for n in PREINJ_LADDER]


# -- sum-endosoc ---------------------------------------------------------------

# n = 5 (dim End 35) takes ~12 s a pass today, too long to repeat within
# one run; n = 4 already spends almost all its time in End(M) and J.
SUM_LADDER = (3, 4)


def setup_sum(ep, seed, outdir):
    rng = random.Random(seed)
    jobs = []
    for n in SUM_LADDER:
        order = list(range(1, n + 1))
        rng.shuffle(order)

        def run(order=order):
            members = [ep.kronecker_preinjective(i) for i in order]
            return ep.two_route_endosocle_agree(members, seed=seed) is True

        jobs.append(Job(f"sum-I1..I{n}", run))
    return jobs


# -- profile-conj --------------------------------------------------------------

# Harada-Sai vanishing depth of the unconjugated family at each length
# bound; conjugation preserves every radical power dimension.
PROFILE_DEPTH = {4: 6, 6: 10}
PROFILE_LADDER = (4, 6)


def _random_invertible(ep, size, rng):
    while True:
        g = ep.Mat(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size)] for _ in range(size)],
            size,
            size,
        )
        inv = ep.invert(g)
        if inv is not None:
            return g, inv


def conjugate(ep, rep, rng):
    """An isomorphic copy of rep under a random rational base change per vertex."""
    quiver = rep.presentation.quiver
    change = {v: _random_invertible(ep, rep.dim(v), rng) for v in quiver.vertices}
    matrices = {
        a.name: change[a.target][0] @ rep.matrix(a.name) @ change[a.source][1] for a in quiver.arrows
    }
    return ep.Representation(rep.presentation, rep.dims_by_vertex, matrices, rep.field)


def conjugated_family(ep, bound, rng):
    """The length-bounded Kronecker family plus one conjugated copy of each
    member of total dimension > 1, shuffled; returns (members, original index)."""
    originals, _ = ep.length_bounded_kronecker_family(bound)
    pool = [(m, i) for i, m in enumerate(originals)]
    pool += [(conjugate(ep, m, rng), i) for i, m in enumerate(originals) if m.total_dim > 1]
    rng.shuffle(pool)
    return [m for m, _ in pool], [i for _, i in pool]


def _profile_gate(code, report, bound, origin) -> bool:
    if code != 0 or report is None:
        return False
    res = report["results"]
    depth = res["vanishing_depth"]
    if depth != PROFILE_DEPTH[bound] or depth > 2**bound - 1:
        return False
    pairs = res["pairs"]
    computed = res["depth_computed"]

    def dims(i, j):
        return pairs.get(f"{i}->{j}", [0] * computed)

    size = len(origin)
    return all(
        dims(i, j) == dims(origin.index(origin[i]), origin.index(origin[j]))
        for i in range(size)
        for j in range(size)
    )


def setup_profile(ep, seed, outdir):
    rng = random.Random(seed)
    jobs = []
    for bound in PROFILE_LADDER:
        members, origin = conjugated_family(ep, bound, rng)
        path = os.path.join(outdir, f"profile-conj-{bound}.json")
        data = {
            "algebra": ep.serialize.presentation_to_json(members[0].presentation),
            "members": [ep.serialize.representation_to_json(m, include_algebra=False) for m in members],
        }
        with open(path, "w") as fh:
            json.dump(data, fh)
        argv = ["radical-profile", "--family", "file", "--file", path, "--depth", "63", "--seed", str(seed)]

        def run(argv=argv, bound=bound, origin=origin):
            code, report = run_cli(ep, argv)
            return _profile_gate(code, report, bound, origin)

        jobs.append(Job(f"profile-conj-{bound}", run))
    return jobs


# -- gf-homs -------------------------------------------------------------------

GF_P = 101
GF_LADDER = (8, 16)
# The cost of one evaluation grows with the dimension of the subgroup it
# yields, which the seed decides; 60 draws on I1+...+I5 vary less from
# seed to seed than 30 on I1+...+I6, at lower total cost.
GF_CARRIER = 5
GF_EVALUATIONS = 60


def setup_gf(ep, seed, outdir):
    field = ep.PrimeField(GF_P)
    rng = random.Random(seed)
    pres = ep.kronecker()
    matrices = [ep.random_pointed_matrix(pres, rng) for _ in range(GF_EVALUATIONS)]
    jobs = []
    for top in GF_LADDER:

        def table(top=top):
            mods = [ep.kronecker_preinjective(n, field) for n in range(1, top + 1)]
            return all(
                ep.hom_dim(mods[m - 1], mods[n - 1]) == max(0, m - n + 1)
                for m in range(1, top + 1)
                for n in range(1, top + 1)
            )

        jobs.append(Job(f"gf-hom-table-1..{top}", table))

    def evaluations():
        parts = [ep.kronecker_preinjective(n, field) for n in range(1, GF_CARRIER + 1)]
        carrier = ep.direct_sum(parts)[0]
        return all(ep.check_endo_invariant(ep.evaluate(pm, carrier), carrier) for pm in matrices)

    jobs.append(Job(f"gf-matsub-x{GF_EVALUATIONS}", evaluations))
    return jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("preinj-endosoc", "endosoc-1..8", setup_preinj),
        Workload("sum-endosoc", "sum-I1..I3", setup_sum),
        Workload("profile-conj", "profile-conj-4", setup_profile),
        Workload("gf-homs", "gf-hom-table-1..8", setup_gf),
    )
}
