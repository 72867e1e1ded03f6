"""Family construction, truncation sweeps, and named verification suites.

A FamilySpec names either a builtin Kronecker family with an index
range or a JSON file of representations.  Builtin infinite families
carry a truncation boundary: the top index of a preinjective or
preprojective range is flagged because maps into the excluded tail are
missing there, so its endosocle component may be inflated relative to
the untruncated family.  Regular families are orthogonal (no maps
between distinct parameters), so truncating them is exact and nothing
is flagged.

Sweeps and suites return plain, deterministic dicts and lists; the CLI
wraps them in its reports.  The seed of ``verify`` drives only the
matrix-subgroup suite's random pointed matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .endosocle import (
    endosocle,
    family_endosocle,
    power_endosocle,
    relative_endosocle_series,
)
from .homs import hom_dim, iso_classes
from .linalg import QQ, Subspace
from .matsub import check_endo_invariant, evaluate, random_pointed_matrix
from .quiver import kronecker
from .radical import harada_sai_check, radical_profile
from .reps import (
    INFINITY,
    SubspaceFamily,
    direct_sum,
    dual,
    family_labels,
    kronecker_preinjective,
    kronecker_preinjective_right,
    kronecker_preprojective,
    kronecker_regular,
)
from .serialize import load_family_file


class HarnessError(ValueError):
    pass


_FAMILY_ALIASES = {
    "preinj": "kronecker-preinjective",
    "preinjective": "kronecker-preinjective",
    "kronecker-preinjective": "kronecker-preinjective",
    "preproj": "kronecker-preprojective",
    "preprojective": "kronecker-preprojective",
    "kronecker-preprojective": "kronecker-preprojective",
    "regular": "kronecker-regular",
    "kronecker-regular": "kronecker-regular",
    "file": "file",
}

_BUILDERS = {
    "kronecker-preinjective": kronecker_preinjective,
    "kronecker-preprojective": kronecker_preprojective,
}


@dataclass(frozen=True)
class Family:
    members: tuple
    labels: tuple
    boundary: tuple = ()


@dataclass(frozen=True)
class FamilySpec:
    """A builtin family name plus index range, or a file of members."""

    kind: str
    lo: int = 1
    hi: int = 1
    size: int = 1
    path: str | None = None

    @classmethod
    def parse(cls, family: str, range_arg: str | None = None, size: int = 1, path: str | None = None) -> "FamilySpec":
        kind = _FAMILY_ALIASES.get(family)
        if kind is None:
            raise HarnessError(f"unknown family {family!r}")
        if kind == "file":
            if not path:
                raise HarnessError("file family needs a path")
            return cls(kind="file", path=path)
        if range_arg is None:
            raise HarnessError("builtin family needs an index range like 1..8")
        lo_s, _, hi_s = range_arg.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s if hi_s else lo_s)
        except ValueError:
            raise HarnessError(f"bad range {range_arg!r}") from None
        if hi < lo:
            raise HarnessError("empty index range")
        return cls(kind=kind, lo=lo, hi=hi, size=size)

    def build(self, field=QQ) -> Family:
        if self.kind == "file":
            members = load_family_file(self.path, field)
            return Family(tuple(members), tuple(range(len(members))))
        if self.kind == "kronecker-regular":
            members = tuple(kronecker_regular(self.size, lam, field) for lam in range(self.lo, self.hi + 1))
            return Family(members, tuple(range(self.lo, self.hi + 1)))
        builder = _BUILDERS[self.kind]
        members = tuple(builder(n, field) for n in range(self.lo, self.hi + 1))
        labels = tuple(range(self.lo, self.hi + 1))
        return Family(members, labels, (self.hi,))

    def truncated_families(self, his, field=QQ):
        """The family at each truncation hi, in order: indices up to hi (tube parameters
        0..hi-1 for regulars), or for a file family a prefix of its members, read once."""
        full = self.build(field) if self.kind == "file" else None
        for hi in his:
            if full is not None:
                yield Family(full.members[:hi], full.labels[:hi])
            else:
                lo, top = (0, hi - 1) if self.kind == "kronecker-regular" else (self.lo, hi)
                yield FamilySpec(self.kind, lo, top, self.size).build(field)


@dataclass
class TransversalReport:
    representatives: tuple
    labels: tuple
    multiplicities: dict


def transversal(members, labels=None) -> TransversalReport:
    """Deduplicate a family up to isomorphism, recording multiplicities.

    Each member is compared with the earlier representatives of its
    dimension vector (``homs.iso_classes``); a refused certificate
    (``DecompositionInconclusive``) propagates.
    """
    members = list(members)
    labels = family_labels(members, labels, HarnessError)
    classes = [c for c, _ in iso_classes(members)]
    reps = [k for k, c in enumerate(classes) if c == k]
    mult = {labels[k]: classes.count(k) for k in reps}
    return TransversalReport(tuple(members[k] for k in reps), tuple(labels[k] for k in reps), mult)


SWEEP_INVARIANTS = ("endosoc-support", "endosoc-dim", "relative-length", "radical-depth")


def sweep(spec: FamilySpec, invariant: str, truncations, field=QQ) -> list[dict]:
    """Rows of (truncation, invariant, value, boundary_flag).

    Endosocle values are reported over non-boundary members; the flag
    records whether a flagged boundary member carried a nonzero
    component (i.e. the exclusion mattered).
    """
    if invariant not in SWEEP_INVARIANTS:
        raise HarnessError(f"unknown invariant {invariant!r}")
    if not truncations:
        raise HarnessError("empty truncation range")
    rows = []
    for n, fam in zip(truncations, spec.truncated_families(truncations, field)):
        if not fam.members:
            raise HarnessError(f"truncation {n} leaves the family empty")
        if invariant in ("endosoc-support", "endosoc-dim"):
            report = family_endosocle(fam.members, labels=fam.labels, boundary=fam.boundary)
            flag = any(l in report.support for l in report.boundary)
            value = (
                len(report.support_excluding_boundary())
                if invariant == "endosoc-support"
                else report.dim_excluding_boundary()
            )
        elif invariant == "relative-length":
            series = relative_endosocle_series(fam.members, labels=fam.labels, boundary=fam.boundary)
            value = series.stabilization_index
            flag = any(set(t.support) & set(series.boundary) for t in series.terms)
        else:  # radical-depth
            # at least 1: a family of zero modules meets the profile's own refusal
            bound = max(2 ** max(m.length() for m in fam.members) - 1, 1)
            profile = radical_profile(fam.members, d_max=bound, labels=fam.labels)
            value = profile.vanishing_depth
            flag = False
        rows.append(
            {"truncation": n, "invariant": invariant, "value": value, "boundary_flag": flag}
        )
    return rows


# -- verification suites -------------------------------------------------------


def _check(name: str, anchor: str, passed: bool, details) -> dict:
    return {"name": name, "paper_anchor": anchor, "passed": bool(passed), "details": details}


def _suite_lemma_b1(seed: int) -> list[dict]:
    checks = []
    for rep, tag in ((kronecker_preinjective(2), "preinjective-2"), (kronecker_regular(2, 0), "regular-2(0)")):
        single = endosocle(rep)
        for k in (2, 3):
            try:
                power = power_endosocle(rep, k)
                ok = power.total_dim == k * single.total_dim
                details = {"module": tag, "k": k, "dim": power.total_dim}
            except Exception as exc:  # homogeneity violations surface here
                ok, details = False, {"module": tag, "k": k, "error": str(exc)}
            checks.append(_check(f"power-endosocle {tag} k={k}", "Lemma B(1)", ok, details))
    return checks


def _mixed_families():
    yield "preinj-1-2", [kronecker_preinjective(1), kronecker_preinjective(2)]
    yield "preinj-1-2-3", [kronecker_preinjective(n) for n in (1, 2, 3)]
    yield "regular-0-1-inf", [kronecker_regular(1, 0), kronecker_regular(1, 1), kronecker_regular(1, INFINITY)]
    yield "mixed-preproj-regular", [kronecker_preprojective(2), kronecker_regular(1, 0), kronecker_preinjective(2)]
    yield "mixed-4", [
        kronecker_preprojective(1),
        kronecker_preprojective(2),
        kronecker_regular(2, 0),
        kronecker_preinjective(1),
    ]


def two_route_endosocle_agree(members, seed: int = 0) -> bool:
    """Member-wise components versus the radical kernel on the direct sum.

    ``seed`` is accepted so that existing callers keep working, and is
    ignored: both routes are deterministic.
    """
    report = family_endosocle(members)
    total, embeddings, _ = direct_sum(list(members))
    routed = SubspaceFamily.zero_for(total)
    for i, emb in enumerate(embeddings):
        routed = routed.add(report.components[i].image(emb))
    return routed == endosocle(total)


def _suite_lemma_b2(seed: int) -> list[dict]:
    checks = []
    for tag, members in _mixed_families():
        ok = two_route_endosocle_agree(members)
        checks.append(_check(f"two-route endosocle {tag}", "Lemma B(2)", ok, {"family": tag}))
    return checks


def _suite_example_c2(seed: int) -> list[dict]:
    checks = []
    fam = FamilySpec("kronecker-preinjective", 1, 8).build()
    report = family_endosocle(fam.members, labels=fam.labels, boundary=fam.boundary)
    dims = report.component_dims()
    ok = report.support == (1, 2) and dims[1] == 1 and dims[2] == 1
    checks.append(
        _check("preinjective endosocle support {1,2}", "Example C(2)", ok, {"dims": {str(k): v for k, v in dims.items()}})
    )
    for m in (2, 3):
        fam = FamilySpec("kronecker-preinjective", m, m + 5).build()
        report = family_endosocle(fam.members, labels=fam.labels, boundary=fam.boundary)
        ok = report.support == (m,) and report.component_dims()[m] == 2 * m - 1
        checks.append(
            _check(
                f"trimmed preinjective endosocle = member {m}",
                "Example C(2)",
                ok,
                {"support": list(report.support), "dim": report.component_dims()[m]},
            )
        )
    fam = FamilySpec("kronecker-preprojective", 1, 6).build()
    report = family_endosocle(fam.members, labels=fam.labels, boundary=fam.boundary)
    ok = report.support_excluding_boundary() == () and report.dim_excluding_boundary() == 0
    checks.append(
        _check(
            "preprojective endosocle vanishes off the boundary",
            "Example C(2)",
            ok,
            {"support": list(report.support), "boundary": list(report.boundary)},
        )
    )
    return checks


def _suite_examples_o(seed: int) -> list[dict]:
    checks = []
    ok_dims = all(
        kronecker_preinjective(n).dim_vector == (n, n - 1)
        and kronecker_preinjective(n).length() == 2 * n - 1
        and kronecker_preprojective(n).dim_vector == (n - 1, n)
        and dual(kronecker_preinjective_right(n)).dim_vector == (n - 1, n)
        for n in range(1, 7)
    )
    checks.append(_check("string family dimension vectors", "Examples O", ok_dims, {"range": "1..6"}))
    mods = [kronecker_preinjective(n) for n in (1, 2, 3)]
    mods += [kronecker_preprojective(n) for n in (1, 2, 3)]
    mods += [kronecker_regular(n, 0) for n in (1, 2)]
    ok_dd = all(dual(dual(m)) == m for m in mods)
    checks.append(_check("double dual is the identity", "Examples O", ok_dd, {"modules": len(mods)}))
    ok_hom = all(
        hom_dim(a, b) == hom_dim(dual(b), dual(a)) for a in mods for b in mods
    )
    checks.append(_check("hom dimensions dualize contravariantly", "Examples O", ok_hom, {"pairs": len(mods) ** 2}))
    return checks


def length_bounded_kronecker_family(bound: int):
    """All Kronecker indecomposables of length <= bound, with the regular
    one-parameter classes sampled at lam in {0, 1, infinity}."""
    members = []
    labels = []
    n = 1
    while 2 * n - 1 <= bound:
        members.append(kronecker_preinjective(n))
        labels.append(f"I{n}")
        members.append(kronecker_preprojective(n))
        labels.append(f"P{n}")
        n += 1
    n = 1
    while 2 * n <= bound:
        for lam, tag in ((0, "0"), (1, "1"), (INFINITY, "inf")):
            members.append(kronecker_regular(n, lam))
            labels.append(f"R{n}({tag})")
        n += 1
    return members, labels


def _suite_harada_sai(seed: int) -> list[dict]:
    members, labels = length_bounded_kronecker_family(3)
    report = harada_sai_check(members, 3, labels=labels)
    details = {"members": labels, "depth": report.depth, "bound": report.bound}
    return [_check("radical profile vanishes within 2^b - 1", "Corollary M (Harada-Sai)", report.passed, details)]


def _suite_corollary_n(seed: int) -> list[dict]:
    checks = []
    for n in (3, 4, 5, 6):
        fam = FamilySpec("kronecker-regular", 0, n - 1).build()
        report = family_endosocle(fam.members, labels=fam.labels)
        ok = len(report.support) == n
        checks.append(
            _check(
                f"regular family of {n} parameters has full support",
                "Corollary N",
                ok,
                {"support_size": len(report.support)},
            )
        )
    return checks


def _suite_matrix_subgroups(seed: int) -> list[dict]:
    pres = kronecker()
    carriers = [
        direct_sum([kronecker_preinjective(1), kronecker_preinjective(2)])[0],
        direct_sum([kronecker_preprojective(2), kronecker_preinjective(2)])[0],
    ]
    rng = random.Random(seed)
    tested = 0
    invariant_ok = True
    for _ in range(50):
        pm = random_pointed_matrix(pres, rng)
        for rep in carriers:
            sub = evaluate(pm, rep)
            tested += 1
            if not check_endo_invariant(sub, rep):
                invariant_ok = False
    checks = [
        _check(
            "matrix subgroups are endo-submodules",
            "Section 1 (matrix functors)",
            invariant_ok,
            {"evaluations": tested},
        )
    ]
    parts = [kronecker_preinjective(1), kronecker_preinjective(2)]
    total, embeddings, _ = direct_sum(parts)
    rng = random.Random(seed + 1)
    distributes = True
    for _ in range(25):
        pm = random_pointed_matrix(pres, rng)
        expected = Subspace.zero(total.total_dim, total.field)
        for part, emb in zip(parts, embeddings):
            expected = expected.add(evaluate(pm, part).image(emb.total_mat()))
        if expected != evaluate(pm, total):
            distributes = False
    checks.append(
        _check(
            "evaluation distributes over direct sums",
            "Section 1 (matrix functors)",
            distributes,
            {"evaluations": 25},
        )
    )
    return checks


_SUITES = {
    "lemma-b1": _suite_lemma_b1,
    "lemma-b2": _suite_lemma_b2,
    "example-c2": _suite_example_c2,
    "examples-o": _suite_examples_o,
    "harada-sai": _suite_harada_sai,
    "corollary-n": _suite_corollary_n,
    "matrix-subgroups": _suite_matrix_subgroups,
}


def suite_names() -> list[str]:
    return sorted(_SUITES)


def verify(suite: str, seed: int = 0) -> dict:
    """Run a named suite (or "all") and return its report payload."""
    if suite == "all":
        names = suite_names()
    elif suite in _SUITES:
        names = [suite]
    else:
        raise HarnessError(f"unknown suite {suite!r}; available: {', '.join(suite_names())} or all")
    checks = []
    for name in names:
        checks.extend(_SUITES[name](seed))
    return {"suite": suite, "checks": checks, "passed": all(c["passed"] for c in checks)}

