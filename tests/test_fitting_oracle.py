"""The Fitting split search on vertex blocks against the first search.

``homs._find_split`` reads End(M)'s canonical rows as flats, leaves out
the identity and the sums identity + b (they repeat a split already
tried), and takes one power of g - lam per vertex.  The oracle
(``oracles.split_by_basis_morphisms``) keeps the identity candidates,
forms every candidate as a ``Morphism`` and raises the powers one step at
a time.  Both must find the same summands, with the same arrow matrices,
in the same order, and so must a whole decomposition.
"""

import importlib.util
import random
import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import endoscope
from endoscope import homs
from endoscope.harness import length_bounded_kronecker_family
from endoscope.homs import end_ring, indecompose
from endoscope.reps import (
    INFINITY,
    direct_sum,
    kronecker_preinjective,
    kronecker_preprojective,
    kronecker_regular,
)
from oracles import split_by_basis_morphisms

_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@cache
def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _conjugate(rep):
    """The benchmark's rational conjugate of rep (``conjugate``, ``Random(7)``)."""
    return _workloads().conjugate(endoscope, rep, random.Random(7))


def _sum(reps):
    total, _, _ = direct_sum(reps)
    return total


def _by_oracle(m):
    """The indecomposable summands of m, split by the oracle."""
    if end_ring(m).local:
        return [m]
    a, b = split_by_basis_morphisms(m)
    return _by_oracle(a) + _by_oracle(b)


def _agree(m):
    assert homs._find_split(m, end_ring(m)) == split_by_basis_morphisms(m)
    assert indecompose(m) == _by_oracle(m)


I, P, R = kronecker_preinjective, kronecker_preprojective, kronecker_regular
_SUMS = {
    "I1+I2": [I(1), I(2)],
    "I2+I1": [I(2), I(1)],
    "R2(0)+P1": [R(2, 0), P(1)],
    "I1+I2+I3": [I(1), I(2), I(3)],
    "I2+I2": [I(2), I(2)],
    "R1(0)+R1(1)": [R(1, 0), R(1, 1)],
    "P2+I2+R1(inf)": [P(2), I(2), R(1, INFINITY)],
    "I3+P3+R2(1)": [I(3), P(3), R(2, 1)],
    "R2(0)+R2(0)+I1": [R(2, 0), R(2, 0), I(1)],
    "I1..I4": [I(n) for n in range(1, 5)],
    "P1..P4": [P(n) for n in range(1, 5)],
    "R1(0)^3": [R(1, 0)] * 3,
    "P1+P2+R2(0)+I1": [P(1), P(2), R(2, 0), I(1)],
}
_CONJUGATED = ("I1+I2", "R2(0)+P1", "I1+I2+I3", "R2(0)+R2(0)+I1")


@pytest.mark.parametrize("parts", list(_SUMS.values()), ids=list(_SUMS))
def test_split_of_a_sum_matches_the_oracle(parts):
    _agree(_sum(parts))


@pytest.mark.parametrize("tag", _CONJUGATED)
def test_split_of_a_rational_conjugate_matches_the_oracle(tag):
    _agree(_conjugate(_sum(_SUMS[tag])))


_SHORT, _ = length_bounded_kronecker_family(5)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(_SHORT), min_size=2, max_size=3))
def test_split_of_drawn_sums_matches_the_oracle(parts):
    _agree(_sum(parts))
