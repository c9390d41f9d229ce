"""Ranks and 2-local verdicts do not depend on the basis.

Every kind of ``solvers.KINDS`` is defined without coordinates, so a change
of basis of an algebra leaves the rank of each solution space as it is; a
2-local verdict that moved with the basis would be the sampler's, not the
algebra's.  Each catalog instance of dimension at most 6, at its first
parameter sample, is rewritten in two seeded unimodular bases.  A basis is
the rows of a product of ``STEPS`` elementary matrices ``I + m E_st``
(``s != t``, ``m`` in ``MULTIPLIERS``), so its inverse is integral too, and
the structure constants and the form grow with no new denominators.  In
each new basis the axioms hold, every kind but ``delta_derivation`` (whose
``delta`` is free) has its old rank, and the 2-local verdicts of
derivations and ½-derivations at the default sample plan are the old ones.

Local closure certification should not move either, but it does, since the
plan's unit vectors and pairwise sums are special points of the catalog basis
only.  Each closure of derivations and ½-derivations is asserted to keep its
catalog-basis ``certified`` flag; the 42 of the 100 certified closures that
lose it (none is gained) are strict xfails of ROADMAP Direction 21, so a
sampler that decides them shows as XPASS.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from omega_lie import catalog
from omega_lie.algebra import OmegaAlgebra, check_axioms
from omega_lie.local import local_closure, two_local_report
from omega_lie.solvers import KINDS, Session

STEPS = 8
MULTIPLIERS = (-2, -1, 1, 2)
TRANSFORMS = 2
RANKED_KINDS = sorted(kind for kind in KINDS if kind != "delta_derivation")
VERDICT_KINDS = ("derivation", "half_derivation")

SESSION = Session()

CASES = [
    (entry.key, index)
    for entry in catalog.list_entries()
    if entry.dim <= 6
    for index in range(TRANSFORMS)
]


D, H = VERDICT_KINDS
# key -> (basis index, kind) of each closure certified in the catalog basis and not in that new basis
CERTIFIED_IN_THE_CATALOG_BASIS_ONLY = {
    "L_1": {(0, D), (0, H), (1, D), (1, H)},
    "B": {(0, D), (1, D)},
    "C_alpha": {(0, H), (1, H)},
    "L_{1,1}": {(0, D), (0, H)},
    "L_{1,3}": {(1, D)},
    "L_{1,4}": {(0, D), (1, D)},
    "L_{1,5}": {(0, D), (0, H), (1, D), (1, H)},
    "L_{1,6}": {(0, D), (1, D)},
    "L_{1,7}": {(0, D), (1, D)},
    "L_{1,8}": {(0, D), (1, D)},
    "L_{2,1}": {(0, D), (1, D)},
    "L_{2,3}": {(0, D), (1, D)},
    "E_{1,alpha}": {(0, D), (0, H), (1, D), (1, H)},
    "F_{1,alpha}": {(1, D)},
    "G_{1,alpha}": {(0, D), (1, D)},
    "H_{1,alpha}": {(0, D)},
    "A~_alpha": {(0, D), (1, D)},
    "B~": {(0, D)},
    "C~_alpha": {(0, H), (1, D)},
    "C~_1": {(0, H), (1, H)},
}
LOST = pytest.mark.xfail(
    strict=True, reason="Direction 21: the sample plan's points are special in the catalog basis only"
)


def unimodular(rng, n):
    """A seeded integer matrix of determinant 1 and its integer inverse, as lists of rows.

    Each step replaces ``T`` by ``(I + m E_st) T`` (row ``s`` gains ``m`` times
    row ``t``) and the inverse by ``T^-1 (I - m E_st)`` (column ``t`` loses
    ``m`` times column ``s``).
    """
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    inverse = [row[:] for row in t]
    for _ in range(STEPS if n > 1 else 0):
        s, u = rng.sample(range(n), 2)
        m = rng.choice(MULTIPLIERS)
        t[s] = [a + m * b for a, b in zip(t[s], t[u])]
        for row in inverse:
            row[u] -= m * row[s]
    return t, inverse


def in_basis(algebra, t, inverse, name):
    """``algebra`` in the basis ``f_a = sum_i t[a][i] e_i``: ``[f_a, f_b]`` and ``w(f_a, f_b)`` in ``f`` coordinates."""
    n = algebra.dim

    def coordinates(v):  # e_k = sum_d inverse[k][d] f_d
        return tuple(sum((v[k] * inverse[k][d] for k in range(n)), Fraction(0)) for d in range(n))

    structure = tuple(tuple(coordinates(algebra.bracket(t[a], t[b])) for b in range(n)) for a in range(n))
    omega = tuple(tuple(algebra.omega_form(t[a], t[b]) for b in range(n)) for a in range(n))
    return OmegaAlgebra(name, n, structure, omega, tuple(f"f{a}" for a in range(1, n + 1)))


def basis(key, index):
    """The seeded change of basis of case ``(key, index)`` and its inverse."""
    return unimodular(random.Random(f"basis-change-{key}-{index}"), catalog.get(key).dim)


@lru_cache(maxsize=None)
def transformed(key, index):
    algebra = catalog.get(key)
    return in_basis(algebra, *basis(key, index), f"{algebra.name} in basis {index}")


def case_id(case):
    key, index = case
    return f"{key}-{index}"


def test_the_basis_changes_are_unimodular_and_move_the_tables():
    for key, index in CASES:
        n = catalog.get(key).dim
        t, inverse = basis(key, index)
        assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inverse)] for row in t] == [
            [int(i == j) for j in range(n)] for i in range(n)
        ]
        assert transformed(key, index).structure != catalog.get(key).structure


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_the_axioms_hold_in_the_new_basis(case):
    assert check_axioms(transformed(*case)).passed


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_every_rank_is_unchanged(case):
    key, _ = case
    before = {kind: SESSION.solve(catalog.get(key), kind).rank for kind in RANKED_KINDS}
    after = {kind: SESSION.solve(transformed(*case), kind).rank for kind in RANKED_KINDS}
    assert after == before


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_two_local_verdicts_are_unchanged(case):
    key, _ = case
    algebra = transformed(*case)
    for kind in VERDICT_KINDS:
        before = two_local_report(catalog.get(key), SESSION.solve(catalog.get(key), kind)).verdict
        assert two_local_report(algebra, SESSION.solve(algebra, kind)).verdict == before, kind


@pytest.mark.parametrize(
    "case, kind",
    [
        pytest.param(
            (key, index),
            kind,
            id=f"{case_id((key, index))}-{kind}",
            marks=LOST if (index, kind) in CERTIFIED_IN_THE_CATALOG_BASIS_ONLY.get(key, ()) else (),
        )
        for key, index in CASES
        for kind in VERDICT_KINDS
    ],
)
def test_local_closure_certification_is_unchanged(case, kind):
    key, _ = case
    before = local_closure(catalog.get(key), SESSION.solve(catalog.get(key), kind)).certified
    algebra = transformed(*case)
    assert local_closure(algebra, SESSION.solve(algebra, kind)).certified == before
