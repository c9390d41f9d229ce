"""The solve session: each request is solved once, and derived kinds are restricted from their parent.

A kind whose identities extend another kind's (``symmetric``, ``skew`` and
``omega_biderivation`` extend ``biderivation``; ``omega_derivation`` extends
``derivation``) is read off the parent's space in a session.  Bases are
canonical, so the result must equal a direct :func:`solvers.solve` with ``==``.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from omega_lie import catalog, linalg, solvers, verification
from omega_lie.algebra import OmegaAlgebra
from omega_lie.solvers import KINDS, Session

DERIVED = [
    ("symmetric", {}),
    ("skew", {}),
    ("omega_biderivation", {"sign": Fraction(-1)}),
    ("omega_biderivation", {"sign": Fraction(1)}),
    ("omega_derivation", {}),
]
PARENTS = {
    "symmetric": "biderivation",
    "skew": "biderivation",
    "omega_biderivation": "biderivation",
    "omega_derivation": "derivation",
}


def graded_random_table(n, seed):
    """``[e_i, e_j]`` (i < j) in the span of the ``e_k`` with k > j, and a seeded skew form; the axioms need not hold.

    Such tables have large derivation and biderivation spaces, so the
    restrictions below are proper and nonzero.
    """
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    brackets = {(i, j): {k: rng.choice((-2, -1, 1, 2)) for k in range(j + 1, n + 1) if rng.random() < 0.5} for i, j in pairs}
    omega = {p: rng.choice((-1, 0, 1)) for p in pairs}
    return OmegaAlgebra.from_tables(f"graded{n}", n, brackets, omega)


RANDOM = {f"graded{n}-{seed}": graded_random_table(n, seed) for n in (3, 4, 5) for seed in (1, 2, 3)}


def instances():
    for entry in catalog.list_entries():
        for sample in entry.parameter_samples():
            yield f"{entry.key}@{sample}", entry.build({"alpha": sample} if sample is not None else None)
    yield from RANDOM.items()


INSTANCES = list(instances())


def test_parents_are_read_off_the_registry():
    parents = {kind: solvers._parent(spec) for kind, spec in KINDS.items()}
    assert {kind: parent for kind, parent in parents.items() if parent} == PARENTS


@pytest.mark.parametrize("alg", [alg for _, alg in INSTANCES], ids=[tag for tag, _ in INSTANCES])
def test_restricted_spaces_equal_direct_solves(alg):
    session = Session()
    for kind, params in DERIVED:
        assert session.solve(alg, kind, **params) == solvers.solve(alg, kind, **params)


def test_the_cases_cover_every_reading():
    assert len(INSTANCES) == 43 + len(RANDOM)
    proper = set()
    for alg in RANDOM.values():
        assert any(v for row in alg.omega for v in row)
        session = Session()
        for kind, params in DERIVED:
            rank, parent = session.solve(alg, kind, **params).rank, session.solve(alg, PARENTS[kind]).rank
            if 0 < rank < parent:
                proper.add((kind, params.get("sign")))
    assert proper == {(kind, params.get("sign")) for kind, params in DERIVED}


def test_a_request_is_answered_once():
    alg = catalog.get("L_{1,1}")
    session = Session()
    first = session.solve(alg, "omega_biderivation")
    assert session.solve(catalog.get("L_{1,1}"), "omega_biderivation", sign=-1) is first
    assert session.solve(alg, "omega_biderivation", sign=1) is not first
    assert session.solve(alg, "delta_derivation", delta=1) is not session.solve(alg, "derivation")


def test_session_refuses_what_solve_refuses():
    session = Session()
    with pytest.raises(ValueError, match="symmetric has no parameter 'sign'"):
        session.solve(catalog.get("B"), "symmetric", sign=1)
    with pytest.raises(ValueError, match="delta_derivation needs a value for 'delta'"):
        session.solve(catalog.get("B"), "delta_derivation")


def test_run_all_solves_each_request_once_and_derived_kinds_by_restriction(monkeypatch):
    """One full elimination per distinct parentless request; derived kinds eliminate only in r coordinates."""
    requests, solved, full, restricted = [], [], [], []
    real_solve, eliminate = solvers.solve, linalg.nullspace_of_sparse_rows

    def counting_solve(algebra, kind, **params):
        requests.append((algebra, kind, tuple(sorted(params.items()))))
        solved.append(real_solve(algebra, kind, **params))
        return solved[-1]

    def recording(into):
        def elimination(ambient, rows):
            into.append(ambient)
            return eliminate(ambient, rows)

        return elimination

    monkeypatch.setattr(solvers, "solve", counting_solve)
    monkeypatch.setattr(solvers, "nullspace_of_sparse_rows", recording(full))
    monkeypatch.setattr(linalg, "nullspace_of_sparse_rows", recording(restricted))
    verification.run_all()
    assert max(Counter(requests).values()) == 1
    assert not {kind for _, kind, _ in requests} & set(PARENTS)
    assert len(full) == len(requests)
    # each restriction eliminates in the coordinates of a parent space, never over the n**3 (or n**2) unknowns
    assert restricted and set(restricted) <= {space.rank for space in solved if space.kind in PARENTS.values()}
    # 161 distinct requests (225 solver calls before the session), plus the
    # biderivations of sl2+sl2, solved only as the parent of its skew part
    assert (len(full), len(restricted)) == (82, 80)
