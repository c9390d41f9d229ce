"""The one solve path: each request is solved once, and derived kinds are read off their parent.

A kind that names a parent in ``KINDS`` (``symmetric``, ``skew`` and
``omega_biderivation`` name ``biderivation``; ``omega_derivation`` names
``derivation``) lists only its own identities, and its space is the parent's,
restricted by them.  ``biderivation`` names ``derivation`` as its slices, and
its space is read off the derivations'.  :func:`solvers.solve` and
:meth:`Session.solve` both take that path, so neither is an oracle for the
other: the oracle here is the nullspace of every identity's rows over all
``n**(arity + 1)`` unknowns, a system no library path assembles any more.
Bases are canonical, so the answers must be ``==``.
"""

import functools
import random
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest

from omega_lie import catalog, linalg, local, solvers, verification
from omega_lie.algebra import BilinearMap, OmegaAlgebra, check_axioms, direct_sum
from omega_lie.cli import main
from omega_lie.linalg import nullspace_of_sparse_rows
from omega_lie.solvers import KINDS, Session

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402

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
SLICES = {"biderivation": "derivation"}
READ_OFF = DERIVED + [("biderivation", {})]  # every kind with a parent or slices, every reading of its parameters


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


def raw_table(n, seed):
    """A structure tensor and form drawn entry by entry, neither antisymmetric.

    Built with ``OmegaAlgebra(...)`` directly, so ``e_i e_j`` and ``e_j e_i``
    are independent and ``e_i e_i`` may be nonzero.  ``e_i e_j`` lies in the
    span of the ``e_k`` with k > i, j, so such tables have nonzero
    biderivations.
    """
    rng = random.Random(seed)
    structure = tuple(
        tuple(tuple(Fraction(rng.choice((-1, 0, 0, 1, 2)) if k > max(i, j) else 0) for k in range(n)) for j in range(n))
        for i in range(n)
    )
    omega = tuple(tuple(Fraction(rng.randint(-1, 1)) for _ in range(n)) for _ in range(n))
    return OmegaAlgebra(f"raw{n}-{seed}", n, structure, omega, tuple(f"e{i + 1}" for i in range(n)))


RAW = {f"raw{n}-{seed}": raw_table(n, seed) for n in (3, 4, 5) for seed in (1, 2, 3)}
DENSE = {
    f"dense{alg.dim}-{seed}": alg
    for seed in (workloads.DEFAULT_SEED, 7, 8)
    for alg in workloads.WORKLOADS["dense-elim"].inputs(seed)
}


def instances():
    for entry, alpha, alg in catalog.instances():
        yield f"{entry.key}@{alpha}", alg
    yield from RANDOM.items()


def special_linear(n):
    """sl(n) on the units ``E_ab`` (a != b) and ``E_aa - E_(a+1)(a+1)``, its bracket the matrix commutator."""
    units = [{(a, b): 1} for a in range(n) for b in range(n) if a != b]
    units += [{(a, a): 1, (a + 1, a + 1): -1} for a in range(n - 1)]

    def commutator(x, y):
        out = {}
        for (a, b), u in x.items():
            for (c, d), v in y.items():
                if b == c:
                    out[a, d] = out.get((a, d), 0) + u * v
                if d == a:
                    out[c, b] = out.get((c, b), 0) - u * v
        return out

    def coordinates(m):
        """Off-diagonal entries in the units' order, then the partial sums of the diagonal."""
        diagonal = accumulate(m.get((a, a), 0) for a in range(n - 1))
        return [m.get((a, b), 0) for a in range(n) for b in range(n) if a != b] + list(diagonal)

    brackets = {}
    for i, x in enumerate(units):
        for j in range(i + 1, len(units)):
            coeffs = {k + 1: v for k, v in enumerate(coordinates(commutator(x, units[j]))) if v}
            if coeffs:
                brackets[i + 1, j + 1] = coeffs
    return OmegaAlgebra.from_tables(f"sl{n}", len(units), brackets, {})


INSTANCES = list(instances())
SL3 = special_linear(3)
SL2_CUBED = direct_sum(catalog.get("sl2_plus_sl2"), catalog.get("sl2"))
ABELIAN = {f"abelian{n}": OmegaAlgebra.from_tables(f"abelian{n}", n, {}, {}) for n in (2, 3, 4)}
SL2_ABELIAN1 = direct_sum(catalog.get("sl2"), OmegaAlgebra.from_tables("abelian1", 1, {}, {}))
ORACLE_CASES = (
    INSTANCES
    + [("sl2+sl2+sl2", SL2_CUBED), ("sl2+abelian1", SL2_ABELIAN1)]
    + list(DENSE.items())
    + list(RAW.items())
    + list(ABELIAN.items())
    + [("sl3", SL3)]
)


def whole_system(alg, kind, **params):
    """The oracle: the nullspace of all of a kind's identities' rows, its parent's included, over every unknown."""
    spec, values = solvers._lookup(kind, params)
    rows = solvers._identity_rows(alg, solvers._identities(spec), values)
    return nullspace_of_sparse_rows(alg.dim ** (spec.arity + 1), rows)


# every identity of each kind, parent's first, as the registry spelled them out before kinds named a parent
BIDERIVATION = (solvers.LEIBNIZ_FIRST, solvers.LEIBNIZ_SECOND)
ALL_IDENTITIES = {
    "derivation": (solvers.LEIBNIZ,),
    "omega_derivation": (solvers.LEIBNIZ, solvers.FORM_SKEW),
    "centroid": (solvers.CENTROID,),
    "commuting": (solvers.COMMUTING,),
    "anticommuting": (solvers.ANTICOMMUTING,),
    "half_derivation": (solvers.LEIBNIZ,),
    "delta_derivation": (solvers.LEIBNIZ,),
    "biderivation": BIDERIVATION,
    "symmetric": BIDERIVATION + (solvers.SYMMETRIC,),
    "skew": BIDERIVATION + (solvers.SKEW,),
    "omega_biderivation": BIDERIVATION + (solvers.FORM_FIRST, solvers.FORM_SECOND),
}


def test_parents_are_read_off_the_registry():
    assert {kind: spec.parent for kind, spec in KINDS.items() if spec.parent} == PARENTS
    assert {kind: spec.slices for kind, spec in KINDS.items() if spec.slices} == SLICES
    for kind, sliced in SLICES.items():
        assert (KINDS[kind].arity, KINDS[sliced].arity, KINDS[kind].parent) == (2, 1, None)
    assert sorted({kind for kind, _ in READ_OFF}) == sorted(PARENTS.keys() | SLICES.keys())
    for kind, spec in KINDS.items():
        if spec.parent:
            assert spec.parent in KINDS, kind
            parent = KINDS[spec.parent]
            assert (parent.arity, parent.fixed) == (spec.arity, spec.fixed), kind
        ancestors, at = [], spec
        while at.parent:
            assert at.parent not in ancestors and at.parent != kind, (kind, ancestors)
            ancestors.append(at.parent)
            at = KINDS[at.parent]
        assert solvers._identities(spec) == ALL_IDENTITIES[kind], kind
    assert set(ALL_IDENTITIES) == set(KINDS)


@pytest.mark.parametrize("alg", [alg for _, alg in ORACLE_CASES], ids=[tag for tag, _ in ORACLE_CASES])
def test_read_off_spaces_equal_the_whole_system(alg):
    session = Session()
    for kind, params in READ_OFF:
        expected = whole_system(alg, kind, **params)
        assert session.solve(alg, kind, **params).space == expected, kind
        assert solvers.solve(alg, kind, **params).space == expected, kind


def test_the_cases_cover_every_reading():
    assert len(INSTANCES) == 43 + len(RANDOM)
    assert len(DENSE) == 12 and {alg.dim for alg in DENSE.values()} == {4, 5, 6, 7}
    # the raw tables are not antisymmetric, and their biderivations are nonzero
    for alg in RAW.values():
        n, t = alg.dim, alg.structure
        assert any(t[i][j] != tuple(-v for v in t[j][i]) for i in range(n) for j in range(n)), alg.name
        assert solvers.solve(alg, "biderivation").rank > 0, alg.name
    # on an abelian algebra Der is all of gl(n), so every bilinear map is a biderivation: the restriction cuts nothing
    for alg in ABELIAN.values():
        assert solvers.solve(alg, "derivation").rank == alg.dim**2, alg.name
        assert solvers.solve(alg, "biderivation").rank == alg.dim**3, alg.name
    # sl3 is simple: its derivations are inner, and its biderivations are the multiples of its bracket (Tang 2018)
    assert check_axioms(SL3).passed
    assert solvers.solve(SL3, "derivation").rank == 8
    bracket = [v for plane in SL3.structure for row in plane for v in row]
    assert solvers.solve(SL3, "biderivation").space == linalg.SubspaceBasis(SL3.dim**3, [bracket])
    proper = set()
    for alg in RANDOM.values():
        assert any(v for row in alg.omega for v in row)
        session = Session()
        for kind, params in DERIVED:
            rank, parent = session.solve(alg, kind, **params).rank, session.solve(alg, PARENTS[kind]).rank
            if 0 < rank < parent:
                proper.add((kind, params.get("sign")))
    assert proper == {(kind, params.get("sign")) for kind, params in DERIVED}


def test_sl3_answers_every_kind_in_closed_form():
    """sl3 is simple over ℂ and its form is 0, so every kind's space is known.

    Its ½-derivations are the scalars (Ferreira, Kaygorodov & Lopatkin 2021),
    and so is its centroid, as for every simple algebra over ℂ; its commuting
    maps are the centroid and its anticommuting maps are 0.  Its
    biderivations are skew (Tang 2018), so the symmetric ones are 0.  With
    ω = 0 each ω-kind is its plain kind, and δ = 1 is the derivation.  A
    scalar space is closed under transposition, so none of this depends on
    which matrix action reads a map.
    """
    n = SL3.dim
    session = Session()
    der, bider = session.solve(SL3, "derivation").space, session.solve(SL3, "biderivation").space
    scalars = linalg.SubspaceBasis(n * n, [[Fraction(int(r == c)) for r in range(n) for c in range(n)]])
    expected = [
        ("derivation", {}, der),
        ("omega_derivation", {}, der),
        ("delta_derivation", {"delta": Fraction(1)}, der),
        ("half_derivation", {}, scalars),
        ("centroid", {}, scalars),
        ("commuting", {}, scalars),
        ("anticommuting", {}, linalg.SubspaceBasis(n * n, [])),
        ("biderivation", {}, bider),
        ("symmetric", {}, linalg.SubspaceBasis(n**3, [])),
        ("skew", {}, bider),
        ("omega_biderivation", {"sign": Fraction(-1)}, bider),
        ("omega_biderivation", {"sign": Fraction(1)}, bider),
    ]
    assert {kind for kind, _, _ in expected} == set(KINDS)
    for kind, params, space in expected:
        assert session.solve(SL3, kind, **params).space == space, (kind, params)
    half = session.solve(SL3, "half_derivation")
    assert local.local_closure(SL3, half).certified
    assert local.two_local_report(SL3, half).verdict == local.RIGID


def test_a_request_is_answered_once():
    alg = catalog.get("L_{1,1}")
    session = Session()
    first = session.solve(alg, "omega_biderivation")
    assert session.solve(catalog.get("L_{1,1}"), "omega_biderivation", sign=-1) is first
    assert session.solve(alg, "omega_biderivation", sign=1) is not first
    assert session.solve(alg, "delta_derivation", delta=1) is not session.solve(alg, "derivation")


def test_half_derivations_are_delta_derivations_at_one_half():
    session = Session()
    for alg in (catalog.get("B"), catalog.get("C_alpha", {"alpha": 2}), catalog.get("L_{1,1}")):
        half = session.solve(alg, "half_derivation")
        assert replace(half, kind="delta_derivation") == session.solve(alg, "delta_derivation", delta=Fraction(1, 2))
        assert half == solvers.half_derivations(alg)


def test_session_refuses_what_solve_refuses():
    session = Session()
    with pytest.raises(ValueError, match="symmetric has no parameter 'sign'"):
        session.solve(catalog.get("B"), "symmetric", sign=1)
    with pytest.raises(ValueError, match="delta_derivation needs a value for 'delta'"):
        session.solve(catalog.get("B"), "delta_derivation")


def test_run_all_solves_each_request_once_and_derived_kinds_by_restriction(monkeypatch):
    """One full elimination per distinct parentless, sliceless request; a derived kind eliminates only in r coordinates, if r > 0.

    Biderivations are the intersection of the derivations' slices in either
    slot, read off one echelon, and eliminate through neither
    ``nullspace_of_sparse_rows``.
    """
    sessions, full, restricted = [], [], []
    eliminate = linalg.nullspace_of_sparse_rows

    class Recorded(Session):
        def __init__(self):
            super().__init__()
            sessions.append(self)

    def recording(into):
        def elimination(ambient, rows):
            into.append(ambient)
            return eliminate(ambient, rows)

        return elimination

    monkeypatch.setattr(verification, "Session", Recorded)
    monkeypatch.setattr(solvers, "nullspace_of_sparse_rows", recording(full))
    monkeypatch.setattr(linalg, "nullspace_of_sparse_rows", recording(restricted))
    verification.run_all()
    (session,) = sessions
    spaces = [space for solved in session._solved.values() for space in solved.values()]
    parent_of = {kind: spec.parent or spec.slices for kind, spec in KINDS.items()}
    roots = [s for s in spaces if not parent_of[s.kind]]
    # each request is solved once: one full elimination per root space, over all of its unknowns
    assert sorted(full) == sorted(s.algebra.dim ** (KINDS[s.kind].arity + 1) for s in roots)
    # a restriction eliminates only when its parent is nonzero, in the coordinates of that parent
    parents = [session.solve(s.algebra, PARENTS[s.kind]) for s in spaces if s.kind in PARENTS]
    assert len(restricted) == sum(1 for parent in parents if parent.rank)
    assert restricted and set(restricted) <= {parent.rank for parent in parents}
    # 161 distinct requests (225 solver calls before the session), plus the
    # biderivations of sl2+sl2, solved only as the parent of its skew part,
    # and the derivations of sl2+sl2, solved only as its biderivations' slices:
    # 163 spaces; 105 of them are read off a parent or the slices, of which the
    # 25 biderivation spaces eliminate nothing, and the 68 others whose parent is nonzero do
    bider = [s for s in spaces if s.kind == "biderivation"]
    assert (len(full), len(spaces) - len(roots), len(bider), len(restricted)) == (58, 105, 25, 68)
    # with the derivations solved, a biderivation solve calls neither nullspace_of_sparse_rows
    for space in bider:
        fresh = Session()
        fresh.solve(space.algebra, "derivation")
        del full[:], restricted[:]
        assert fresh.solve(space.algebra, "biderivation") == space
        assert (full, restricted) == ([], []), space.algebra.name


def test_no_path_assembles_the_biderivation_system(monkeypatch, capsys):
    """Biderivations are read off the derivations' slices: the n**4 rows of either Leibniz identity are never assembled."""
    identities = []
    rows = solvers._rows

    def recording(algebra, identity, params, tables):
        identities.append(identity)
        return rows(algebra, identity, params, tables)

    monkeypatch.setattr(solvers, "_rows", recording)
    verification.run_all()
    assert main(["solve", "bider", "@sl2"]) == 0 and "rank" in capsys.readouterr().out
    assert solvers.LEIBNIZ in identities and solvers.SYMMETRIC in identities
    assert solvers.LEIBNIZ_FIRST not in identities and solvers.LEIBNIZ_SECOND not in identities


@pytest.mark.parametrize("entry, broken", [((0, 2, 2), 1), ((2, 0, 2), 0)], ids=["second-slot", "first-slot"])
def test_the_residual_check_reads_both_leibniz_identities(entry, broken):
    """On ``[e1, e2] = e3`` the map ``e1 -> e3`` is a derivation and ``e3 -> e3`` is not.

    Adding 1 at ``d[0][2][2]`` adds ``e3 -> e3`` to the slice ``U(e1, .)`` and
    ``e1 -> e3`` to ``U(., e3)``; ``d[2][0][2]`` is the mirror case.  So each
    perturbation breaks exactly one identity, and ``defects`` reports it in
    that identity's ``n`` residual coordinates (first-slot identity first),
    and in no others.
    """
    alg = OmegaAlgebra.from_tables("heisenberg", 3, {(1, 2): {3: 1}}, {})
    n = alg.dim
    basis = solvers.solve(alg, "biderivation")
    assert not any(solvers.defects(alg, "biderivation", basis.elements()))
    tensor = [[list(row) for row in plane] for plane in basis.elements()[0].tensor]
    i, j, k = entry
    tensor[i][j][k] += 1
    perturbed = BilinearMap(tuple(tuple(tuple(row) for row in plane) for plane in tensor))
    (found,) = solvers.defects(alg, "biderivation", [perturbed])
    assert found
    for _, residual in found:
        assert not any(residual[(1 - broken) * n : (2 - broken) * n])
    assert any(residual[broken * n : (broken + 1) * n] for _, residual in found)


def test_an_algebra_is_hashed_once_and_equal_algebras_share_an_entry(monkeypatch):
    """The session keys on the algebra's value; its field hash is computed once per object."""
    hashed = []
    field_hash = OmegaAlgebra._hash.func

    def counted(self):
        hashed.append(self)
        return field_hash(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(OmegaAlgebra, "_hash")
    monkeypatch.setattr(OmegaAlgebra, "_hash", prop)
    session = Session()
    first, second = replace(catalog.get("L_{1,1}")), replace(catalog.get("L_{1,1}"))
    assert first is not second and first == second and hash(first) == hash(second)
    kinds = [kind for kind in KINDS if kind != "delta_derivation"]
    answers = {alg_id: [session.solve(alg, kind) for kind in kinds] for alg_id, alg in enumerate((first, second))}
    assert all(a is b for a, b in zip(answers[0], answers[1]))
    # every lookup, nested parent lookups included, reads one hash computation per object
    assert [id(alg) for alg in hashed] == [id(first), id(second)]
    # the cached hash does not enter equality, and a copy with a changed field computes its own, once
    renamed = replace(first, name="other")
    assert renamed != first and hash(renamed) == hash(renamed)
    assert [id(alg) for alg in hashed[2:]] == [id(renamed)]
