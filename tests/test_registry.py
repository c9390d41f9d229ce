"""The term-list registry: its two interpreters agree, and the bases are pinned.

Row assembly and the residual checks read the same term lists through
separate code: rows index the vectorized unknown directly, residuals go
through ``bracket``, ``Matrix.apply`` / ``BilinearMap.apply`` and
``omega_form``.  The first test builds the residual operator column by column
from unit maps and tensors, in one batch call, and checks that its nullspace
is the solved space.
A wrong term list passes that test, since both interpreters read it, so the
form identities of omega-biderivations are also checked against
``tests/oracle.py``, on an algebra where a misread identity changes the space.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from omega_lie import catalog, solvers, verification
from omega_lie.algebra import BilinearMap, OmegaAlgebra
from omega_lie.linalg import Matrix, nullspace_of_sparse_rows
from oracle import oracle_biderivation_rows, oracle_form_compatible_rows, oracle_leibniz_defects


def random_table(n, seed):
    """Dense bracket and skew form; the solvers do not need the axioms to hold."""
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    brackets = {p: {k: rng.randint(-3, 3) for k in range(1, n + 1)} for p in pairs}
    omega = {p: rng.randint(-2, 2) for p in pairs}
    return OmegaAlgebra.from_tables(f"random{n}", n, brackets, omega)


ALGEBRAS = {key: catalog.get(key) for key in ("B", "sl2", "L_{1,1}", "L_{1,6}", "B~")}
ALGEBRAS["random4"] = random_table(4, seed=20261017)

# half_derivation is the first delta_derivation case
CASES = [(kind, {}) for kind in solvers.KINDS if kind not in ("delta_derivation", "half_derivation")] + [
    ("delta_derivation", {"delta": Fraction(1, 2)}),
    ("delta_derivation", {"delta": Fraction(3)}),
    ("omega_biderivation", {"sign": Fraction(1)}),
]
CASE_IDS = [kind + "".join(f"-{p}={v}" for p, v in params.items()) for kind, params in CASES]


def unknown(entries, n, arity):
    """The map (``arity`` 1) or bilinear map (``arity`` 2) with vectorization ``entries``."""
    if arity == 1:
        return Matrix(tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(n)), n)
    return BilinearMap(
        tuple(tuple(tuple(entries[(i * n + j) * n : (i * n + j + 1) * n]) for j in range(n)) for i in range(n))
    )


def random_unknowns(alg, kind, seed):
    """Two seeded random unknowns of the kind's arity, about 80 % and 30 % of their entries zero."""
    rng = random.Random(seed)
    n, arity = alg.dim, solvers.KINDS[kind].arity
    out = []
    for zeros in (0.8, 0.3):
        entries = [
            Fraction(0) if rng.random() < zeros else Fraction(rng.choice((1, -1, 2, Fraction(1, 2))))
            for _ in range(n ** (arity + 1))
        ]
        out.append(unknown(entries, n, arity))
    return out


def one_check(alg, kind, params, u):
    """``map_defects`` or ``tensor_defects`` of one unknown, as ``[(indices, residual), ...]``."""
    if solvers.KINDS[kind].arity == 1:
        return [((i, j), r) for i, j, r in solvers.map_defects(alg, kind, u, delta=params.get("delta"))]
    return solvers.tensor_defects(alg, kind, u, omega_sign=params.get("sign"))


def residual_nullspace(alg, kind, params):
    """Nullspace of the residual operator, one column per unit map or tensor."""
    n = alg.dim
    arity = solvers.KINDS[kind].arity
    ambient = n ** (arity + 1)
    units = [unknown([Fraction(int(col == c)) for c in range(ambient)], n, arity) for col in range(ambient)]
    rows = {}  # (basis tuple, residual component) -> {column: value}
    for col, entries in enumerate(solvers.defects(alg, kind, units, **params)):
        for idx, residual in entries:
            for component, value in enumerate(residual):
                if value:
                    rows.setdefault((idx, component), {})[col] = value
    return nullspace_of_sparse_rows(ambient, rows.values())


@pytest.mark.parametrize("key", ALGEBRAS)
@pytest.mark.parametrize("kind,params", CASES, ids=CASE_IDS)
def test_solved_space_is_the_nullspace_of_the_residual_operator(key, kind, params):
    alg = ALGEBRAS[key]
    assert solvers.solve(alg, kind, **params).space == residual_nullspace(alg, kind, params)


@pytest.mark.parametrize("key", ["sl2", "L_{1,1}", "B"])
@pytest.mark.parametrize("kind", solvers.KINDS)
def test_elements_are_the_stored_basis_in_the_arity_of_the_kind(key, kind):
    """One answer type for both arities: ``Matrix`` objects for a map kind, ``BilinearMap`` objects for a tensor kind."""
    alg = catalog.get(key)
    space = solvers.solve(alg, kind, **({"delta": Fraction(3)} if kind == "delta_derivation" else {}))
    if solvers.KINDS[kind].arity == 1:
        element_type, vectorize = Matrix, solvers.vectorize_map
    else:
        element_type, vectorize = BilinearMap, solvers.vectorize_tensor
    elements = space.elements()
    assert len(elements) == space.rank
    for element, row in zip(elements, space.space.basis):
        assert type(element) is element_type
        assert vectorize(element) == row


# Zero bracket and a nondegenerate form: at sign -1 the omega-biderivation
# space has rank 4, and reading the second form identity as
# w(x, d(y,z)) instead of w(x, d(z,y)) would leave it zero.
SYMPLECTIC4 = OmegaAlgebra.from_tables("symplectic4", 4, {}, {(1, 2): 1, (3, 4): 1})


@pytest.mark.parametrize("sign", [Fraction(-1), Fraction(1)], ids=["-1", "+1"])
@pytest.mark.parametrize("key", ["symplectic4", "B"])
def test_omega_biderivations_match_the_oracle(key, sign):
    alg = SYMPLECTIC4 if key == "symplectic4" else catalog.get(key)
    rows = oracle_biderivation_rows(alg) + oracle_form_compatible_rows(alg, sign)
    expected = nullspace_of_sparse_rows(alg.dim ** 3, rows)
    assert solvers.omega_biderivations(alg, sign=sign).space == expected


def test_parameters_are_checked():
    alg = catalog.get("B")
    f = Matrix.identity(3)
    with pytest.raises(ValueError, match="needs a value for 'delta'"):
        solvers.solve(alg, "delta_derivation")
    with pytest.raises(ValueError, match="has no parameter 'delta'"):
        solvers.solve(alg, "centroid", delta=2)
    with pytest.raises(ValueError, match="unknown kind"):
        solvers.solve(alg, "quasi_derivation")
    with pytest.raises(ValueError, match="a bilinear map on the algebra must be 3 x 3 x 3, got Matrix"):
        solvers.map_defects(alg, "biderivation", f)
    # derivations pin delta = 1; only delta_derivation takes a delta
    with pytest.raises(ValueError, match="has no parameter 'delta'"):
        solvers.solve(alg, "derivation", delta=2)
    with pytest.raises(ValueError, match="has no parameter 'delta'"):
        solvers.map_defects(alg, "derivation", f, delta=2)
    with pytest.raises(ValueError, match="has no parameter 'delta'"):
        solvers.map_defects(alg, "omega_derivation", f, delta=2)
    with pytest.raises(ValueError, match="has no parameter 'sign'"):
        solvers.tensor_defects(alg, "biderivation", solvers.biderivations(alg).elements()[0], omega_sign=1)


@pytest.mark.parametrize("shape", [(3, 4), (4, 3), (4, 4)])
def test_map_defects_refuses_a_map_of_the_wrong_shape(shape):
    f = Matrix.from_rows([[int(i == j) for j in range(shape[1])] for i in range(shape[0])])
    for kind in ("derivation", "centroid"):
        with pytest.raises(ValueError, match="must be 3 x 3"):
            solvers.map_defects(catalog.get("B"), kind, f)
    with pytest.raises(ValueError, match="must be 3 x 3"):
        solvers.defects(catalog.get("B"), "derivation", [Matrix.identity(3), f])


@pytest.mark.parametrize("dim", [2, 4])
def test_tensor_defects_refuses_a_tensor_of_the_wrong_size(dim):
    t = unknown([Fraction(1)] * dim**3, dim, 2)
    for kind in ("biderivation", "symmetric"):
        with pytest.raises(ValueError, match=f"a bilinear map on the algebra must be 3 x 3 x 3, got {dim}"):
            solvers.tensor_defects(catalog.get("B"), kind, t)
    with pytest.raises(ValueError, match="must be 3 x 3 x 3, got Matrix"):
        solvers.defects(catalog.get("B"), "biderivation", [Matrix.identity(3)])


@pytest.mark.parametrize("kind,params", CASES, ids=CASE_IDS)
def test_one_batch_check_equals_one_check_per_unknown(kind, params):
    for key, alg in ALGEBRAS.items():
        space = solvers.solve(alg, kind, **params)
        first, second = random_unknowns(alg, kind, f"{key}|{kind}")
        members = list(space.elements())
        unknowns = [first] + members + [second]
        batch = solvers.defects(alg, kind, unknowns, **params)
        assert batch == [one_check(alg, kind, params, u) for u in unknowns], key
        assert not any(batch[1:-1]) and batch[-1], key


# sha256 of map_defects/tensor_defects over random_unknowns on every case and
# algebra, recorded before the residual check was compiled and batched.
DEFECT_SWEEP = "51219f6147f943a79b83a4cd91bdf3e5e0fb1838b9cc4e0636a87c10ba553d2c"


def test_residuals_of_random_unknowns_are_unchanged():
    h = hashlib.sha256()
    entries = 0
    for key, alg in ALGEBRAS.items():
        for case, (kind, params) in zip(CASE_IDS, CASES):
            for u in random_unknowns(alg, kind, f"{key}|{case}"):
                h.update(f"{key}|{case}\n".encode())
                for idx, r in one_check(alg, kind, params, u):
                    entries += 1
                    h.update(f"{idx}:{','.join(map(str, r))}\n".encode())
    assert entries == 3501
    assert h.hexdigest() == DEFECT_SWEEP


def perturbed_members(alg, space, kind, e, rng):
    """The basis of ``space`` with element ``e`` changed in one entry, the first from a random start that leaves the space."""
    arity = solvers.KINDS[kind].arity
    members = list(space.elements())
    entries = space.space.basis[e]
    start = rng.randrange(len(entries))
    for at in ((start + s) % len(entries) for s in range(len(entries))):
        bumped = list(entries)
        bumped[at] += 1
        if not space.space.contains(tuple(bumped)):
            members[e] = unknown(bumped, alg.dim, arity)
            return members, at
    pytest.fail(f"every unit {('map', 'tensor')[arity - 1]} is in the {kind} space of {alg.name}")


def only_the_perturbed_element_is_reported(key, kind):
    """Exactly the perturbed element is reported, on exactly the tuples and with the residuals of a dense re-evaluation."""
    alg = catalog.get(key)
    space = solvers.solve(alg, kind)
    assert space.rank
    rng = random.Random(key)
    for e in range(space.rank):
        members, at = perturbed_members(alg, space, kind, e, rng)
        found = solvers.defects(alg, kind, members)
        assert [bool(r) for r in found] == [i == e for i in range(space.rank)], (e, at)
        assert found[e] == oracle_leibniz_defects(alg, members[e]), (e, at)


@pytest.mark.parametrize("key", ["L_{1,1}", "sl2", "B~"])
def test_a_perturbed_basis_element_is_the_only_one_reported(key):
    only_the_perturbed_element_is_reported(key, "biderivation")


@pytest.mark.parametrize("key", ["L_{1,1}", "sl2", "B~"])
def test_a_perturbed_map_is_the_only_one_reported(key):
    only_the_perturbed_element_is_reported(key, "derivation")


def test_one_batch_evaluates_each_step_once_per_tuple(monkeypatch):
    """The kernel calls of a batch are bounded by tuples x compiled steps, whatever the number of unknowns."""
    alg = catalog.get("L_{1,1}")
    members = solvers.solve(alg, "biderivation").elements()
    assert len(members) == 18
    kernel, calls = solvers._bilinear, []

    def counted(support, xs, ys):
        calls.append(1)
        return kernel(support, xs, ys)

    monkeypatch.setattr(solvers, "_bilinear", counted)
    plans = solvers._plans(solvers.KINDS["biderivation"], {})
    assert solvers.defects(alg, "biderivation", members) == [[] for _ in members]
    assert 0 < len(calls) <= sum(alg.dim**nvars * len(steps) for nvars, steps, _ in plans)
    calls.clear()
    assert solvers.defects(alg, "biderivation", []) == []
    assert calls == []


# zero bracket and form: every map is a derivation and every bilinear map a biderivation
ABELIAN4 = OmegaAlgebra.from_tables("abelian4", 4, {}, {})


@pytest.mark.parametrize("kind,rank", [("derivation", 16), ("biderivation", 64), ("symmetric", 40), ("skew", 24)])
def test_a_large_batch_equals_one_check_per_unknown(kind, rank):
    space = solvers.solve(ABELIAN4, kind)
    assert space.rank == rank
    first, second = random_unknowns(ABELIAN4, kind, f"abelian4|{kind}")
    unknowns = [first] + list(space.elements()) + [second]
    batch = solvers.defects(ABELIAN4, kind, unknowns)
    assert batch == [one_check(ABELIAN4, kind, {}, u) for u in unknowns]
    assert not any(batch[1:-1])


@pytest.mark.parametrize("kind,members", [("symmetric", 16), ("skew", 0)])
def test_a_large_batch_of_non_members_equals_one_check_per_unknown(kind, members):
    """The 64 unit tensors, as a batch of a biderivation kind that most of them leave."""
    units = solvers.solve(ABELIAN4, "biderivation").elements()
    batch = solvers.defects(ABELIAN4, kind, units)
    assert batch == [one_check(ABELIAN4, kind, {}, u) for u in units]
    assert batch.count([]) == members


@pytest.mark.parametrize("kind", ["symmetric", "skew"])
def test_a_perturbed_element_of_a_large_basis_is_the_only_one_reported(kind):
    space = solvers.solve(ABELIAN4, kind)
    rng = random.Random(kind)
    for e in range(space.rank):
        members, at = perturbed_members(ABELIAN4, space, kind, e, rng)
        found = solvers.defects(ABELIAN4, kind, members)
        assert [bool(r) for r in found] == [i == e for i in range(space.rank)], (e, at)
        assert found[e] == one_check(ABELIAN4, kind, {}, members[e]), (e, at)


RESIDUAL_KINDS = [kind for kind in solvers.KINDS if kind != "delta_derivation"]


def test_the_spaces_criterion_11_rechecks_have_no_residual():
    """The check the criterion runs, on its exact spaces: every list is empty, one per basis element."""
    session = solvers.Session()
    checked = elements = 0
    for key in verification.RESIDUAL_KEYS:
        alg = catalog.get(key)
        for kind in RESIDUAL_KINDS:
            space = session.solve(alg, kind)
            members = space.elements()
            assert solvers.defects(alg, kind, members) == [[] for _ in members], (key, kind)
            checked += 1
            elements += len(members)
    assert (checked, elements) == (70, 143)


def test_criterion_11_residual_checks_every_registered_kind(monkeypatch):
    """A kind added to ``KINDS`` is solved and residual-checked on every algebra, with no edit to the criterion."""
    monkeypatch.setitem(solvers.KINDS, "centroid_copy", solvers.KINDS["centroid"])
    checked = []

    class Recording(solvers.Session):
        def __init__(self):
            super().__init__()
            self.requests = []

        def solve(self, algebra, kind, **params):
            self.requests.append((algebra, kind))
            return super().solve(algebra, kind, **params)

    def recording_defects(alg, kind, unknowns, **params):
        checked.append((alg, kind))
        return solvers.defects(alg, kind, unknowns, **params)

    monkeypatch.setattr(verification, "defects", recording_defects)
    session = Recording()
    assert verification.criterion_11_property_suite(session, verification.SamplePlan()).passed
    expected = {
        (catalog.get(key), kind) for key in verification.RESIDUAL_KEYS for kind in RESIDUAL_KINDS + ["centroid_copy"]
    }
    assert expected <= set(session.requests)
    assert set(checked) == expected


# sha256 of the canonical bases of all 43 catalog instances, one per kind,
# recorded before the registry replaced the hand-indexed row generators.
GOLDEN = {
    "derivation": (solvers.derivations, "a10e1949f81def969d174d6268d678343463dda229e2cd07e2e45bcffab6e48a"),
    "omega_derivation": (solvers.omega_derivations, "a10e1949f81def969d174d6268d678343463dda229e2cd07e2e45bcffab6e48a"),
    "centroid": (solvers.centroid, "2d6bb8f227464a0930bae62738b3013f2289bb9687a898d4916be606fb97dc88"),
    "commuting": (solvers.commuting_maps, "2d6bb8f227464a0930bae62738b3013f2289bb9687a898d4916be606fb97dc88"),
    "anticommuting": (solvers.anticommuting_maps, "e1854ebcd2928aebfbcc1c21acb436d8ce69d81fe07f1c87fc911f4ec7b1a6bf"),
    "half_derivation": (solvers.half_derivations, "8493fcb23849fba9f28a8d159b8cb9273ef771b6883ad744e2653765ff9eab7a"),
    "biderivation": (solvers.biderivations, "8fd2c32577a260c0346095e1cc6af568324103ad05ccdbf47546786e69f35639"),
    "symmetric": (solvers.symmetric_biderivations, "f066e47ef7ee2950deded1e64a13393d4e56a0d72b32a8b8fe7894d778399dd4"),
    "skew": (solvers.skew_biderivations, "8776bd8921513e95e45747f8c7495acf1baaf4b11f388da8d4cb925ab3bdb501"),
    "omega_biderivation": (solvers.omega_biderivations, "4c42a33fe2726d0dd29c85c7fdeaf99e88dbea6d3da5750a82f58e1664514043"),
}


@pytest.mark.parametrize("kind", GOLDEN)
def test_bases_of_all_catalog_instances_are_unchanged(kind):
    solve, digest = GOLDEN[kind]
    instances = [(f"{entry.key}@{alpha}", alg) for entry, alpha, alg in catalog.instances()]
    assert len(instances) == 43
    h = hashlib.sha256()
    for tag, alg in instances:
        space = solve(alg)
        assert space.kind == kind
        h.update(f"{tag}|{space.space.ambient_dim}|{space.rank}\n".encode())
        for row in space.space.basis:
            h.update((",".join(str(v) for v in row) + "\n").encode())
    assert h.hexdigest() == digest
