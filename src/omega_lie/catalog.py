"""Built-in algebra catalog: the classified low-dimensional algebras.

The catalog ships every 3-dimensional and 4-dimensional nontrivial algebra
of the classification tables this toolkit reproduces, plus two Lie-algebra
fixtures (sl2 and sl2+sl2) used to exercise the semisimple-case solvers.
:func:`get` is the one way to an algebra, and :func:`instances` the one loop
over the 43 instances: each family at each of ``SAMPLES``, each other entry
once.  ``get`` builds each of them once and shares it.

Two encodings deviate from the commonly printed tables, in each case because
the printed version fails the defining axioms; the entry ``notes`` carry the
detail and ``tests`` verify the repaired tables axiom-check exactly:

* ``L_{1,1}``: the table lists the bracket of e4 with e2 as ``-y``; it is
  encoded as ``[e4,e2] = -e4``, the unique completion that passes the axioms
  and matches the sibling families ``L_{1,2}`` .. ``L_{1,5}``.
* ``B~``: the printed table carries both ``[e4,e1] = -2 e4`` and
  ``[e4,e2] = -e4``; with the second bracket present the weighted Jacobi
  identity fails on the triple (1,2,4) for every choice of skew form, so the
  entry drops it.  All other tilde-families extend their 3-dimensional base
  by a single e4-bracket, which the repaired table matches.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Optional

from .algebra import OmegaAlgebra, direct_sum
from .linalg import RationalLike, frac

# the one parameter of a family, and the values it is sampled at; the first is the default
ALPHA = "alpha"
SAMPLES: tuple[Fraction, ...] = (Fraction(2), Fraction(3), Fraction(-2))


class UnknownAlgebraError(KeyError):
    """Requested catalog key does not exist."""


class ExcludedParameterError(ValueError):
    """Requested parameter value is excluded for this family."""


@dataclass(frozen=True)
class ExpectedResults:
    """Reference values the verification suite checks solver output against.

    ``source`` is a short tag naming which reference table or argument the
    value restates; populated fields are exact (dimensions and flags), and
    :mod:`omega_lie.verification` checks every one of them.  A field that
    others imply stays unset: the flip of a biderivation is again one, so
    the biderivation space is the sum of its symmetric and skew parts.
    """

    der_rank: Optional[int] = None
    sym_bider_rank: Optional[int] = None
    skew_bider_rank: Optional[int] = None
    bider_rank: Optional[int] = None
    half_der_rank: Optional[int] = None
    local_der_certified: Optional[bool] = None
    local_half_certified: Optional[bool] = None
    two_local_rigid: Optional[bool] = None
    two_local_half_rigid: Optional[bool] = None
    bider_omega_equal: Optional[bool] = None
    separating_candidates: Optional[tuple[int, ...]] = None  # allowed separators, 1-based
    source: str = ""

    def as_dict(self) -> dict:
        out = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if value not in (None, ""):
                out[field.name] = list(value) if isinstance(value, tuple) else value
        return out


Builder = Callable[[Optional[Fraction]], OmegaAlgebra]  # alpha, or None for an entry without one


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    dim: int
    builder: Builder
    excluded: Optional[tuple[Fraction, ...]] = None  # the excluded alphas; None: the entry takes no parameter
    expected: ExpectedResults = ExpectedResults()
    notes: str = ""
    # parameter values at which some computed rank deviates from the generic
    # one, with the reason; the genericity smoke test treats them separately
    special_samples: tuple[tuple[Fraction, str], ...] = ()


# -- parameter families ---------------------------------------------------------
#
# key -> (dim, alpha -> (brackets, omega)); the algebra built at alpha = a is
# named f"{key}(alpha={a})".

_FAMILIES: dict[str, tuple[int, Callable[[Fraction], tuple[dict, dict]]]] = {
    "A_alpha": (3, lambda a: ({(1, 2): {1: 1}, (1, 3): {1: 1, 2: 1}, (2, 3): {3: 1, 1: a}}, {(2, 3): -1})),
    "C_alpha": (3, lambda a: ({(1, 2): {2: 1}, (1, 3): {3: a}, (2, 3): {1: 1}}, {(2, 3): 1 + a})),
    "E_{1,alpha}": (
        4,
        lambda a: ({(1, 2): {2: 1}, (2, 3): {3: 1}, (2, 4): {4: 1}, (1, 4): {4: -a}}, {(1, 2): 1}),
    ),
    "F_{1,alpha}": (
        4,
        lambda a: (
            {(1, 2): {2: 1}, (2, 3): {3: 1}, (2, 4): {4: 1}, (1, 4): {4: -a, 2: -1}},
            {(1, 2): 1, (1, 4): -1},
        ),
    ),
    "G_{1,alpha}": (
        4,
        lambda a: (
            {(1, 2): {2: 1}, (2, 3): {3: 1}, (2, 4): {1: -1, 4: 1}, (1, 4): {4: -1, 2: -a}},
            {(1, 2): 1, (1, 4): -a},
        ),
    ),
    "H_{1,alpha}": (
        4,
        lambda a: (
            {(1, 2): {2: 1}, (2, 3): {3: 1}, (2, 4): {1: -1, 3: -1, 4: 1}, (1, 4): {4: -1, 2: -a}},
            {(1, 2): 1, (1, 4): -a},
        ),
    ),
    "A~_alpha": (
        4,
        lambda a: ({(1, 2): {1: 1}, (1, 3): {1: 1, 2: 1}, (2, 3): {3: 1, 1: a}, (3, 4): {4: -1}}, {(2, 3): -1}),
    ),
    "C~_alpha": (
        4,
        lambda a: ({(1, 2): {2: 1}, (1, 3): {3: a}, (2, 3): {1: 1}, (1, 4): {4: 1 + a}}, {(2, 3): 1 + a}),
    ),
}


def _family(key: str, excluded: tuple[Fraction, ...], expected: ExpectedResults, **kw) -> CatalogEntry:
    """The catalog entry of the ``_FAMILIES`` table ``key`` in the parameter ``alpha``."""
    dim, table = _FAMILIES[key]

    def build(a: Fraction) -> OmegaAlgebra:
        return OmegaAlgebra.from_tables(f"{key}(alpha={a})", dim, *table(a))

    return CatalogEntry(key, dim, build, excluded, expected, **kw)


_L11_NOTE = (
    "bracket of e4 with e2 normalized to [e4,e2] = -e4; the printed symbol is "
    "not a basis vector, and -e4 is the unique completion that passes the "
    "axioms and matches the sibling families"
)

_BTILDE_NOTE = (
    "printed table also lists [e4,e2] = -e4, which makes the weighted Jacobi "
    "identity fail on the triple (1,2,4) for every skew form; that bracket is "
    "dropped, matching the single-e4-bracket pattern of the other tilde families"
)

_C_ALPHA_NOTE = (
    "alpha = 2, 1/2, -4 and -1/4 are resonance points of the half-derivation system: an extra map appears "
    "(e2 -> e3 at 2, e1 -> e3 with e2 -> -1/2 e1 at -4, and their images at 1/2 and -1/4, since C_{1/alpha} "
    "is C_alpha in the basis e1/alpha, e3, -e2/alpha), so the half-derivation rank is 2 there, not 1"
)

_C_RESONANCE_NOTE = (
    "alpha = 2 (and alpha = 1/2) are resonance points of the half-derivation "
    "system: a weight-shift map between the e2 and e3 eigendirections appears, "
    "so the half-derivation rank is 2 there instead of the generic 1"
)


_RIGID_WITH_DER = {"L_{1,3}", "L_{1,4}", "L_{1,7}", "L_{1,8}", "L_{2,2}", "L_{2,3}", "L_{2,4}", "F_{1,alpha}"}

# Symmetric-biderivation reference dimensions (classification table, 4D).
_SYM_TABLE = {
    "L_{1,1}": 9,
    "L_{1,2}": 4,
    "L_{1,3}": 2,
    "L_{1,4}": 2,
    "L_{1,5}": 4,
    "L_{1,6}": 2,
    "L_{1,7}": 2,
    "L_{1,8}": 1,
    "L_{2,1}": 2,
    "L_{2,2}": 0,
    "L_{2,3}": 2,
    "L_{2,4}": 0,
    "E_{1,alpha}": 4,
    "F_{1,alpha}": 2,
    "G_{1,alpha}": 0,
    "H_{1,alpha}": 0,
    "A~_alpha": 1,
    "B~": 2,
    "C~_alpha": 1,
    "C~_1": 5,
}


def _expected_4d(key: str) -> ExpectedResults:
    return ExpectedResults(
        der_rank={"L_{1,1}": 6, "L_{1,4}": 2}.get(key),
        sym_bider_rank=_SYM_TABLE[key],
        skew_bider_rank=0,
        local_der_certified=True,
        two_local_rigid=key in _RIGID_WITH_DER,
        bider_omega_equal=key not in ("L_{1,6}", "L_{1,8}"),
        separating_candidates=(3, 4) if key in _RIGID_WITH_DER else None,
        source="4-dimensional classification reference values",
    )


_EXPECTED_NONSIMPLE_3D = ExpectedResults(local_der_certified=True, source="3-dimensional classification")

_EXPECTED_SIMPLE_3D = ExpectedResults(
    bider_rank=0,
    half_der_rank=1,
    local_der_certified=True,
    local_half_certified=True,
    two_local_half_rigid=True,
    source="simple 3-dimensional reference values",
)


def _fixed(key, dim, brackets, omega, expected, notes="", repair="", labels=None) -> CatalogEntry:
    """A parameter-free entry; a ``repair`` note (a deviation from the printed
    table) is carried by the built algebra as well as by the entry."""

    def build(_alpha: None) -> OmegaAlgebra:
        return OmegaAlgebra.from_tables(key, dim, brackets, omega, basis_labels=labels, notes=repair)

    return CatalogEntry(key, dim, build, expected=expected, notes=notes or repair)


def _entries() -> tuple[CatalogEntry, ...]:
    e = []
    # 3-dimensional nontrivial algebras.
    for key, brackets, omega in (
        ("L_1", {(1, 2): {2: 1}, (2, 3): {3: 1}}, {(1, 2): 1}),
        ("L_2", {(1, 3): {2: 1}, (2, 3): {3: 1}}, {(1, 3): 1}),
    ):
        e.append(_fixed(key, 3, brackets, omega, _EXPECTED_NONSIMPLE_3D))
    e.append(_family("A_alpha", (), _EXPECTED_SIMPLE_3D))
    e.append(_fixed("B", 3, {(1, 2): {2: 1}, (1, 3): {2: 1, 3: 1}, (2, 3): {1: 1}}, {(2, 3): 2}, _EXPECTED_SIMPLE_3D))
    e.append(
        _family(
            "C_alpha",
            (Fraction(0), Fraction(-1)),
            _EXPECTED_SIMPLE_3D,
            notes=_C_ALPHA_NOTE,
            special_samples=tuple((a, _C_ALPHA_NOTE) for r in (Fraction(2), Fraction(-4)) for a in (r, 1 / r)),
        )
    )
    # 4-dimensional: the L_{1,k} group.
    base_l1 = {(1, 2): {2: 1}, (2, 3): {3: 1}}
    l1_brackets = {
        "L_{1,1}": {**base_l1, (2, 4): {4: 1}},
        "L_{1,2}": {**base_l1, (1, 4): {3: -1}, (2, 4): {4: 1}},
        "L_{1,3}": {**base_l1, (1, 4): {2: -1}, (2, 4): {4: 1}},
        "L_{1,4}": {**base_l1, (1, 4): {2: -1, 3: -1}, (2, 4): {4: 1}},
        "L_{1,5}": {**base_l1, (1, 4): {4: -1}, (2, 4): {4: 1}},
        "L_{1,6}": {**base_l1, (1, 4): {4: -1, 2: -1}, (2, 4): {4: 1}},
        "L_{1,7}": {**base_l1, (1, 4): {4: -1}, (2, 4): {3: -1, 4: 1}},
        "L_{1,8}": {**base_l1, (1, 4): {4: -1, 2: -1}, (2, 4): {3: -1, 4: 1}},
    }
    l1_omegas = {
        "L_{1,1}": {(1, 2): 1},
        "L_{1,2}": {(1, 2): 1},
        "L_{1,3}": {(1, 2): 1, (1, 4): -1},
        "L_{1,4}": {(1, 2): 1, (1, 4): -1},
        "L_{1,5}": {(1, 2): 1},
        "L_{1,6}": {(1, 2): 1, (1, 4): -1},
        "L_{1,7}": {(1, 2): 1},
        "L_{1,8}": {(1, 2): 1, (1, 4): -1},
    }
    for key in l1_brackets:
        repair = _L11_NOTE if key == "L_{1,1}" else ""
        e.append(_fixed(key, 4, l1_brackets[key], l1_omegas[key], _expected_4d(key), repair=repair))
    # 4-dimensional: the L_{2,k} group.
    base_l2 = {(1, 3): {2: 1}, (2, 3): {3: 1}, (2, 4): {4: 1}}
    l2_brackets = {
        "L_{2,1}": dict(base_l2),
        "L_{2,2}": {**base_l2, (1, 4): {3: -1}},
        "L_{2,3}": {**base_l2, (1, 4): {4: -1}},
        "L_{2,4}": {**base_l2, (1, 4): {4: -1, 3: -1}},
    }
    for key, brackets in l2_brackets.items():
        e.append(_fixed(key, 4, brackets, {(1, 3): 1}, _expected_4d(key)))
    # 4-dimensional parameter families.
    for key, excluded in (
        ("E_{1,alpha}", (Fraction(0), Fraction(1))),
        ("F_{1,alpha}", (Fraction(0), Fraction(1))),
        ("G_{1,alpha}", ()),
        ("H_{1,alpha}", ()),
        ("A~_alpha", ()),
    ):
        e.append(_family(key, excluded, _expected_4d(key)))
    e.append(
        _fixed(
            "B~",
            4,
            {(1, 2): {2: 1}, (1, 3): {2: 1, 3: 1}, (2, 3): {1: 1}, (1, 4): {4: 2}},
            {(2, 3): 2},
            _expected_4d("B~"),
            repair=_BTILDE_NOTE,
        )
    )
    e.append(
        _family(
            "C~_alpha",
            (Fraction(0), Fraction(-1), Fraction(1)),
            _expected_4d("C~_alpha"),
            notes="generic parameter point; alpha = 1 is the separate entry C~_1. " + _C_RESONANCE_NOTE,
            special_samples=tuple((a, _C_RESONANCE_NOTE) for a in (Fraction(2), 1 / Fraction(2))),
        )
    )
    c_tilde_at_1 = _FAMILIES["C~_alpha"][1](Fraction(1))
    e.append(
        _fixed(
            "C~_1",
            4,
            *c_tilde_at_1,
            _expected_4d("C~_1"),
            notes="special parameter point alpha = 1 of the C~ family (own reference row)",
        )
    )
    # Lie-algebra fixtures.
    sl2 = _fixed(
        "sl2",
        3,
        {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}},
        {},
        ExpectedResults(sym_bider_rank=0, skew_bider_rank=1, source="semisimple fixtures"),
        notes="basis (h,e,f) with [h,e]=2e, [h,f]=-2f, [e,f]=h; omega = 0",
        labels=("h", "e", "f"),
    )
    e.append(sl2)
    e.append(
        CatalogEntry(
            "sl2_plus_sl2",
            6,
            lambda _alpha: replace(direct_sum(get("sl2"), get("sl2")), name="sl2+sl2"),
            expected=ExpectedResults(skew_bider_rank=2, source="semisimple fixtures"),
            notes="two commuting copies of sl2; omega = 0",
        )
    )
    return tuple(e)


_ENTRIES = _entries()
_BY_KEY = {entry.key: entry for entry in _ENTRIES}
# (key, alpha or None) -> the shared instance; filled by ``get``, at most the catalog's 43 instances
_SHARED: dict[tuple[str, Optional[Fraction]], OmegaAlgebra] = {}


def list_entries() -> tuple[CatalogEntry, ...]:
    """All catalog entries, classification order then fixtures."""
    return _ENTRIES


def entry(key: str) -> CatalogEntry:
    try:
        return _BY_KEY[key]
    except KeyError:
        raise UnknownAlgebraError(f"unknown catalog key {key!r}; see `catalog list`") from None


def get(key: str, params: Optional[Mapping[str, RationalLike]] = None) -> OmegaAlgebra:
    """The catalog algebra ``key``, a family's at ``params[ALPHA]`` (default ``SAMPLES[0]``).  Each of the 43
    instances is built once and shared; a family at any other alpha is built anew on every call."""
    item = entry(key)
    alpha = None
    if item.excluded is not None:
        supplied = dict(params or {})
        alpha = frac(supplied.pop(ALPHA, SAMPLES[0]))
        if alpha in item.excluded:
            excluded = ", ".join(map(str, item.excluded))
            raise ExcludedParameterError(f"{key}: {ALPHA}={alpha} is an excluded value (excluded: {excluded})")
        if supplied:
            raise ExcludedParameterError(f"{key}: unknown parameter(s) {sorted(supplied)}; family takes {ALPHA!r}")
        if alpha not in SAMPLES:
            return item.builder(alpha)
    elif params:
        raise ExcludedParameterError(f"{key}: takes no parameters, got {sorted(params)}")
    if (key, alpha) not in _SHARED:
        _SHARED[key, alpha] = item.builder(alpha)
    return _SHARED[key, alpha]


def instances() -> Iterator[tuple[CatalogEntry, Optional[Fraction], OmegaAlgebra]]:
    """``(entry, alpha or None, algebra)`` for every entry at each of its samples, in catalog order."""
    for item in _ENTRIES:
        samples = (None,) if item.excluded is None else tuple(a for a in SAMPLES if a not in item.excluded)
        for alpha in samples:
            yield item, alpha, get(item.key, None if alpha is None else {ALPHA: alpha})


def expected(key: str) -> ExpectedResults:
    return entry(key).expected


def four_dimensional_keys() -> tuple[str, ...]:
    return tuple(e.key for e in _ENTRIES if e.dim == 4)
