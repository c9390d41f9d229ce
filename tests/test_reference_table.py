"""The catalog is the one reference table of the verification suite.

Criteria 1-10 read every reference value through ``catalog.expected`` and
restate none: together they read each populated field of each entry, and a
wrong value in any field changes the result of the criterion that reads it.
"""

from dataclasses import fields, replace

import pytest

from omega_lie import catalog, verification
from omega_lie.catalog import ExpectedResults
from omega_lie.local import SamplePlan
from omega_lie.solvers import Session

PLAN = SamplePlan()

CRITERIA = {
    1: verification.criterion_1_axioms,
    2: lambda: verification.criterion_2_derivation_forms(Session()),
    3: lambda: verification.criterion_3_skew_biderivations(Session()),
    4: lambda: verification.criterion_4_symmetric_biderivations(Session()),
    5: lambda: verification.criterion_5_simple_3d(Session()),
    6: lambda: verification.criterion_6_local_rigidity(Session(), PLAN),
    7: lambda: verification.criterion_7_two_local(Session(), PLAN),
    8: lambda: verification.criterion_8_affine_families(PLAN),
    9: lambda: verification.criterion_9_omega_biderivations(Session()),
    10: lambda: verification.criterion_10_semisimple_fixtures(Session()),
}

REFERENCE_FIELDS = {f.name for f in fields(ExpectedResults)} - {"source"}

# (field, entry, wrong value, criterion that reads the field there)
MUTATIONS = [
    ("der_rank", "L_{1,4}", 3, 2),
    ("sym_bider_rank", "sl2", 1, 10),
    ("skew_bider_rank", "sl2_plus_sl2", 3, 10),
    ("bider_rank", "A_alpha", 1, 5),
    ("half_der_rank", "A_alpha", 2, 5),
    ("local_der_certified", "L_1", False, 6),
    ("local_half_certified", "B", False, 6),
    ("two_local_rigid", "L_{1,3}", False, 7),
    ("two_local_half_rigid", "A_alpha", False, 7),
    ("bider_omega_equal", "L_{1,1}", False, 9),
    ("separating_candidates", "L_{1,4}", (1, 2), 7),
]


class _Recorder:
    """Stands in for one entry's ``ExpectedResults`` and notes each field read."""

    def __init__(self, key, values, reads):
        self._key, self._values, self._reads = key, values, reads

    def __getattr__(self, name):
        self._reads.add((self._key, name))
        return getattr(self._values, name)


@pytest.fixture(scope="module")
def baseline():
    """Each criterion's result, run once, and the ``(key, field)`` pairs it read."""
    reads = set()
    real = catalog.expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(catalog, "expected", lambda key: _Recorder(key, real(key), reads))
        results = {number: criterion() for number, criterion in CRITERIA.items()}
    return results, reads


def test_criteria_read_every_populated_reference_value(baseline):
    _, reads = baseline
    populated = {
        (entry.key, name)
        for entry in catalog.list_entries()
        for name in REFERENCE_FIELDS
        if getattr(entry.expected, name) is not None
    }
    assert populated - reads == set()


def test_mutations_cover_every_field():
    assert {field for field, *_ in MUTATIONS} == REFERENCE_FIELDS


@pytest.mark.parametrize("field, key, wrong, number", MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_a_wrong_reference_value_changes_the_result(baseline, monkeypatch, field, key, wrong, number):
    results, _ = baseline
    real = catalog.expected
    assert getattr(real(key), field) not in (None, wrong)
    mutated = replace(real(key), **{field: wrong})
    monkeypatch.setattr(catalog, "expected", lambda k: mutated if k == key else real(k))
    assert CRITERIA[number]() != results[number]
