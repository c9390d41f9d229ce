"""The README's library quick tour runs, and each claim in its comments holds."""

import pathlib
import re

from omega_lie.linalg import SubspaceBasis
from omega_lie.local import RIGID
from omega_lie import catalog
from omega_lie.solvers import MapSpace, TensorSpace, solve

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
CLAIMS = (
    "# MapSpace, rank 2, canonical basis",
    "# certified == True: local => member",
    "# RIGID with separating vector e3",
    "# TensorSpace, rank 5",
)


def quick_tour(block=0):
    """A ``python`` block of the "Library quick tour" section, the first by default."""
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)[block]


def test_quick_tour_claims_hold():
    source = quick_tour()
    for claim in CLAIMS:  # the comments still say what the assertions below check
        assert claim in source
    names = {}
    exec(compile(source, "README quick tour", "exec"), names)
    der, res, rep, sym = names["der"], names["res"], names["rep"], names["sym"]
    assert isinstance(der, MapSpace) and der.rank == 2
    assert der.space == SubspaceBasis.from_generators(16, der.space.basis)
    assert res.certified is True and res.candidate == der.space
    assert rep.verdict == RIGID and rep.certificate.point == (0, 0, 1, 0)
    assert isinstance(sym, TensorSpace) and sym.rank == 5


def test_session_tour_gives_the_direct_solves():
    names = {}
    exec(compile(quick_tour(1), "README session tour", "exec"), names)
    alg = catalog.get("L_{1,1}")
    assert names["bider"] == solve(alg, "biderivation")
    assert names["skew"] == solve(alg, "skew")
    assert names["compat"] == solve(alg, "omega_biderivation", sign=1)
