"""The README's library quick tour runs, each claim in its comments holds, and its CLI options are the parser's."""

import argparse
import pathlib
import re

from omega_lie.cli import build_parser
from omega_lie.algebra import BilinearMap
from omega_lie.linalg import Matrix, SubspaceBasis
from omega_lie.local import RIGID
from omega_lie import catalog
from omega_lie.solvers import SolutionSpace, solve

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
CLAIMS = (
    "# SolutionSpace, rank 2, canonical basis",
    "# certified == True: local => member",
    "# RIGID with separating vector e3",
    "# SolutionSpace, rank 5",
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
    assert isinstance(der, SolutionSpace) and der.rank == 2
    assert all(isinstance(m, Matrix) for m in der.elements())
    assert der.space == SubspaceBasis.from_generators(16, der.space.basis)
    assert res.certified is True and res.candidate == der.space
    assert rep.verdict == RIGID and rep.certificate.point == (0, 0, 1, 0)
    assert isinstance(sym, SolutionSpace) and sym.rank == 5
    assert all(isinstance(t, BilinearMap) for t in sym.elements())


def test_session_tour_gives_the_direct_solves():
    names = {}
    exec(compile(quick_tour(1), "README session tour", "exec"), names)
    alg = catalog.get("L_{1,1}")
    assert names["bider"] == solve(alg, "biderivation")
    assert names["skew"] == solve(alg, "skew")
    assert names["compat"] == solve(alg, "omega_biderivation", sign=1)


def _parser_options(parser: argparse.ArgumentParser) -> set[str]:
    """Every long option of ``parser`` and of its subcommands, ``--help`` aside."""
    options = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _parser_options(sub)
        options.update(o for o in action.option_strings if o.startswith("--"))
    return options - {"--help"}


def test_command_line_section_names_the_parser_options():
    """README's "Command line" section and the parser name the same options, so no stale or undocumented one."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert named == _parser_options(build_parser())
