"""What a fresh process loads: ``import hyperinv`` loads no submodule, and a
one-shot CLI request loads only the modules its command runs, parsing the
shipped locus table only when the command reads it.

Each check runs in its own ``python -S`` process (no site imports), with the
package's source directory first on ``sys.path``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import hyperinv

SRC = str(Path(hyperinv.__file__).resolve().parent.parent)

#: the public names, frozen: ``hyperinv.__all__`` lists exactly these
PUBLIC = (
    "AbsoluteInvariants BinaryForm ConstraintError Covariant CubicConstraint "
    "CyclicNormalForm Cyclo DihedralInvariants DomainError ExactDivisionError GenusError "
    "InputError InvariantSet LOCUS_GENERA LocusTable ModuliPoint OffLocusError "
    "OutputSizeError PoleError Poly RatFunc ReconstructionError RecoveryError SignatureRow "
    "SingularMatrixError TransvectionError UndefinedInvariantError UnsupportedDegreeError "
    "a4 a4_curve_model absolute_invariants build_G catalogue classify_point "
    "covariant_catalogue cyclic default_table dihedral_invariants errors forms "
    "g_has_distinct_roots genus5_locus_is_singular genus5_locus_residual "
    "genus5_singular_point_analysis gl2_act load_locus_table loci locus_parametrization "
    "make_normal_form normal_form_polynomial poly_gcd polynomials rational_from_str "
    "rational_model rational_to_str reconstruct_from_u record recover_mu scalars "
    "serialize signature_row tau1 tau2 transvect vanishing_profile verify_genus"
).split()

#: prints, as one JSON line: the hyperinv submodules loaded and whether the
#: shipped table was parsed
_LOADED = """
fixture = sys.modules.get("hyperinv.fixture")
print(json.dumps({"modules": sorted(m.split(".")[1] for m in sys.modules
                                    if m.startswith("hyperinv.")),
                  "parsed": bool(fixture and fixture.default_table.cache_info().currsize)}))
"""

#: runs one request from stdin through main, discarding the report
_ONE_SHOT = """
import os
from hyperinv.cli import main
code = main(["--output", os.devnull])
assert code == 0, code
"""


def _python(code, stdin=""):
    return subprocess.run(
        [sys.executable, "-S", "-c", f"import json, sys; sys.path.insert(0, {SRC!r})\n{code}"],
        input=stdin, capture_output=True, text=True, timeout=60)


def _loaded(code, stdin=""):
    out = _python(code + _LOADED, stdin)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def _one_shot(command, payload):
    return _loaded(_ONE_SHOT, json.dumps({"command": command, "payload": payload}))


_G5 = {"genus": 5, "degree": 12, "ring": "Q", "coeffs": ["1", "0", "-2"] + ["0"] * 9 + ["1"]}


def test_import_hyperinv_loads_no_submodule():
    assert _loaded("import hyperinv") == {"modules": [], "parsed": False}


def test_one_shot_invariants_loads_no_a4_cyclic_or_loci():
    got = _one_shot("invariants", _G5)
    assert "catalogue" in got["modules"]
    assert not {"a4", "cyclic", "loci"} & set(got["modules"])
    assert not got["parsed"]


@pytest.mark.parametrize("command, payload", [
    ("dihedral", {"case": 1, "n": 2, "genus": 5, "coeffs": ["-1", "-33", "2", "-33", "-1"]}),
    ("catalogue", {"group": "Z2xA4", "genus": 7}),
], ids=["dihedral", "catalogue"])
def test_one_shot_normal_form_commands_load_no_catalogue_a4_or_loci(command, payload):
    got = _one_shot(command, payload)
    assert "cyclic" in got["modules"]
    assert not {"catalogue", "a4", "loci"} & set(got["modules"])
    assert not got["parsed"]


def test_one_shot_recover_parses_the_table_and_loads_no_cyclic():
    got = _one_shot("recover", {"genus": 5, "p": ["10778089/3200647230",
                                                  "1034085610/857097765447"]})
    assert "loci" in got["modules"] and "cyclic" not in got["modules"]
    assert got["parsed"]


def test_all_lists_the_public_names_and_each_resolves():
    got = _python("from hyperinv import *\nimport hyperinv\n"
                  "print(json.dumps([hyperinv.__all__, [n for n in hyperinv.__all__ "
                  "if globals().get(n) is None], sorted(set(hyperinv.__all__) - set(dir(hyperinv)))]))")
    assert got.returncode == 0, got.stderr
    names, unresolved, undirected = json.loads(got.stdout)
    assert names == PUBLIC
    assert unresolved == [] and undirected == []


@pytest.mark.parametrize("args", [[], ["--batch"]], ids=["one-shot", "batch"])
def test_shipped_table_that_fails_to_parse_exits_2_with_one_line(args):
    """The shipped table is parsed inside the first request that reads it; a
    failure there still ends the process with exit 2 and one stderr line."""
    code = ("from hyperinv import fixture\n"
            "def broken(strings):\n"
            "    raise ValueError('polynomial unreadable')\n"
            "fixture._parse_poly = broken\n"
            f"from hyperinv.cli import main\nraise SystemExit(main({args!r}))")
    request = {"command": "recover", "payload": {"genus": 5, "p": ["1", "2"]}}
    stdin = json.dumps([{"command": "catalogue", "payload": {"group": "Z2xA4", "genus": 7}},
                        request] if args else request)
    out = _python(code, stdin)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "cannot load fixture: polynomial unreadable\n"
