"""The scripts under scripts/ run end to end in process."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["classify_curve.py", "verify_locus_table.py"])
def test_script_main_exits_0(name, capsys):
    main = runpy.run_path(str(SCRIPTS / name))["main"]
    assert main([]) == 0
    out = capsys.readouterr().out
    if name == "verify_locus_table.py":
        assert out.count("recomputed-differs") == 4
        assert out.endswith("result: all checks passed\n")
