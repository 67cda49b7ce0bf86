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


@pytest.mark.parametrize("name, args, code", [
    ("classify_curve.py", "abc", 2),
    ("classify_curve.py", "1e3", 2),    # the CLI's rationals: "p" or "p/q" only
    ("classify_curve.py", "1/0", 2),
    ("classify_curve.py", "1 2", 2),
    ("classify_curve.py", "0", 1),      # I_4' = 0: the g = 9 branch ratio is undefined
    ("verify_locus_table.py", "x", 2),
    ("verify_locus_table.py", "5/1", 2),
    ("verify_locus_table.py", "3", 1),  # GenusError: no locus at g = 3
])
def test_script_keeps_the_cli_contract(name, args, code, capsys):
    main = runpy.run_path(str(SCRIPTS / name))["main"]
    assert main(args.split()) == code
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert "Traceback" not in captured.err
    if code == 2:
        assert captured.out == ""
        assert captured.err.startswith("malformed argument: ")
