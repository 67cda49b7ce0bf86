"""The package names that perfbench/spans.py wraps by name still exist where
it looks for them.  The file is loaded by path and only read."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_MODULE = _spans()


@pytest.mark.parametrize("module, attr", [site[:2] for site in _MODULE.SPAN_SITES],
                         ids=lambda part: part)
def test_span_site_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, method",
                         [(m, c, name) for m, c, names, _ in _MODULE.COUNT_SITES
                          for name in names], ids=lambda part: part)
def test_count_site_is_in_its_class_body(module, cls, method):
    owner = getattr(importlib.import_module(module), cls)
    assert callable(owner.__dict__[method])
