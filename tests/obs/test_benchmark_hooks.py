"""The benchmark's span hooks name entry points that exist.

``perfbench/spans.py`` traces a run by rebinding the program's layer
entry points by name.  A renamed or removed entry point breaks only a
traced benchmark run, so this test loads the hook table by path and
checks every name it hooks.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.bdd.manager import BddManager
from repro.models import nsdp
from repro.static.analysis import StaticAnalysis

SPANS = Path(__file__).resolve().parents[2] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "module,attr",
    [(module, attr) for module, attr, _ in (*spans.FUNCTIONS, *spans.CLASSES)],
)
def test_hooked_entry_point_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_certificate_is_a_memoized_property():
    assert isinstance(StaticAnalysis.safety_certificate, property)
    analysis = StaticAnalysis(nsdp(2))
    assert analysis._certificate is None
    certificate = analysis.safety_certificate
    assert analysis._certificate is certificate


def test_bdd_manager_counts_ite_probes():
    manager = BddManager()
    assert isinstance(manager.ite_calls, int)
    assert isinstance(manager.ite_hits, int)
