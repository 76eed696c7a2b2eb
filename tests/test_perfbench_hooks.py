"""The benchmark's per-layer hooks still see every layer.

``perfbench/tracing.py`` times the engine by swapping module-level names
(``compile_plan``, ``execute_plan``, ``bind_atom``, the Yannakakis
sweeps) for span-recording wrappers.  A refactor that unbinds one of
those names, or calls around it, would make ``--trace`` fail or report a
layer as zero.  This test drives the real hooks through
``Engine.execute`` and checks that each layer records spans and that
``uninstall`` puts the original objects back.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.core.parser import parse_query
from repro.db.database import Database
from repro.engine import Engine

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

WRAPPED = {
    "repro.engine.plan": (
        "bind_atom", "boolean_eval", "enumerate_answers",
        "parallel_boolean_eval", "parallel_enumerate_answers",
    ),
    "repro.engine.executor": ("decompose", "compile_plan", "execute_plan"),
}


@pytest.fixture(scope="module")
def recorder_cls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Recorder


def _originals() -> dict:
    return {
        (mod, name): importlib.import_module(mod).__dict__[name]
        for mod, names in WRAPPED.items()
        for name in names
    }


def test_every_layer_records_spans_and_uninstall_restores(recorder_cls):
    db = Database.from_relations(
        {"e": [(i, (i + 1) % 6) for i in range(6)] + [(0, 2), (2, 4), (4, 0)]}
    )
    queries = [
        parse_query("e(X, Y), e(Y, Z), e(Z, X)"),
        parse_query("ans(X, Z) :- e(X, Y), e(Y, Z), e(Z, W), e(W, X)."),
    ]
    before = _originals()
    recorder = recorder_cls()
    recorder.install()
    try:
        with Engine() as engine:
            for query in queries:
                engine.execute(query, db)
    finally:
        recorder.uninstall()

    totals = recorder.totals()
    for layer in ("compile", "bag", "bind", "sweep"):
        assert totals.get(layer, {}).get("count", 0) > 0, layer
    assert totals["sweep"]["count"] == len(queries)
    assert totals["bind"]["rows"] > 0
    after = _originals()
    for key, original in before.items():
        assert after[key] is original, key
