"""The benchmark's tracer binds package attributes by name; a rename must
fail here, not only in a traced benchmark run."""

import importlib
from pathlib import Path

import numpy as np

from ace import probes

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_binds_and_restores_every_traced_name(monkeypatch, tiny_state):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracing.instrument(tracer)  # a renamed attribute raises AttributeError here
    originals = [(owner, attr, original) for owner, attr, original, _ in tracer._patches]
    tracer.install()
    try:
        probes.embed_crops(tiny_state, [np.zeros((20, 20)), np.zeros((24, 24))])
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, attr
    spans = {}
    for s in tracer.spans:
        spans.setdefault(s.name, []).append(s)
    assert [s.n for s in spans["probes.embed_crops"]] == [2]
    assert [s.n for s in spans["model.encode_batch"]] == [2]
    assert len(spans["cropgrid.resize"]) == 2
