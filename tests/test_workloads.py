"""The benchmark's workloads call the package by keyword (`PhantomSpec(weave_amp=...)`,
`compositionality_probe(n_parts=4, ...)`); a renamed or retired name must fail
here, not only in a benchmark run.  Each tiny round runs twice, the second time
under the tracer, whose wrappers read their arguments (`embed_crops` counts
`len(crops)`), so a call that only fails traced fails here too."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_workload_runs_a_tiny_round_without_a_failed_operation(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    for name in run.WORKLOAD_NAMES:
        wl = workloads.make(name, 0, tmp_path / name, tiny=True, fault=False)
        wl.setup()
        k = len(wl.round)
        results = [wl.op(i) for i in range(k)]
        tracer.install()
        try:
            results += [wl.op(i) for i in range(k, 2 * k)]
        finally:
            tracer.uninstall()
        _, _, final_check = wl.finish()
        results += [final_check] if final_check else []
        notes = [n for r in results for n in r.notes]
        assert sum(r.failed for r in results) == 0, (name, notes)
        assert all(r.attempted >= 1 for r in results), name
    assert tracer.spans, "the traced rounds recorded no span"
