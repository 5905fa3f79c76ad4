"""glibc's allocator thresholds, set once for training and the probes."""

import resource
import types

import numpy as np
import pytest

import ace.probes as probes
import ace.trainer as tr
from ace import heap
from ace.config import RunConfig, apply_overrides
from ace.model import EncoderConfig, init
from ace.synthgen import generate_dataset


@pytest.fixture
def fresh_heap(monkeypatch):
    """Forget the cached setting before and after the test."""
    heap.hold_freed_pages.cache_clear()
    yield monkeypatch
    heap.hold_freed_pages.cache_clear()


def test_thresholds_are_set_once(fresh_heap):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    fresh_heap.setattr(heap.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    assert heap.hold_freed_pages() is True
    assert heap.hold_freed_pages() is True
    assert sorted(calls) == [(-3, 32 << 20), (-1, 64 << 20)]


def test_without_mallopt_nothing_is_set(fresh_heap):
    fresh_heap.setattr(heap.ctypes, "CDLL", lambda name: types.SimpleNamespace())
    assert heap.hold_freed_pages() is False


@pytest.fixture
def heap_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(heap, "hold_freed_pages", lambda: calls.append(1) or True)
    return calls


def test_train_loop_holds_freed_pages(tmp_path, heap_calls):
    cfg = apply_overrides(RunConfig(), ["epochs=1", "warmup_epochs=0"])
    # refused after the setting, for want of a manifest
    with pytest.raises(OSError):
        tr.train_loop(cfg, tmp_path / "missing.tsv", tmp_path / "run")
    assert heap_calls == [1]


def test_embed_crops_holds_freed_pages(heap_calls):
    state = init(EncoderConfig(K=4, T=2, H0=8, depth=1, hidden=8), np.random.default_rng(0))
    probes.embed_crops(state, [np.zeros((8, 8))])
    assert heap_calls == [1]


def test_warm_desk_steps_fault_no_heap_pages(tmp_path):
    """Without the thresholds glibc trims the freed top of the heap after
    each step and the next step faults it back in, about 1,250 pages."""
    if not heap.hold_freed_pages():
        pytest.skip("the C library has no glibc mallopt")
    cfg = apply_overrides(RunConfig(), ["phantom_count=8", "epochs=3", "warmup_epochs=0"])
    manifest = generate_dataset(tmp_path / "ds", cfg.phantom_count, cfg.phantom_spec(),
                                master_seed=0)
    tr.train_loop(cfg, manifest, tmp_path / "warm")
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    tr.train_loop(cfg, manifest, tmp_path / "run")
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / cfg.epochs < 64, faults
