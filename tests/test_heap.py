"""glibc's allocator thresholds, set once for training, the probes and
phantom generation."""

import ctypes
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import ace
import ace.probes as probes
import ace.trainer as tr
from ace import heap, synthgen
from ace.config import RunConfig, apply_overrides
from ace.model import EncoderConfig, init
from ace.synthgen import PhantomSpec, generate_dataset


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
    assert sorted(calls) == [(-8, 1), (-3, 32 << 20), (-1, 64 << 20)]


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


def test_generate_dataset_holds_freed_pages(tmp_path, heap_calls):
    generate_dataset(tmp_path / "ds", 1, PhantomSpec(side=16), master_seed=0)
    assert heap_calls == [1]


def test_generate_dataset_caps_the_arenas_before_its_pool_starts(tmp_path, monkeypatch):
    """A worker thread that allocated before the cap would keep an arena of its own."""
    order = []
    pool = synthgen.ThreadPoolExecutor
    monkeypatch.setattr(heap, "hold_freed_pages", lambda: order.append("hold") or True)
    monkeypatch.setattr(synthgen.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(synthgen, "ThreadPoolExecutor",
                        lambda *args, **kwargs: order.append("pool") or pool(*args, **kwargs))
    generate_dataset(tmp_path / "ds", 3, PhantomSpec(side=16), master_seed=0)
    assert order == ["hold", "pool"]


def _warm_faults(tmp_path, setup: str, call: str) -> int:
    """Minor page faults of a second `call` after a first, in a fresh
    interpreter: once any test here has set the thresholds they hold for the
    whole process, and a warm call there would fault nothing whether or not
    the function under test sets them.  `setup` and `call` see `out`, the
    test's directory."""
    if getattr(ctypes.CDLL(None), "mallopt", None) is None:
        pytest.skip("the C library has no glibc mallopt")
    code = ("import resource, sys\n"
            "from pathlib import Path\n"
            "out = Path(sys.argv[1])\n"
            f"{setup}\n"
            f"{call.format(run='warm')}\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            f"{call.format(run='run')}\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    src = str(Path(ace.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_warm_desk_steps_fault_no_heap_pages(tmp_path):
    """Without the thresholds glibc trims the freed top of the heap after
    each step and the next step faults it back in, about 1,250 pages.  The
    phantoms come from this process, since generating them sets the
    thresholds too."""
    overrides = ["phantom_count=8", "epochs=3", "warmup_epochs=0"]
    cfg = apply_overrides(RunConfig(), overrides)
    generate_dataset(tmp_path / "ds", cfg.phantom_count, cfg.phantom_spec(), master_seed=0)
    faults = _warm_faults(
        tmp_path,
        "import ace.trainer as tr\n"
        "from ace.config import RunConfig, apply_overrides\n"
        f"cfg = apply_overrides(RunConfig(), {overrides!r})",
        "tr.train_loop(cfg, out / 'ds' / 'manifest.tsv', out / '{run}')")
    assert faults / cfg.epochs < 64, faults


def test_warm_generation_faults_no_heap_pages(tmp_path):
    """Without the thresholds each 256 x 256 float64 temporary is a fresh mmap,
    about 1,200 faulted pages per phantom."""
    faults = _warm_faults(
        tmp_path,
        "from ace.config import RunConfig\n"
        "from ace.synthgen import generate_dataset",
        "generate_dataset(out / '{run}', 8, RunConfig().phantom_spec(), master_seed=0)")
    assert faults / 8 < 64, faults
