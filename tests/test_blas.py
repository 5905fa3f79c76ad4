"""The one-thread OpenBLAS pin around the training loop."""

import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import ace
import ace.model as model
import ace.trainer as tr
from ace import blas, probes
from ace.config import RunConfig, apply_overrides
from ace.errors import AceError
from ace.synthgen import build_manifest, generate, generate_dataset


@pytest.fixture
def fresh_lookup(monkeypatch):
    """Forget the cached library lookup before and after the test."""
    blas.thread_functions.cache_clear()
    yield monkeypatch
    blas.thread_functions.cache_clear()


@pytest.fixture
def openblas():
    """(get, set) of numpy's OpenBLAS, set to 2 threads for the test."""
    funcs = blas.thread_functions()
    if funcs is None:
        pytest.skip("numpy's BLAS is not a findable OpenBLAS")
    get, set_ = funcs
    before = get()
    set_(2)
    yield get, set_
    set_(before)


def _tiny(tmp_path):
    cfg = apply_overrides(RunConfig(), [f"{k}={v}" for k, v in {
        "phantom_count": 4, "grid_patches": 4, "patch_pixels": 16, "crop1_patches": 2,
        "resize_side": 16, "embed_dim": 8, "encoder_depth": 1, "encoder_hidden": 16,
        "epochs": 1, "warmup_epochs": 0, "batch_size": 2}.items()])
    spec = cfg.phantom_spec()
    phantoms = [generate(np.random.default_rng(i), spec, instance_id=f"p{i}", seed=i)
                for i in range(cfg.phantom_count)]
    return cfg, build_manifest(tmp_path / "data", phantoms)


def test_desk_step_bits_do_not_depend_on_blas_threads(tmp_path):
    # one desk-default step crosses OpenBLAS's threading size in the decompose
    # head and the z_dec logits; the stream and the checkpoint must not change
    # with the count
    cfg = apply_overrides(RunConfig(), ["phantom_count=8", "epochs=1", "warmup_epochs=0"])
    manifest = generate_dataset(tmp_path / "ds", cfg.phantom_count, cfg.phantom_spec(),
                                master_seed=0)
    code = ("import sys\n"
            "from ace import blas\n"
            "from ace.config import RunConfig, apply_overrides\n"
            "from ace.trainer import train_loop\n"
            "assert blas.thread_functions.cache_info().currsize == 0, 'looked up at import'\n"
            "cfg = apply_overrides(RunConfig(), sys.argv[3:])\n"
            "train_loop(cfg, sys.argv[1], sys.argv[2])\n")
    src = str(Path(ace.__file__).resolve().parents[1])
    streams = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"run{threads}"
        proc = subprocess.run([sys.executable, "-c", code, str(manifest), str(out),
                               "phantom_count=8", "epochs=1", "warmup_epochs=0"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        streams.append(((out / tr.METRICS_NAME).read_bytes(),
                        (out / tr.CHECKPOINT_NAME).read_bytes()))
    assert streams[0][0] == streams[1][0]
    assert streams[0][1] == streams[1][1]


def test_train_loop_runs_on_one_thread_and_restores_the_count(tmp_path, monkeypatch,
                                                               openblas):
    get, _ = openblas
    cfg, manifest = _tiny(tmp_path)
    seen = []
    real_step = tr.train_step

    def spy(*args, **kwargs):
        seen.append(get())
        return real_step(*args, **kwargs)

    monkeypatch.setattr(tr, "train_step", spy)
    tr.train_loop(cfg, manifest, tmp_path / "run")
    assert seen and set(seen) == {1}
    assert get() == 2


def test_thread_count_restored_when_a_step_raises(tmp_path, monkeypatch, openblas):
    get, _ = openblas
    cfg, manifest = _tiny(tmp_path)

    def failing_step(*args, **kwargs):
        assert get() == 1
        raise AceError("step failed")

    monkeypatch.setattr(tr, "train_step", failing_step)
    with pytest.raises(AceError, match="step failed"):
        tr.train_loop(cfg, manifest, tmp_path / "run")
    assert get() == 2


def test_without_openblas_train_loop_runs_unpinned(tmp_path, fresh_lookup):
    cfg, manifest = _tiny(tmp_path)
    pinned = tr.train_loop(cfg, manifest, tmp_path / "pinned")
    pinned_threads = blas.pinned_threads()
    fresh_lookup.setattr(blas, "_openblas_paths", lambda: [])
    blas.thread_functions.cache_clear()
    assert blas.thread_functions() is None
    with blas.one_thread():
        pass
    plain = tr.train_loop(cfg, manifest, tmp_path / "plain")
    assert ((tmp_path / "plain" / tr.METRICS_NAME).read_bytes()
            == (tmp_path / "pinned" / tr.METRICS_NAME).read_bytes())
    assert model.load_state(plain)[1]["blas_threads"] is None
    assert model.load_state(pinned)[1]["blas_threads"] == pinned_threads


def test_lookup_falls_back_to_system_symbol_names(fresh_lookup):
    count = [4]

    def get():
        return count[0]

    def set_(n):
        count[0] = n

    system_lib = types.SimpleNamespace(openblas_get_num_threads=get,
                                       openblas_set_num_threads=set_)
    fresh_lookup.setattr(blas, "_openblas_paths", lambda: ["/usr/lib/libopenblas.so.0"])
    fresh_lookup.setattr(blas.ctypes, "CDLL", lambda path: system_lib)
    with blas.one_thread():
        assert count == [1]
    assert count == [4]
    assert blas.pinned_threads() == 1


def test_lookup_is_cached(fresh_lookup):
    calls = []
    real_paths = blas._openblas_paths
    fresh_lookup.setattr(blas, "_openblas_paths", lambda: calls.append(1) or real_paths())
    first = blas.thread_functions()
    assert blas.thread_functions() is first
    assert calls == [1]


def test_embed_crops_runs_on_one_thread_and_restores_the_count(monkeypatch, openblas,
                                                               tiny_state):
    get, _ = openblas
    seen = []
    real_encode = probes.encode_batch

    def spy(*args, **kwargs):
        seen.append(get())
        return real_encode(*args, **kwargs)

    monkeypatch.setattr(probes, "encode_batch", spy)
    feats = probes.embed_crops(tiny_state, [np.zeros((24, 24)), np.ones((16, 16))])
    assert feats.shape == (2, tiny_state.config.K)
    assert seen == [1]
    assert get() == 2
