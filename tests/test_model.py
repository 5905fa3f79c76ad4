"""Encoder, heads, EMA schedule and checkpoint container."""

import json

import numpy as np
import pytest

import ace.model as model
import ace.tensor as tz
from ace.errors import FormatError, ParameterError, ShapeError
from ace.gradcases import weigh
from ace.model import EncoderConfig, encode, encode_batch, init
from ace.tensor import Tape, Tensor, backward


def test_config_validation():
    EncoderConfig(K=8, T=4, H0=16, depth=0)
    with pytest.raises(ParameterError):
        EncoderConfig(K=8, T=5, H0=20)  # odd T
    with pytest.raises(ParameterError):
        EncoderConfig(K=8, T=4, H0=18)  # H0 not divisible by T
    with pytest.raises(ParameterError):
        EncoderConfig(K=0, T=4, H0=16)
    with pytest.raises(ParameterError, match=r"^hidden must be at least 1, got -3$"):
        EncoderConfig(K=8, T=4, H0=16, hidden=-3)


def test_init_deterministic_and_teacher_copies(tiny_cfg):
    a = init(tiny_cfg, np.random.default_rng(0))
    b = init(tiny_cfg, np.random.default_rng(0))
    for name in a.student:
        assert np.array_equal(a.student[name].data, b.student[name].data)
        assert np.array_equal(a.student[name].data, a.teacher[name].data)
        assert a.teacher[name].data is not a.student[name].data
    assert np.all(a.center == 0)


def test_param_table_order_and_shapes():
    # the order fixes init's RNG draws and the checkpoint's blob order
    def block(b):
        return [(f"{b}.norm1.g", (32,)), (f"{b}.norm1.b", (32,)), (f"{b}.mix.w", (64, 64)),
                (f"{b}.norm2.g", (32,)), (f"{b}.norm2.b", (32,)), (f"{b}.mlp.w1", (32, 64)),
                (f"{b}.mlp.b1", (64,)), (f"{b}.mlp.w2", (64, 32)), (f"{b}.mlp.b2", (32,))]

    assert list(model._param_shapes(EncoderConfig()).items()) == [
        ("embed.w", (64, 32)), ("embed.b", (32,)), *block("block0"), *block("block1"),
        ("comp.w1", (128, 128)), ("comp.b1", (128,)), ("comp.w2", (128, 32)),
        ("comp.b2", (32,)),
        ("decomp.w1", (32, 128)), ("decomp.b1", (128,)), ("decomp.w2", (128, 128)),
        ("decomp.b2", (128,)),
        ("ghead.w1", (32, 64)), ("ghead.b1", (64,)), ("ghead.w2", (64, 32)),
        ("ghead.b2", (32,))]


def test_encode_token_map_shape(tiny_state):
    cfg = tiny_state.config
    img = np.random.default_rng(1).random((cfg.H0, cfg.H0))
    out = encode(cfg, tiny_state.student, img)
    assert out.data.shape == (cfg.n_tokens, cfg.K)
    with pytest.raises(ShapeError):
        encode(cfg, tiny_state.student, img[:8, :8])


def test_encode_batch_matches_encode(tiny_state):
    cfg = tiny_state.config
    rng = np.random.default_rng(2)
    imgs = rng.random((3, cfg.H0, cfg.H0))
    batched = encode_batch(cfg, tiny_state.student, imgs)
    taped = encode(cfg, tiny_state.student, imgs).data
    singles = np.stack([encode(cfg, tiny_state.student, img).data for img in imgs])
    assert batched.shape == (3, cfg.n_tokens, cfg.K)
    assert np.array_equal(batched, taped)
    assert np.allclose(taped, singles, rtol=0, atol=1e-12)


def test_depth_zero_is_linear_embed(tiny_cfg):
    cfg = EncoderConfig(K=8, T=4, H0=16, depth=0)
    state = init(cfg, np.random.default_rng(0))
    img = np.random.default_rng(1).random((16, 16))
    out = encode(cfg, state.student, img)
    patches = img.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)
    expect = patches @ state.student["embed.w"].data + state.student["embed.b"].data
    assert np.allclose(out.data, expect)


def test_patch_order_is_row_major(tiny_cfg):
    cfg = EncoderConfig(K=1, T=4, H0=8, depth=0)
    state = init(cfg, np.random.default_rng(0))
    # embedding that sums the patch makes token i the sum of patch i
    state.student["embed.w"].data[:] = 1.0
    state.student["embed.b"].data[:] = 0.0
    img = np.arange(64, dtype=float).reshape(8, 8)
    out = encode(cfg, state.student, img).data.reshape(4, 4)
    for r in range(4):
        for c in range(4):
            assert out[r, c] == img[2 * r:2 * r + 2, 2 * c:2 * c + 2].sum()


def _labelled_heads(t, monkeypatch):
    """Index-labelled tokens through heads whose MLPs are made known affine
    maps show where the 2x2 regroup sends each row: token i holds i, and chunk
    j of decomposed token i holds 4i + j. Returns the outputs for one map and
    for a batch of two."""
    monkeypatch.setattr(tz, "linear", lambda x, w, b: Tensor(x.data @ w + b))
    monkeypatch.setattr(tz, "silu", lambda x: x)
    n, eye, zero = t * t, np.eye(4), np.zeros(4)
    labels = np.arange(n, dtype=float)[:, None]  # K = 1
    comp_params = {"comp.w1": eye, "comp.b1": zero, "comp.w2": eye, "comp.b2": zero}
    dec_params = {"decomp.w1": np.full((1, 4), 4.0), "decomp.b1": np.arange(4.0),
                  "decomp.w2": eye, "decomp.b2": zero}
    batch = Tensor(np.stack([labels, labels + n]))
    return ((model.compose_head(comp_params, Tensor(labels)).data,
             model.compose_head(comp_params, batch).data),
            (model.decompose_head(dec_params, Tensor(labels)).data,
             model.decompose_head(dec_params, batch).data))


def test_compose_gather_against_reference(monkeypatch):
    for t in (4, 8, 14):
        (comp, comp_batch), _ = _labelled_heads(t, monkeypatch)
        n = t * t
        assert comp.shape == (n // 4, 4)
        # independent reference: composed cell (br, bc) concatenates the
        # tokens of its 2x2 footprint
        for block in range(n // 4):
            br, bc = divmod(block, t // 2)
            expect = [2 * br * t + 2 * bc, 2 * br * t + 2 * bc + 1,
                      (2 * br + 1) * t + 2 * bc, (2 * br + 1) * t + 2 * bc + 1]
            assert list(comp[block]) == expect
        # a leading batch axis passes through
        assert np.array_equal(comp_batch, [comp, comp + n])


def test_decompose_scatter_against_reference(monkeypatch):
    for t in (4, 8, 14):
        _, (dec, dec_batch) = _labelled_heads(t, monkeypatch)
        n = t * t
        assert dec.shape == (4 * n, 1)
        # sub-token (rr, cc) of the 2T x 2T grid is chunk (rr % 2, cc % 2) of
        # token (rr // 2, cc // 2)
        for rr in range(2 * t):
            for cc in range(2 * t):
                src_token = (rr // 2) * t + (cc // 2)
                sub = (rr % 2) * 2 + (cc % 2)
                assert dec[rr * 2 * t + cc, 0] == 4 * src_token + sub
        assert np.array_equal(dec_batch, [dec, dec + 4 * n])


def test_ungroup_blocks_inverts_group_blocks():
    """On the 2T x 2T sub-cell grid, ungroup_blocks undoes group_blocks
    exactly, batched too, and group_blocks undoes ungroup_blocks."""
    rng = np.random.default_rng(4)
    for t in (4, 8, 14):
        cells = rng.normal(size=(2, 4 * t * t, 3))
        grouped = model.group_blocks(Tensor(cells))
        assert grouped.data.shape == (2, t * t, 12)
        assert np.array_equal(model.ungroup_blocks(grouped).data, cells)
        tokens = rng.normal(size=(t * t, 12))
        assert np.array_equal(
            model.group_blocks(model.ungroup_blocks(Tensor(tokens))).data, tokens)
    with pytest.raises(ShapeError, match="group_blocks"):
        model.group_blocks(Tensor(np.zeros((9, 1))))
    with pytest.raises(ShapeError, match="ungroup_blocks"):
        model.ungroup_blocks(Tensor(np.zeros((8, 4))))


def test_head_shapes_and_grad_flow(tiny_state):
    cfg = tiny_state.config
    n, k = cfg.n_tokens, cfg.K
    img = np.random.default_rng(0).random((cfg.H0, cfg.H0))
    with Tape():
        tokens = encode(cfg, tiny_state.student, img)
        comp = model.compose_head(tiny_state.student, tokens)
        dec = model.decompose_head(tiny_state.student, tokens)
        assert comp.data.shape == (n // 4, k)
        assert dec.data.shape == (4 * n, k)
        rng = np.random.default_rng(1)
        loss = tz.add(weigh(comp, rng.normal(size=comp.size)),
                      weigh(dec, rng.normal(size=dec.size)))
        backward(loss)
    assert tiny_state.student["comp.w1"].grad is not None
    assert tiny_state.student["decomp.w2"].grad is not None
    assert tiny_state.student["embed.w"].grad is not None


def test_teacher_gets_no_gradients(tiny_state):
    cfg = tiny_state.config
    img = np.random.default_rng(0).random((cfg.H0, cfg.H0))
    t_out = encode_batch(cfg, tiny_state.teacher, img)[0]
    with Tape() as tape:
        s_out = encode(cfg, tiny_state.student, img)
        z = tz.matmul(Tensor(t_out), tz.swapaxes(s_out, 0, 1))
        backward(weigh(z, np.ones(z.size)))
    assert len(tape) == 0
    assert tiny_state.student["embed.w"].grad is not None


def test_ema_lambda_endpoints():
    assert model.ema_lambda(0, 1000) == pytest.approx(0.996, abs=0)
    assert model.ema_lambda(1000, 1000) == pytest.approx(1.0, abs=0)
    assert model.ema_lambda(500, 1000) == pytest.approx(0.998, abs=1e-15)
    with pytest.raises(ParameterError):
        model.ema_lambda(-1, 1000)
    with pytest.raises(ParameterError):
        model.ema_lambda(0, 0)


def test_ema_update_convex_combination(tiny_state):
    before = {n: t.data.copy() for n, t in tiny_state.teacher.items()}
    for t in tiny_state.student.values():
        t.data += 1.0
    model.ema_update(tiny_state, 0.75)
    for name, t in tiny_state.teacher.items():
        expect = 0.75 * before[name] + 0.25 * tiny_state.student[name].data
        assert np.allclose(t.data, expect, atol=1e-15)
    # rate 1 freezes the teacher
    frozen = {n: t.data.copy() for n, t in tiny_state.teacher.items()}
    model.ema_update(tiny_state, 1.0)
    for name, t in tiny_state.teacher.items():
        assert np.array_equal(t.data, frozen[name])
    with pytest.raises(ParameterError):
        model.ema_update(tiny_state, 1.5)


def test_checkpoint_roundtrip_bit_exact(tiny_state, tmp_path):
    tiny_state.center[:] = np.random.default_rng(4).normal(size=tiny_state.config.K)
    tiny_state.step = 17
    path = tmp_path / "state.ace"
    model.save_state(path, tiny_state, extra={"note": "x"},
                     extra_arrays={"aux": np.arange(3.0)})
    loaded, extra, extra_arrays = model.load_state(path)
    assert loaded.config == tiny_state.config
    assert loaded.step == 17
    assert extra == {"note": "x"}
    assert np.array_equal(extra_arrays["aux"], np.arange(3.0))
    assert np.array_equal(loaded.center, tiny_state.center)
    for name in tiny_state.student:
        assert np.array_equal(loaded.student[name].data, tiny_state.student[name].data)
        assert np.array_equal(loaded.teacher[name].data, tiny_state.teacher[name].data)
        assert loaded.student[name].requires_grad
        assert loaded.student[name].data.dtype == np.float32


def test_float64_checkpoint_loads_rounded_to_float32(tiny_state, tmp_path):
    """A checkpoint of an earlier float64 run still loads: every array comes
    back in float32, rounded to nearest."""
    rng = np.random.default_rng(5)
    for t in [*tiny_state.student.values(), *tiny_state.teacher.values()]:
        t.data = rng.normal(size=t.data.shape)
    tiny_state.center = rng.normal(size=tiny_state.config.K)
    path = tmp_path / "float64.ace"
    model.save_state(path, tiny_state, extra_arrays={"aux": np.full(3, 0.1)})
    loaded, _, extra_arrays = model.load_state(path)
    pairs = [(loaded.center, tiny_state.center), (extra_arrays["aux"], np.full(3, 0.1))]
    for name in tiny_state.student:
        pairs.append((loaded.student[name].data, tiny_state.student[name].data))
        pairs.append((loaded.teacher[name].data, tiny_state.teacher[name].data))
    for got, saved in pairs:
        assert got.dtype == np.float32
        assert np.array_equal(got, saved.astype(np.float32))


def test_checkpoint_rejects_corruption(tiny_state, tmp_path):
    path = tmp_path / "state.ace"
    model.save_state(path, tiny_state)
    raw = path.read_bytes()
    bad = tmp_path / "bad.ace"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FormatError):
        model.load_state(bad)
    trunc = tmp_path / "trunc.ace"
    trunc.write_bytes(raw[:len(raw) - 100])
    with pytest.raises(FormatError):
        model.load_state(trunc)


def _header_bounds(raw: bytes) -> tuple[int, int]:
    # magic (4 bytes), then version and header length as "<IQ"
    hlen = int.from_bytes(raw[8:16], "little")
    return 16, 16 + hlen


# a header that lacks a key or holds a value of the wrong type: what the error
# names, and the edit (blob 0 is the center)
_BAD_KEY = {
    "no_shape": ("'shape'", lambda h: h["blobs"][0].pop("shape")),
    "no_config": ("'config'", lambda h: h.pop("config")),
    "no_center": ("'center'", lambda h: h["blobs"].pop(0)),
    "shape_str": ("blob 'center' has shape ['a']", lambda h: h["blobs"][0].update(shape=["a"])),
    "shape_int": ("blob 'center' has 'shape' = 5", lambda h: h["blobs"][0].update(shape=5)),
    "shape_negative": ("blob 'center' has shape [-1, 2]",
                       lambda h: h["blobs"][0].update(shape=[-1, 2])),
    "shape_float": ("blob 'center' has shape [2.5]",
                    lambda h: h["blobs"][0].update(shape=[2.5])),
    "shape_bool": ("blob 'center' has shape [True]",
                   lambda h: h["blobs"][0].update(shape=[True])),
    "step_str": ("'step' = 'x'", lambda h: h.update(step="x")),
    "config_str": ("EncoderConfig has 'K' = '4'", lambda h: h["config"].update(K="4")),
    "config_refused": ("K must be at least 1, got 0", lambda h: h["config"].update(K=0)),
    "config_list": ("'config' = []", lambda h: h.update(config=[])),
}


@pytest.mark.parametrize("case", ["json", "utf8", "not_dict", "no_blobs", *_BAD_KEY])
def test_checkpoint_with_corrupt_header_names_file(tiny_state, tmp_path, case):
    path = tmp_path / "state.ace"
    model.save_state(path, tiny_state)
    raw = path.read_bytes()
    lo, hi = _header_bounds(raw)
    if case == "json":
        head = b"#" + raw[lo + 1:hi]
    elif case == "utf8":
        head = b"\xff" + raw[lo + 1:hi]
    elif case in _BAD_KEY:
        doc = json.loads(raw[lo:hi])
        _BAD_KEY[case][1](doc)
        head = json.dumps(doc).encode()
    else:
        doc = [] if case == "not_dict" else {"config": {}, "step": 0}
        head = json.dumps(doc).encode()
    # the header length, then the edited header and the blobs as they were
    path.write_bytes(raw[:8] + len(head).to_bytes(8, "little") + head + raw[hi:])
    with pytest.raises(FormatError) as exc:
        model.load_state(path)
    assert str(path) in str(exc.value)
    if case in _BAD_KEY:
        assert _BAD_KEY[case][0] in str(exc.value), str(exc.value)


def test_checkpoint_names_unknown_config_keys(tiny_state, tmp_path):
    path = tmp_path / "state.ace"
    model.save_state(path, tiny_state)
    header, arrays = model.read_blob_file(path)
    header["config"].update(seed=0, width=3)
    model.write_blob_file(path, header, arrays)
    with pytest.raises(FormatError) as exc:
        model.load_state(path)
    assert str(path) in str(exc.value)
    assert "'seed'" in str(exc.value) and "'width'" in str(exc.value)


def test_failed_save_keeps_previous_checkpoint(tiny_state, tmp_path, monkeypatch):
    path = tmp_path / "state.ace"
    model.save_state(path, tiny_state)
    before = path.read_bytes()
    kept = {name: t.data.copy() for name, t in tiny_state.student.items()}

    real = np.ascontiguousarray
    calls = []

    def fail_on_third_blob(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise OSError("disk full")
        return real(*args, **kwargs)

    for t in tiny_state.student.values():
        t.data += 1.0
    tiny_state.step = 9
    monkeypatch.setattr(model.np, "ascontiguousarray", fail_on_third_blob)
    with pytest.raises(OSError, match="disk full"):
        model.save_state(path, tiny_state)
    monkeypatch.undo()
    assert sorted(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == before
    loaded, _, _ = model.load_state(path)
    assert loaded.step == 0
    for name, data in kept.items():
        assert np.array_equal(loaded.student[name].data, data)
