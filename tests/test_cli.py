"""CLI surface: subcommands, artifacts, exit codes."""

import re

import numpy as np
import pytest

import ace.tensor as tz
from ace.cli import main
from ace.config import RunConfig, apply_overrides
from ace.errors import ConfigError
from ace.model import load_state, read_blob_file, save_state, write_blob_file
from ace.synthgen import load_manifest
from ace.trainer import train_loop


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small dataset plus a short training run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    tiny = ["--set", "phantom_count=40", "--set", "grid_patches=4",
            "--set", "patch_pixels=16", "--set", "crop1_patches=2",
            "--set", "resize_side=16", "--set", "embed_dim=8",
            "--set", "encoder_depth=1", "--set", "encoder_hidden=16",
            "--set", "epochs=2", "--set", "warmup_epochs=1",
            "--set", "batch_size=8", "--set", "checkpoint_every=1"]
    assert main(["gen-data", "--out", str(root / "ds")] + tiny) == 0
    manifest = root / "ds" / "data" / "manifest.tsv"
    assert main(["pretrain", "--out", str(root / "run"),
                 "--manifest", str(manifest)] + tiny) == 0
    return root, manifest, tiny


def test_gen_data_artifacts(workspace):
    root, manifest, _ = workspace
    assert manifest.exists()
    assert (root / "ds" / "config.resolved").exists()
    phantoms = load_manifest(manifest)
    assert len(phantoms) == 40
    assert phantoms[0].image.shape == (64, 64)


def test_pretrain_artifacts(workspace):
    root, _, _ = workspace
    assert (root / "run" / "checkpoint.ace").exists()
    assert (root / "run" / "metrics.jsonl").exists()
    snapshot = (root / "run" / "config.resolved").read_text()
    assert "epochs = 2" in snapshot


def test_probe_commands_write_reports(workspace, tmp_path):
    root, manifest, tiny = workspace
    ckpt = str(root / "run" / "checkpoint.ace")
    for name, extra in [("retrieval", ["--batches", "1"]),
                        ("decompositionality", ["--batches", "1"]),
                        ("compositionality", ["--samples", "6"]),
                        ("symmetry", ["--samples", "4"]),
                        ("separability", ["--samples", "4"]),
                        ("correspondence", ["--keys", "1", "--window", "24",
                                            "--stride", "4"])]:
        out = tmp_path / name
        code = main(["probe", name, "--out", str(out), "--ckpt", ckpt,
                     "--manifest", str(manifest)] + tiny + extra)
        assert code == 0, name
        files = {p.name for p in out.iterdir()}
        assert any(f.endswith("_summary.csv") for f in files), name
        assert any(f.endswith("_samples.csv") for f in files), name
    assert (tmp_path / "separability" / "landmark_embeddings.csv").exists()


def test_gradcheck_command():
    assert main(["gradcheck", "--trials", "2"]) == 0


def test_gradcheck_catches_a_wrong_production_backward(capsys, monkeypatch):
    """The command runs the gate's case table, so a 1% error in the backward
    of a primitive that only training calls fails it, by name."""
    real = tz.layer_norm

    def skewed(*args):
        out = real(*args)
        tape = tz._active_tape()
        if out.requires_grad:
            node, parents, bw = tape._nodes[-1]
            tape._nodes[-1] = (node, parents, lambda g: bw(1.01 * g))
        return out

    monkeypatch.setattr(tz, "layer_norm", skewed)
    assert main(["gradcheck", "--trials", "1"]) == 1
    summary = capsys.readouterr().err.strip().splitlines()[-1]
    assert re.fullmatch(r"gradcheck: 1 trials, worst relative error \S+ "
                        r"\(layer_norm(_batch(_gain|_bias)?)?, seed 0\), FAIL", summary), summary


def test_gradcheck_catches_a_nan_production_backward(capsys, monkeypatch):
    """A backward that writes NaN fails the command, and the NaN stays the
    worst error over the later, finite cases."""
    real = tz.layer_norm

    def poisoned(*args):
        out = real(*args)
        tape = tz._active_tape()
        if out.requires_grad:
            node, parents, bw = tape._nodes[-1]
            tape._nodes[-1] = (node, parents, lambda g: bw(g * float("nan")))
        return out

    monkeypatch.setattr(tz, "layer_norm", poisoned)
    assert main(["gradcheck", "--trials", "1"]) == 1
    summary = capsys.readouterr().err.strip().splitlines()[-1]
    assert summary == "gradcheck: 1 trials, worst relative error nan (layer_norm, seed 0), FAIL"


def test_geom_verify_command(tmp_path, capsys):
    assert main(["geom-verify", "--out", str(tmp_path / "g"), "--samples", "50"]) == 0
    summary = capsys.readouterr().err.strip().splitlines()[-1]
    m = re.fullmatch(r"geom-verify: 50 pairs, 0 failures, ([0-9.]+) s, ([0-9]+) pairs/s",
                     summary)
    assert m, summary
    assert float(m.group(1)) > 0 and int(m.group(2)) > 0
    assert main(["geom-verify", "--out", str(tmp_path / "g"), "--samples", "20",
                 "--corrupt"]) == 0
    summary = capsys.readouterr().err.strip().splitlines()[-1]
    assert re.fullmatch(r"geom-verify: 20 pairs, [1-9][0-9]* failures, [0-9.]+ s, "
                        r"[0-9]+ pairs/s", summary), summary
    # seed 0's first pair has C1 at the grid's right edge: the corruption
    # shifts it left instead of leaving it whole
    assert main(["geom-verify", "--out", str(tmp_path / "g"), "--samples", "1",
                 "--seed", "0", "--corrupt"]) == 0
    summary = capsys.readouterr().err.strip().splitlines()[-1]
    assert summary.startswith("geom-verify: 1 pairs, 1 failures, "), summary


def test_domain_error_exit_code(tmp_path):
    code = main(["pretrain", "--out", str(tmp_path / "x"),
                 "--manifest", str(tmp_path / "missing.tsv")])
    assert code == 1


# retired keys: the grid fixes the C2 side and the phantom side; threads set nothing;
# gen-data draws phantoms at PhantomSpec's appearance defaults; centering always runs;
# alpha = 1 is the positive-only matching loss
_RETIRED = {"threads": 1, "crop2_patches": 16, "phantom_side": 256,
            "centering": True, "positive_only": False,
            "phantom_jitter": 0.04, "phantom_scale_jitter": 0.12, "phantom_noise": 0.02,
            "phantom_texture": 0.15, "phantom_bg_jitter": 0.05, "phantom_gain_jitter": 0.25,
            "phantom_field": 0.12, "phantom_weave": 0.0, "phantom_level_jitter": 0.25,
            "phantom_mosaic": 0.0, "phantom_mosaic_levels": 5, "phantom_mosaic_scale": 0.04}


def test_bad_config_key_exit_code(tmp_path, capsys):
    for key, value in {"nope": 1, **_RETIRED}.items():
        out = tmp_path / key
        code = main(["gen-data", "--out", str(out), "--set", f"{key}={value}"])
        assert code == 1
        assert capsys.readouterr().err.strip() == f"error: unknown config key {key!r}"
        assert not out.exists()


def test_checkpoint_with_retired_key_exit_code(workspace, tmp_path, capsys):
    root, manifest, tiny = workspace
    for key, value in _RETIRED.items():
        header, arrays = read_blob_file(root / "run" / "checkpoint.ace")
        header["extra"]["run_config"][key] = value
        ckpt = tmp_path / f"old-{key}.ace"
        write_blob_file(ckpt, header, arrays)
        code = main(["pretrain", "--out", str(tmp_path / "r"), "--manifest", str(manifest),
                     "--resume", str(ckpt)] + tiny)
        assert code == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and repr(key) in err
        # probes read the encoder config alone, so they still score the file
        assert main(["probe", "symmetry", "--out", str(tmp_path / "p"), "--ckpt", str(ckpt),
                     "--manifest", str(manifest), "--samples", "1"] + tiny) == 0


def test_pipeline_on_a_non_default_grid(tmp_path, capsys):
    """One config drives data, training and probes: the grid sets the
    phantom side and the C2 side, whatever grid it is."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid_patches = 4\npatch_pixels = 32\ncrop1_patches = 2\n"
                   "resize_side = 16\nembed_dim = 8\nencoder_depth = 1\n"
                   "encoder_hidden = 16\nphantom_count = 4\nbatch_size = 4\n"
                   "epochs = 1\nwarmup_epochs = 0\n")
    common = ["--config", str(cfg)]
    manifest = tmp_path / "ds" / "data" / "manifest.tsv"
    ckpt = tmp_path / "run" / "checkpoint.ace"
    assert main(["gen-data", "--out", str(tmp_path / "ds")] + common) == 0
    assert load_manifest(manifest)[0].image.shape == (128, 128)
    assert main(["pretrain", "--out", str(tmp_path / "run"), "--manifest", str(manifest)]
                + common) == 0, capsys.readouterr().err
    assert main(["probe", "compositionality", "--out", str(tmp_path / "p"), "--ckpt",
                 str(ckpt), "--manifest", str(manifest), "--samples", "2"] + common) == 0


@pytest.mark.parametrize("setting, named", [
    ("patch_pixels=0", "patch_pixels = 0: m must be positive, got 0"),
    ("grid_patches=8", "grid_patches = 8: G must be >= c2, got G=8, c2=16"),
    ("resize_side=60", "resize_side = 60: H0 (60) must be divisible by T (8)"),
    ("encoder_hidden=0", "encoder_hidden = 0: hidden must be at least 1, got 0")])
def test_component_error_names_the_key_before_writing(setting, named, tmp_path, capsys):
    """A value the grid or the encoder cannot be built from is refused by its
    config key before the output directory exists."""
    out = tmp_path / "o"
    assert main(["geom-verify", "--out", str(out), "--set", setting]) == 1
    assert capsys.readouterr().err.strip() == f"error: {named}"
    assert not out.exists()


def test_model_only_checkpoint(workspace, tmp_path, capsys):
    """A file `save_state` wrote without run state scores under `probe`, and
    a resume from it fails by naming the file and the missing key."""
    root, manifest, tiny = workspace
    state, _, _ = load_state(root / "run" / "checkpoint.ace")
    ckpt = tmp_path / "model.ace"
    save_state(ckpt, state)
    assert main(["probe", "symmetry", "--out", str(tmp_path / "p"), "--ckpt", str(ckpt),
                 "--manifest", str(manifest), "--samples", "1"] + tiny) == 0
    capsys.readouterr()
    code = main(["pretrain", "--out", str(tmp_path / "r"), "--manifest", str(manifest),
                 "--resume", str(ckpt)] + tiny)
    assert code == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err and "'run_config'" in err
    assert "Traceback" not in err


def test_checkpoint_with_corrupt_header_exit_code(workspace, tmp_path, capsys):
    root, manifest, tiny = workspace
    raw = bytearray((root / "run" / "checkpoint.ace").read_bytes())
    raw[16] = ord("#")  # first byte of the JSON header
    ckpt = tmp_path / "corrupt.ace"
    ckpt.write_bytes(bytes(raw))
    code = main(["probe", "symmetry", "--out", str(tmp_path / "p"), "--ckpt", str(ckpt),
                 "--manifest", str(manifest), "--samples", "1"] + tiny)
    assert code == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err and "corrupt header" in err
    assert "Traceback" not in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["probe", "unknown-probe", "--ckpt", "x", "--manifest", "y"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:  # the split is always 2x2
        main(["probe", "compositionality", "--ckpt", "x", "--manifest", "y", "--parts", "4"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["gradcheck", "--trials", "0"],
                                  ["geom-verify", "--samples", "0"],
                                  ["geom-verify", "--samples", "-5"],
                                  ["probe", "retrieval", "--batches", "0"],
                                  ["probe", "symmetry", "--samples", "0"],
                                  ["probe", "correspondence", "--keys", "0"],
                                  ["probe", "correspondence", "--queries", "-1"],
                                  ["probe", "correspondence", "--window", "0"],
                                  ["probe", "correspondence", "--stride", "0"]])
def test_self_check_of_nothing_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_seed_override_changes_run(workspace, tmp_path):
    root, manifest, tiny = workspace
    for seed, out in (("0", "s0"), ("1", "s1")):
        assert main(["pretrain", "--out", str(tmp_path / out), "--manifest",
                     str(manifest), "--seed", seed] + tiny) == 0
    m0 = (tmp_path / "s0" / "metrics.jsonl").read_bytes()
    m1 = (tmp_path / "s1" / "metrics.jsonl").read_bytes()
    assert m0 != m1


@pytest.mark.parametrize("setting", ["batch_size=0", "epochs=0", "checkpoint_every=0",
                                     "warmup_epochs=-1", "warmup_epochs=30", "warmup_epochs=40",
                                     "grad_clip_norm=0", "grad_clip_norm=-1",
                                     "tau_teacher=0", "tau_student=-1", "kernel_size=2",
                                     "kernel_size=0", "kernel_sigma=0", "alpha_comp=1.5",
                                     "alpha_decomp=-0.1", "base_lr=nan", "lambda_global=inf",
                                     "seed=-1", "phantom_count=0", "phantom_count=-5"])
def test_loop_shape_out_of_range_is_refused(setting, tmp_path, capsys):
    """A value that would crash the loop, skip the final checkpoint, flip
    the update, fail the first step, weigh the negatives below zero or
    generate no phantoms is refused by name before anything is written."""
    key, value = setting.split("=")
    # a bound set by another key names it and its value: `below epochs (30)`
    named = rf"{key} must be [a-z ]+([0-9]*|[a-z_]+ \(\d+\)), got {value}(\.0)?$"
    out, manifest = tmp_path / "run", tmp_path / "missing.tsv"
    assert main(["pretrain", "--out", str(out), "--manifest", str(manifest),
                 "--set", setting]) == 1
    err = capsys.readouterr().err.strip()
    assert re.fullmatch("error: " + named, err), err
    with pytest.raises(ConfigError, match=named):
        train_loop(apply_overrides(RunConfig(), [setting]), manifest, out)
    assert not out.exists()


@pytest.mark.parametrize("name", ["compositionality", "correspondence"])
def test_probe_on_a_header_only_manifest_names_the_file(name, workspace, tmp_path, capsys):
    root, manifest, tiny = workspace
    empty = tmp_path / "manifest.tsv"
    empty.write_text(manifest.read_text().splitlines()[0] + "\n")
    code = main(["probe", name, "--out", str(tmp_path / "p"),
                 "--ckpt", str(root / "run" / "checkpoint.ace"), "--manifest", str(empty)] + tiny)
    assert code == 1
    err = capsys.readouterr().err
    assert err.strip() == f"error: {empty}: no phantom records"
    assert "Traceback" not in err


def test_negative_seed_flag_is_refused(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pretrain", "--out", str(out), "--manifest", str(tmp_path / "missing.tsv"),
                 "--seed", "-1"]) == 1
    assert capsys.readouterr().err.strip() == "error: seed must be at least 0, got -1"
    assert not out.exists()


def test_negative_gradcheck_seed_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--seed", "-1", "--trials", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: must be at least 0, got -1" in err
    assert "Traceback" not in err


def test_resume_refuses_a_checkpoint_without_a_dtype(workspace, tmp_path, capsys):
    """A checkpoint from before float32 training has no 'dtype': `probe`
    still scores it, and a resume is refused by naming the file and the key."""
    root, manifest, tiny = workspace
    header, arrays = read_blob_file(root / "run" / "checkpoint.ace")
    del header["extra"]["dtype"]
    ckpt = tmp_path / "float64.ace"
    write_blob_file(ckpt, header, {k: a.astype(np.float64) for k, a in arrays.items()})
    assert main(["probe", "symmetry", "--out", str(tmp_path / "p"), "--ckpt", str(ckpt),
                 "--manifest", str(manifest), "--samples", "1"] + tiny) == 0
    capsys.readouterr()
    code = main(["pretrain", "--out", str(tmp_path / "r"), "--manifest", str(manifest),
                 "--resume", str(ckpt)] + tiny)
    assert code == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err and "no 'dtype'" in err and "bit for bit" in err
    assert "Traceback" not in err


# a checkpoint with one blob taken out or reshaped: the blob and the edit
_BAD_BLOB = {
    "missing": ("student.block0.mix.w", lambda arrays, name: arrays.pop(name)),
    "misshaped": ("student.embed.w", lambda arrays, name: arrays.update(
        {name: arrays[name][:-1]})),
    "teacher": ("teacher.comp.b2", lambda arrays, name: arrays.pop(name)),
    "center": ("center", lambda arrays, name: arrays.update({name: arrays[name][None]})),
    # a block the header's depth-1 config does not have
    "stray": ("student.block1.mix.w", lambda arrays, name: arrays.update(
        {name: arrays["student.block0.mix.w"]})),
}


@pytest.mark.parametrize("case", list(_BAD_BLOB))
def test_probe_names_a_missing_or_misshaped_parameter_blob(workspace, tmp_path, capsys, case):
    root, manifest, tiny = workspace
    header, arrays = read_blob_file(root / "run" / "checkpoint.ace")
    name, edit = _BAD_BLOB[case]
    edit(arrays, name)
    ckpt = tmp_path / "bad.ace"
    write_blob_file(ckpt, header, arrays)
    code = main(["probe", "symmetry", "--out", str(tmp_path / "p"), "--ckpt", str(ckpt),
                 "--manifest", str(manifest), "--samples", "1"] + tiny)
    assert code == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err and repr(name) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["missing", "misshaped"])
def test_resume_names_a_missing_or_misshaped_optimizer_blob(workspace, tmp_path, capsys, case):
    root, manifest, tiny = workspace
    header, arrays = read_blob_file(root / "run" / "checkpoint.ace")
    if case == "missing":
        arrays = {k: a for k, a in arrays.items() if not k.startswith("extra.opt.")}
        name = "opt.m.embed.w"
    else:
        name = "opt.v.block0.mix.w"
        arrays[f"extra.{name}"] = arrays[f"extra.{name}"].T[:1]
    ckpt = tmp_path / "bad.ace"
    write_blob_file(ckpt, header, arrays)
    code = main(["pretrain", "--out", str(tmp_path / "r"), "--manifest", str(manifest),
                 "--resume", str(ckpt)] + tiny)
    assert code == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err and repr(name) in err
    assert "Traceback" not in err
