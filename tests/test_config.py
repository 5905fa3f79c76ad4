"""Run configuration: defaults, parsing, overrides, snapshots."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import ace
from ace import config
from ace.config import RunConfig, apply_overrides, load_config, write_snapshot
from ace.errors import ConfigError
from ace.synthgen import PhantomSpec


def test_defaults_build_consistent_components():
    cfg = RunConfig()
    spec = cfg.grid_spec()
    assert (spec.G, spec.m, spec.c1, spec.c2, spec.H0) == (16, 16, 8, 16, 64)
    assert spec.side == cfg.phantom_spec().side == 256
    assert cfg.phantom_spec() == PhantomSpec(side=256)
    enc = cfg.encoder_config()
    assert (enc.K, enc.T, enc.H0, enc.depth) == (32, 8, 64, 2)
    assert cfg.base_lr == 5e-4
    assert cfg.weight_decay_start == 0.04 and cfg.weight_decay_end == 0.4
    assert cfg.grad_clip_norm == 0.8
    assert cfg.lambda_global == 0.1
    assert cfg.lambda_comp == 1.0 and cfg.lambda_decomp == 1.0
    assert cfg.epochs == 30 and cfg.batch_size == 8


def test_overrides_parse_types():
    cfg = apply_overrides(RunConfig(), ["epochs=5", "base_lr=1e-3",
                                       "kernel_size=5", "alpha_comp=1"])
    assert cfg.epochs == 5 and cfg.base_lr == 1e-3
    assert cfg.kernel_size == 5 and type(cfg.kernel_size) is int
    assert cfg.alpha_comp == 1.0 and type(cfg.alpha_comp) is float


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        apply_overrides(RunConfig(), ["learning_rate=1"])
    with pytest.raises(ConfigError):
        apply_overrides(RunConfig(), ["epochs"])
    with pytest.raises(ConfigError):
        apply_overrides(RunConfig(), ["epochs=three"])
    with pytest.raises(ConfigError):
        apply_overrides(RunConfig(), ["base_lr=fast"])


def test_config_file_with_comments(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# a comment\nepochs = 7\n\nseed = 11\n")
    cfg = load_config(p)
    assert cfg.epochs == 7 and cfg.seed == 11
    cfg = load_config(p, overrides=["seed=12"])
    assert cfg.seed == 12  # CLI overrides beat the file
    bad = tmp_path / "bad.cfg"
    for text, lineno, named in (("epochs 7\n", 1, "'epochs 7'"),
                                ("# retired\nthreads = 1\n", 2, "'threads'"),
                                ("crop2_patches = 16\n", 1, "'crop2_patches'"),
                                ("seed = 3\nphantom_side = 256\n", 2, "'phantom_side'"),
                                ("phantom_weave = 0.1\n", 1, "'phantom_weave'"),
                                ("\n\ncentering = on\n", 3, "'centering'"),
                                ("positive_only = off\n", 1, "'positive_only'"),
                                ("epochs = 7\nepochs = three\n", 2, "epochs"),
                                ("\n\nbase_lr = fast\n", 3, "base_lr")):
        bad.write_text(text)
        with pytest.raises(ConfigError) as exc:
            load_config(bad)
        assert str(exc.value).startswith(f"{bad}:{lineno}: "), str(exc.value)
        assert named in str(exc.value), str(exc.value)


def test_config_file_that_is_not_utf8_names_file_line_and_byte(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"seed = 3\nepochs = 4\xff\n")
    with pytest.raises(ConfigError) as exc:
        load_config(bad)
    assert str(exc.value) == f"{bad}:2: not UTF-8 at byte 19 (b'\\xff')"


def test_snapshot_roundtrip(tmp_path):
    cfg = apply_overrides(RunConfig(), ["epochs=9", "alpha_comp=1", "tau_student=0.2"])
    snap = tmp_path / "config.resolved"
    write_snapshot(cfg, snap)
    back = load_config(snap)
    assert back == cfg


def test_every_run_config_key_is_read():
    """A key no module reads is a dead knob: setting it changes nothing.  Its
    declaration is no read, and only a read through a `cfg` name (or through
    `self` inside config.py) counts: `p.image` of a phantom is not `image`."""
    read = set()
    for path in Path(ace.__file__).parent.glob("*.py"):
        owners = {"cfg", "self"} if path.name == "config.py" else {"cfg"}
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id in owners):
                read.add(node.attr)
    unread = [f.name for f in fields(RunConfig) if f.name not in read]
    assert not unread, f"RunConfig keys never read: {unread}"


def test_component_keys_match_the_builders():
    """A key a builder reads but `_COMPONENT_KEYS` misses would make a bad
    value's error name no key: each builder's `self.<key>` reads are its entry."""
    tree = ast.parse(Path(config.__file__).read_text(encoding="utf-8"))
    methods = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    entries = dict(config._COMPONENT_KEYS)
    for build in ("grid_spec", "encoder_config"):
        read = {node.attr for node in ast.walk(methods[build])
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "self"}
        assert read == set(entries[build]), build


def test_every_src_definition_is_called():
    """A top-level function or class that nothing in the package names is
    dead code, unless the package exports it."""
    defined, named = set(), set()
    for path in Path(ace.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # sibling modules bound by `from . import x [as y]`
        modules = {a.asname or a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   and node.module is None for a in node.names}
        for stmt in tree.body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in modules):
                    names.add(node.attr)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.name, stmt.name))
                names.discard(stmt.name)  # its own body does not count
            named |= names
    unused = sorted(f"{module}:{name}" for module, name in defined
                    if name not in named and name not in ace.__all__)
    assert not unused, f"definitions nothing calls: {unused}"


def test_no_unused_imports():
    """Every name an import binds in the package or the tests is used in its
    module; the package's `__init__` binds the names it exports."""
    unused = []
    for path in sorted([*Path(ace.__file__).parent.glob("*.py"),
                        *Path(__file__).parent.glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    bound[a.asname or a.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for a in node.names:
                    bound[a.asname or a.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= set(ace.__all__)
        unused += [f"{path.parent.name}/{path.name}:{line}: {name}"
                   for name, line in bound.items() if name not in used]
    assert not unused, f"imports nothing uses: {unused}"
