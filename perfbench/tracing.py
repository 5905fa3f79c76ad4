"""Outside-in spans around the package's public functions.

A :class:`Tracer` rebinds module and class attributes (for example
``probes.encode_batch`` or ``trainer.AdamW.step``) to wrappers that record
one span per call: name, start, end, parent span and the id of the
enclosing operation (a train step or a probe call).  Spans stay in memory
until the run ends.  Nothing in the package is modified on disk, and
:meth:`Tracer.uninstall` restores every original attribute.

Only attribute lookups made at call time see a wrapper, so a function that
another module imported by name is wrapped on that module too (``trainer``
imports ``load_manifest``; ``probes`` imports ``encode_batch`` and
``resize``; ``pixelcheck`` imports ``sample_crop_pair``).
"""

from __future__ import annotations

import functools
import json
import os
import statistics
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

from workloads import PAPER, PROBES


@dataclass
class Span:
    sid: int
    parent: int  # -1 for a root span
    name: str
    op: str  # enclosing train step or probe call, "" outside any
    start: float
    end: float = 0.0
    n: int = 0  # work count: crops, bytes
    tag: str = ""  # scale or cache key

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.tape_nodes = 0
        self._stack: list[Span] = []
        self._patches = []  # (owner, attribute, original, wrapper)
        self._op_serial = defaultdict(int)

    def wrap(self, owner, attr: str, name: str, op_root: bool = False,
             count=None, tag=None) -> None:
        """Record a span for each call of ``owner.attr``.

        ``op_root`` starts a new operation id; ``count(args, result)`` and
        ``tag(args)`` annotate the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            if op_root:
                tracer._op_serial[name] += 1
                op = f"{name}#{tracer._op_serial[name]}"
            else:
                op = parent.op if parent else ""
            span = Span(len(tracer.spans), parent.sid if parent else -1, name, op,
                        perf_counter())
            if tag is not None:
                span.tag = tag(args)
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            if count is not None:
                span.n = count(args, result)
            return result

        self._patches.append((owner, attr, original, wrapper))

    def count_calls(self, owner, attr: str) -> None:
        """Count calls of ``owner.attr`` into ``tape_nodes`` without a span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.tape_nodes += 1
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def self_seconds(self) -> dict[int, float]:
        """Span duration minus the time its direct children cover."""
        own = {s.sid: s.seconds for s in self.spans}
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own

    def write(self, directory: Path, traced_wall_s: float) -> None:
        """spans.jsonl plus layers.tsv, a per-name self-time table."""
        directory.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0].start if self.spans else 0.0
        with open(directory / "spans.jsonl", "w", encoding="utf-8") as f:
            for s in self.spans:
                rec = asdict(s)
                rec["start"] = round(s.start - t0, 9)
                rec["end"] = round(s.end - t0, 9)
                f.write(json.dumps(rec) + "\n")
        own = self.self_seconds()
        rows = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            row = rows[s.name]
            row[0] += 1
            row[1] += s.seconds
            row[2] += own[s.sid]
        lines = ["layer\tcalls\ttotal_ms\tself_ms\tself_share"]
        for name, (calls, total, self_s) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
            share = self_s / traced_wall_s if traced_wall_s > 0 else 0.0
            lines.append(f"{name}\t{calls}\t{total * 1e3:.3f}\t{self_s * 1e3:.3f}\t{share:.4f}")
        (directory / "layers.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def instrument(tracer: Tracer) -> None:
    """Wrap every public function the per-layer metrics read."""
    from ace import cropgrid, model, objective, pixelcheck, probes, synthgen, tensor, trainer

    def file_bytes(args, _result):
        return os.path.getsize(args[0])

    def n_images(args, _result):
        images = args[2]
        return images.shape[0] if images.ndim == 3 else 1

    def target_key(args):
        pair, _spec, role = args[:3]
        ox = (pair.anchor1[0] - pair.anchor2[0]) // 2
        oy = (pair.anchor1[1] - pair.anchor2[1]) // 2
        return f"{role}:{ox}:{oy}"

    w = tracer.wrap
    w(tensor, "backward", "tensor.backward")
    tracer.count_calls(tensor.Tape, "record")
    for fn in ("encode", "compose_head", "decompose_head", "global_head", "ema_update"):
        w(model, fn, f"model.{fn}")
    w(model, "encode_batch", "model.encode_batch", count=n_images)
    w(probes, "encode_batch", "model.encode_batch", count=n_images)
    # the target kernel is fixed per run, so role and crop offset identify a target
    w(objective, "build_target", "objective.build_target", tag=target_key)
    w(objective, "matching_loss_logits", "objective.matching_loss_logits")
    w(objective, "global_loss", "objective.global_loss")
    w(cropgrid, "sample_crop_pair", "cropgrid.sample_crop_pair")
    w(pixelcheck, "sample_crop_pair", "cropgrid.sample_crop_pair")
    w(cropgrid, "extract_and_resize", "cropgrid.extract_and_resize")
    w(probes, "resize", "cropgrid.resize")
    w(trainer, "train_step", "trainer.train_step", op_root=True)
    for fn in ("augment", "clip_gradients"):
        w(trainer, fn, f"trainer.{fn}")
    w(trainer.AdamW, "step", "trainer.AdamW.step")
    w(trainer, "save_checkpoint", "trainer.save_checkpoint", count=file_bytes)
    for fn in PROBES:
        w(probes, fn, f"probes.{fn}", op_root=True)
    w(probes, "embed_crops", "probes.embed_crops", count=lambda args, _r: len(args[1]))
    w(synthgen, "generate", "synthgen.generate")
    w(synthgen, "write_image", "synthgen.write_image", count=file_bytes)
    w(synthgen, "read_image", "synthgen.read_image")
    w(synthgen, "load_manifest", "synthgen.load_manifest")
    w(trainer, "load_manifest", "synthgen.load_manifest")
    w(pixelcheck, "check_pair", "pixelcheck.check_pair",
      tag=lambda args: "paper" if args[0] == PAPER else "desk")


# (name, unit) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = [
    ("tensor.backward.ms_per_step", "ms"),
    ("tensor.tape_nodes_per_step", "count"),
    ("model.encode.ms_per_step", "ms"),
    ("model.encode_batch.ms_per_step", "ms"),
    ("model.encode_batch.crops_per_s", "1/s"),
    ("model.compose_head.ms_per_step", "ms"),
    ("model.decompose_head.ms_per_step", "ms"),
    ("model.global_head.ms_per_step", "ms"),
    ("model.ema_update.ms_per_step", "ms"),
    ("objective.build_target.ms_per_step", "ms"),
    ("objective.build_target.repeat_share", "ratio"),
    ("objective.matching_loss_logits.ms_per_step", "ms"),
    ("objective.global_loss.ms_per_step", "ms"),
    ("cropgrid.sample_crop_pair.us_per_call", "us"),
    ("cropgrid.extract_and_resize.ms_per_step", "ms"),
    ("cropgrid.resize.ms_per_call", "ms"),
    ("trainer.train_step.ms.p50", "ms"),
    ("trainer.train_step.ms.p90", "ms"),
    ("trainer.train_step.self_ms", "ms"),
    ("trainer.augment.ms_per_step", "ms"),
    ("trainer.clip_gradients.ms_per_step", "ms"),
    ("trainer.AdamW.step.ms_per_step", "ms"),
    ("trainer.save_checkpoint.ms", "ms"),
    ("trainer.save_checkpoint.bytes", "bytes"),
    ("probes.embed_crops.crops", "count"),
    ("probes.embed_crops.self_ms_per_crop", "ms"),
    *[(f"probes.{fn}.s", "s") for fn in PROBES],
    ("synthgen.generate.ms_per_phantom", "ms"),
    ("synthgen.write_image.ms_per_phantom", "ms"),
    ("synthgen.write_image.bytes", "bytes"),
    ("synthgen.read_image.ms_per_phantom", "ms"),
    ("synthgen.load_manifest.s", "s"),
    ("pixelcheck.check_pair.paper.us_per_pair", "us"),
    ("pixelcheck.check_pair.desk.us_per_pair", "us"),
    ("trace.overhead_share", "ratio"),
]


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10)[-1]


def layer_metrics(tracer: Tracer, overhead_share: float, rounds: int) -> dict[str, float]:
    """Per-layer values from the recorded spans; 0 where a layer never ran.

    ``rounds`` is the number of traced rounds of the workload's operations.
    """
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
    own = tracer.self_seconds()
    steps = len(by_name["trainer.train_step"])

    def total_s(name, spans=None):
        return sum(s.seconds for s in (by_name[name] if spans is None else spans))

    def per_step_ms(name):
        return total_s(name) * 1e3 / steps if steps else 0.0

    def mean_ms(name, spans=None):
        spans = by_name[name] if spans is None else spans
        return total_s(name, spans) * 1e3 / len(spans) if spans else 0.0

    out = {
        "tensor.backward.ms_per_step": per_step_ms("tensor.backward"),
        "tensor.tape_nodes_per_step": tracer.tape_nodes / steps if steps else 0.0,
    }
    for fn in ("encode", "encode_batch", "compose_head", "decompose_head", "global_head",
               "ema_update"):
        out[f"model.{fn}.ms_per_step"] = per_step_ms(f"model.{fn}")
    enc = by_name["model.encode_batch"]
    out["model.encode_batch.crops_per_s"] = (
        sum(s.n for s in enc) / total_s("model.encode_batch") if enc else 0.0)

    targets = by_name["objective.build_target"]
    out["objective.build_target.ms_per_step"] = per_step_ms("objective.build_target")
    out["objective.build_target.repeat_share"] = (
        1.0 - len({s.tag for s in targets}) / len(targets) if targets else 0.0)
    for fn in ("matching_loss_logits", "global_loss"):
        out[f"objective.{fn}.ms_per_step"] = per_step_ms(f"objective.{fn}")

    out["cropgrid.sample_crop_pair.us_per_call"] = mean_ms("cropgrid.sample_crop_pair") * 1e3
    out["cropgrid.extract_and_resize.ms_per_step"] = per_step_ms("cropgrid.extract_and_resize")
    out["cropgrid.resize.ms_per_call"] = mean_ms("cropgrid.resize")

    step_ms = [s.seconds * 1e3 for s in by_name["trainer.train_step"]]
    out["trainer.train_step.ms.p50"] = _median(step_ms)
    out["trainer.train_step.ms.p90"] = _p90(step_ms)
    out["trainer.train_step.self_ms"] = _mean(
        [own[s.sid] * 1e3 for s in by_name["trainer.train_step"]])
    for fn in ("augment", "clip_gradients", "AdamW.step"):
        out[f"trainer.{fn}.ms_per_step"] = per_step_ms(f"trainer.{fn}")
    ckpt = by_name["trainer.save_checkpoint"]
    out["trainer.save_checkpoint.ms"] = mean_ms("trainer.save_checkpoint")
    out["trainer.save_checkpoint.bytes"] = float(_median([s.n for s in ckpt]))

    embeds = by_name["probes.embed_crops"]
    n_crops = sum(s.n for s in embeds)
    out["probes.embed_crops.crops"] = n_crops / rounds if rounds else 0.0
    out["probes.embed_crops.self_ms_per_crop"] = (
        sum(own[s.sid] for s in embeds) * 1e3 / n_crops if n_crops else 0.0)
    for fn in PROBES:
        out[f"probes.{fn}.s"] = _median([s.seconds for s in by_name[f"probes.{fn}"]])

    out["synthgen.generate.ms_per_phantom"] = mean_ms("synthgen.generate")
    out["synthgen.write_image.ms_per_phantom"] = mean_ms("synthgen.write_image")
    out["synthgen.write_image.bytes"] = float(
        _median([s.n for s in by_name["synthgen.write_image"]]))
    out["synthgen.read_image.ms_per_phantom"] = mean_ms("synthgen.read_image")
    out["synthgen.load_manifest.s"] = _median(
        [s.seconds for s in by_name["synthgen.load_manifest"]])

    for scale in ("paper", "desk"):
        spans = [s for s in by_name["pixelcheck.check_pair"] if s.tag == scale]
        out[f"pixelcheck.check_pair.{scale}.us_per_pair"] = (
            mean_ms("pixelcheck.check_pair", spans) * 1e3)
    out["trace.overhead_share"] = overhead_share
    return out
