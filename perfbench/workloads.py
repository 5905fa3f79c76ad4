"""The four benchmark workloads, each driven through the package's public API.

Every workload is a closed loop: one operation starts only after the
previous one returned.  A workload has three parts:

* ``setup()`` makes the inputs from the seed (timed, repeated by the runner);
* ``op(i)`` runs the i-th operation, times only the package calls, then
  checks their outputs and returns an :class:`OpResult`;
* ``finish()`` runs the end-of-run checks and returns the behaviour
  fingerprint plus the workload's own named figures.

The package only ever sees generated inputs; the seed stays here.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from ace import cropgrid, model, pixelcheck, probes, synthgen, trainer
from ace.config import RunConfig, apply_overrides
from ace.cropgrid import GridSpec

PAPER = GridSpec(G=32, m=32, c1=14, c2=28, H0=448)
DESK = RunConfig().grid_spec()

# embed_crops must equal the mean of taped encode over cropgrid.resize
# within this share of the feature scale (float64 rounding is ~1e-15; the
# margin leaves room for a float32 gradient-free path)
EMBED_RTOL = 1e-4

PROBES = ("correspondence_probe", "landmark_separability", "retrieval_probe",
          "decompositionality_probe", "compositionality_probe", "symmetry_probe")


@dataclass
class OpResult:
    kind: str  # operations of one kind do the same work
    items: int  # work units behind items_per_s
    seconds: float  # wall time of the package calls alone
    cpu_seconds: float  # process CPU time (all threads) of the same calls
    attempted: int  # operations in the failed_share sense
    failed: int = 0
    notes: list[str] = field(default_factory=list)


class Clock:
    """Accumulates wall and CPU time of the package calls of one operation."""

    def __init__(self):
        self.seconds = 0.0
        self.cpu_seconds = 0.0

    def __call__(self, fn, *args, **kwargs):
        c0, t0 = _cpu(), perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += perf_counter() - t0
            self.cpu_seconds += _cpu() - c0


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def fresh_dir(directory: Path) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


def _clean_eval_spec(**over) -> synthgen.PhantomSpec:
    """Nominal appearance, as the acceptance gates use for held-out phantoms."""
    return synthgen.PhantomSpec(bg_jitter=0.0, gain_jitter=0.0, field_amp=0.0,
                                level_jitter=0.0, weave_amp=0.0, mosaic_contrast=0.0,
                                **over)


# ---------------------------------------------------------------------------


class TrainWorkload:
    """Repeated short pretraining runs through ``trainer.train_loop``.

    Each operation is one ``train_loop`` call on the same seeded phantoms and
    config, so every call must write a bit-identical ``metrics.jsonl``.
    """

    round = ("train_loop",)

    def __init__(self, seed: int, out: Path, tiny: bool, overrides: dict):
        self.seed, self.out = seed, out
        size = {"phantom_count": 8, "epochs": 1, "warmup_epochs": 0, "checkpoint_every": 1} \
            if tiny else {"phantom_count": 16, "epochs": 4, "warmup_epochs": 1,
                          "checkpoint_every": 2}
        self.cfg = apply_overrides(RunConfig(), [
            f"{k}={v}" for k, v in {**size, **overrides, "seed": seed}.items()])
        self.steps = self.cfg.epochs * (self.cfg.phantom_count // self.cfg.batch_size)
        self.manifest = None
        self.digests: list[str] = []
        self.losses: list[float] = []

    def setup(self) -> None:
        self.manifest = synthgen.generate_dataset(
            fresh_dir(self.out / "data"), self.cfg.phantom_count, self.cfg.phantom_spec(),
            master_seed=self.seed)

    def op(self, i: int) -> OpResult:
        clock = Clock()
        run_dir = self.out / "run"
        res = OpResult("train_loop", self.steps * self.cfg.batch_size, 0.0, 0.0, self.steps)
        try:
            ckpt = clock(trainer.train_loop, self.cfg, self.manifest, run_dir)
        except Exception as exc:  # a raise fails every step of the call
            res.failed, res.notes = self.steps, [f"train_loop raised {exc!r}"]
            return res
        finally:
            res.seconds, res.cpu_seconds = clock.seconds, clock.cpu_seconds

        metrics_path = run_dir / trainer.METRICS_NAME
        records = [json.loads(line) for line in
                   metrics_path.read_text(encoding="utf-8").splitlines() if line.strip()]
        bad = [r["step"] for r in records
               if not all(math.isfinite(r[k]) for k in
                          ("loss_total", "loss_global", "loss_comp", "loss_decomp", "grad_norm"))]
        res.failed = len(bad)
        if bad:
            res.notes.append(f"non-finite loss at steps {bad}")
        if [r["step"] for r in records] != list(range(1, self.steps + 1)):
            res.failed += max(1, self.steps - len(records))
            res.notes.append(f"metrics.jsonl has {len(records)} lines, expected steps "
                             f"1..{self.steps} in order")
        state, _, _, _ = trainer.load_checkpoint(ckpt)
        if state.step != self.steps:
            res.failed += 1
            res.notes.append(f"checkpoint at step {state.step}, expected {self.steps}")
        digest = sha256_file(metrics_path)
        if self.digests and digest != self.digests[0]:
            res.failed += 1
            res.notes.append(f"call {i}: metrics.jsonl differs from call 0 at the same seed")
        self.digests.append(digest)
        last_epoch = max(r["epoch"] for r in records) if records else 0
        self.losses = [r["loss_total"] for r in records if r["epoch"] == last_epoch]
        return res

    def finish(self) -> tuple[dict, dict, OpResult | None]:
        fingerprint = {"metrics.jsonl": self.digests[0] if self.digests else None}
        loss_final = float(np.mean(self.losses)) if self.losses else float("nan")
        return fingerprint, {"train.loss_final": (loss_final, "loss")}, None


# ---------------------------------------------------------------------------


class ProbeWorkload:
    """All six probes at their acceptance-gate sizes on a seeded init checkpoint.

    The correspondence probe's 5 queries x 10 keys run as one call per key
    image, so a round has ten correspondence operations of ~1 s each rather
    than one ~10 s call; each key's window dictionary is the same work either
    way.
    """

    def __init__(self, seed: int, out: Path, tiny: bool):
        self.seed, self.out, self.tiny = seed, out, tiny
        self.state = None
        self.nominal = self.varied = None
        self.summaries: dict[str, dict] = {}  # by probe call label
        self.n_nominal, self.n_varied = (8, 4) if tiny else (40, 40)
        self.queries, self.keys = (1, 1) if tiny else (5, 10)
        self.round = ("correspondence_probe",) * self.keys + PROBES[1:]

    def setup(self) -> None:
        nominal = synthgen.generate_dataset(fresh_dir(self.out / "nominal"), self.n_nominal,
                                            _clean_eval_spec(), master_seed=self.seed + 1)
        # amplified anatomical jitter for the separability probe, as its gate uses
        varied = synthgen.generate_dataset(
            fresh_dir(self.out / "varied"), self.n_varied,
            _clean_eval_spec(jitter_translate=0.08, jitter_scale=0.25), master_seed=self.seed + 2)
        self.nominal = synthgen.load_manifest(nominal)
        self.varied = synthgen.load_manifest(varied)
        self.state = model.init(RunConfig().encoder_config(), np.random.default_rng(self.seed))

    def _call(self, slot: int):
        """(label, probe callable, crops it embeds) for one slot of the round."""
        st, nom, tiny = self.state, self.nominal, self.tiny
        kind = self.round[slot]
        rng = np.random.default_rng([self.seed, slot])
        n_lm = len(synthgen.LANDMARK_NAMES)
        if kind == "correspondence_probe":
            queries, key = nom[:self.queries], nom[self.queries + slot]
            window, stride = (192, 64) if tiny else (192, 8)
            half = window // 2
            per_key = len(range(0, key.image.shape[0] + 2 * half - window + 1, stride)) ** 2
            return (f"{kind}[{slot}]",
                    lambda: probes.correspondence_probe(st, queries, [key], window=window,
                                                        stride=stride),
                    len(queries) * n_lm + per_key)
        if kind == "landmark_separability":
            return (kind, lambda: probes.landmark_separability(st, self.varied, patch_frac=0.875),
                    len(self.varied) * n_lm)
        if kind in ("retrieval_probe", "decompositionality_probe"):
            batch, batches = (8, 1) if tiny else (32, 8)
            fn = getattr(probes, kind)
            return (kind, lambda: fn(st, nom, rng, batch_size=batch, n_batches=batches),
                    batch * batches * (2 if kind == "retrieval_probe" else 3))
        if kind == "compositionality_probe":
            samples = 10 if tiny else 200
            return (kind, lambda: probes.compositionality_probe(st, nom, n_parts=4,
                                                                samples=samples, rng=rng),
                    samples * 5)
        instances = nom[:2] if tiny else nom[:20]
        return (kind, lambda: probes.symmetry_probe(st, instances),
                len(instances) * len(synthgen.MIRROR_PAIRS) * 3)

    def op(self, i: int) -> OpResult:
        slot = i % len(self.round)
        label, call, crops = self._call(slot)
        clock = Clock()
        res = OpResult(self.round[slot], crops, 0.0, 0.0, 1)
        try:
            report = clock(call)
        except Exception as exc:
            res.failed, res.notes = 1, [f"{label} raised {exc!r}"]
        else:
            summary = json.loads(json.dumps(report.summary, default=float))
            numbers = [v for v in summary.values() if isinstance(v, (int, float))]
            if not all(math.isfinite(v) for v in numbers):
                res.failed, res.notes = 1, [f"{label}: non-finite summary {summary}"]
            elif self.summaries.setdefault(label, summary) != summary:
                res.failed, res.notes = 1, [f"{label}: summary differs between repeats"]
        res.seconds, res.cpu_seconds = clock.seconds, clock.cpu_seconds
        return res

    def _embed_error(self) -> float:
        """Worst relative gap between embed_crops and taped encode on seeded crops."""
        rng = np.random.default_rng([self.seed, 99])
        enc = self.state.config
        worst = 0.0
        for _ in range(2 if self.tiny else 8):
            ph = self.nominal[int(rng.integers(len(self.nominal)))]
            side = ph.image.shape[0]
            size = int(rng.integers(32, side + 1))
            x, y = (int(v) for v in rng.integers(0, side - size + 1, size=2))
            crop = ph.image[y:y + size, x:x + size]
            fast = probes.embed_crops(self.state, crop[None])[0]
            ref = model.encode(enc, self.state.student,
                               cropgrid.resize(crop, enc.H0)).data.mean(axis=0)
            worst = max(worst, float(np.max(np.abs(fast - ref)) / max(1.0, np.max(np.abs(ref)))))
        return worst

    def finish(self) -> tuple[dict, dict, OpResult | None]:
        """Cross-check the gradient-free probe path against the taped encoder."""
        check = OpResult("embed_crosscheck", 0, 0.0, 0.0, 1)
        try:
            worst = self._embed_error()
        except Exception as exc:
            worst = float("nan")
            check.notes.append(f"embed cross-check raised {exc!r}")
        if not worst <= EMBED_RTOL:
            check.failed = 1
            check.notes.append(f"embed_crops vs taped encode: relative error {worst:.3e} "
                               f"> {EMBED_RTOL:.0e}")
        fingerprint = {k: sha256_json(v) for k, v in sorted(self.summaries.items())}
        fingerprint["all_probes"] = sha256_json(self.summaries)
        return fingerprint, {"probe.embed_max_rel_error": (worst, "ratio")}, check


# ---------------------------------------------------------------------------


class PrepareWorkload:
    """What a user runs before pretraining: data generation, loading, geometry check.

    One operation is one prepare cycle: ``generate_dataset`` (PGMs plus
    manifest), ``load_manifest``, then ``verify_geometry`` at paper and at
    desk scale.  Its items are the phantoms it prepares.
    """

    round = ("prepare",)

    def __init__(self, seed: int, out: Path, tiny: bool, fault: bool):
        self.seed, self.out, self.fault = seed, out, fault
        self.count, self.paper_pairs, self.desk_pairs = (4, 5, 20) if tiny else (16, 40, 300)
        self.spec = RunConfig().phantom_spec()
        self.manifest_digest = None
        self.stage_s = {"gen": [], "paper": [], "desk": []}

    def setup(self) -> None:
        """Nothing precedes the first cycle beyond importing the package."""

    def op(self, i: int) -> OpResult:
        data = fresh_dir(self.out / "data")
        clock = Clock()
        res = OpResult("prepare", self.count, 0.0, 0.0,
                       self.count + self.paper_pairs + self.desk_pairs)
        try:
            manifest = clock(synthgen.generate_dataset, data, self.count, self.spec,
                             master_seed=self.seed)
            self.stage_s["gen"].append(clock.seconds)
            loaded = clock(synthgen.load_manifest, manifest)
            for scale, spec, pairs in (("paper", PAPER, self.paper_pairs),
                                       ("desk", DESK, self.desk_pairs)):
                before = clock.seconds
                report = clock(pixelcheck.verify_geometry, spec, pairs, self.seed,
                               corrupt=self.fault)
                self.stage_s[scale].append(clock.seconds - before)
                # a report that is not ok leaves all its pairs unverified
                if not report.ok:
                    res.failed += pairs
                    res.notes.append(f"{scale} geometry: {len(report.failures)} failures, "
                                     f"first {report.failures[0]}")
        except Exception as exc:
            res.failed, res.notes = res.attempted, [f"prepare cycle raised {exc!r}"]
            return res
        finally:
            res.seconds, res.cpu_seconds = clock.seconds, clock.cpu_seconds

        bad = self._check_round_trip(loaded, i)
        res.failed += len(bad)
        res.notes.extend(bad)
        digest = sha256_file(manifest)
        if self.manifest_digest is None:
            self.manifest_digest = digest
        elif digest != self.manifest_digest:
            res.failed += 1
            res.notes.append(f"cycle {i}: manifest differs from cycle 0 at the same seed")
        return res

    def _check_round_trip(self, loaded, cycle: int) -> list[str]:
        """Count and ids match; a sampled phantom regenerates to the stored one."""
        if [p.instance_id for p in loaded] != [f"phantom{k:05d}" for k in range(self.count)]:
            return [f"manifest lists {len(loaded)} phantoms, expected {self.count}"]
        k = int(np.random.default_rng([self.seed, cycle]).integers(self.count))
        rng, _ = synthgen.instance_rng(self.seed, k)
        ref = synthgen.generate(rng, self.spec, instance_id=loaded[k].instance_id, seed=k)
        notes = []
        if loaded[k].landmarks != {n: (float(x), float(y)) for n, (x, y) in ref.landmarks.items()}:
            notes.append(f"{loaded[k].instance_id}: landmarks changed in the manifest")
        err = float(np.max(np.abs(loaded[k].image - ref.image)))
        if not err <= 1.0 / 65535:
            notes.append(f"{loaded[k].instance_id}: pixel error {err:.3e} > 1/65535")
        return notes

    def finish(self) -> tuple[dict, dict, OpResult | None]:
        def rate(n, key):
            return n / float(np.median(self.stage_s[key])) if self.stage_s[key] else 0.0

        named = {"gen.phantoms_per_s": (rate(self.count, "gen"), "1/s"),
                 "geom.paper_pairs_per_s": (rate(self.paper_pairs, "paper"), "1/s"),
                 "geom.desk_pairs_per_s": (rate(self.desk_pairs, "desk"), "1/s")}
        return {"manifest.tsv": self.manifest_digest}, named, None


def make(name: str, seed: int, out: Path, tiny: bool, fault: bool):
    if name == "train-desk":
        return TrainWorkload(seed, out, tiny, {})
    if name == "train-wide":
        return TrainWorkload(seed, out, tiny, {"embed_dim": 128, "encoder_hidden": 256})
    if name == "probe-scan":
        return ProbeWorkload(seed, out, tiny)
    return PrepareWorkload(seed, out, tiny, fault)
