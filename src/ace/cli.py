"""Command-line entry points: data generation, pretraining, probes, self-checks.

Diagnostics go to stderr; result files go under --out.  Exit codes: 0 on
success, 1 on any domain error, 2 on usage errors (argparse default).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import gradcases, model
from . import probes as pb
from .config import load_config, write_snapshot
from .errors import AceError
from .pixelcheck import verify_geometry
from .synthgen import generate_dataset, load_manifest
from .trainer import train_loop

PROBE_NAMES = ("compositionality", "decompositionality", "retrieval",
               "correspondence", "symmetry", "separability")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _count(text: str) -> int:
    """A count of samples, batches, phantoms or trials: a run over none must not pass."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _seed(text: str) -> int:
    """A seed for numpy's generators, which take none below 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a single config key (repeatable)")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")


def _resolve(args) -> tuple:
    seed = [] if args.seed is None else [f"seed={args.seed}"]
    cfg = load_config(args.config, args.set + seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_snapshot(cfg, out / "config.resolved")
    return cfg, out


def _cmd_gen_data(args) -> int:
    cfg, out = _resolve(args)
    t0 = time.time()
    manifest = generate_dataset(out / "data", cfg.phantom_count, cfg.phantom_spec(),
                                cfg.seed)
    _log(f"wrote {cfg.phantom_count} phantoms in {time.time() - t0:.1f}s -> {manifest}")
    return 0


def _cmd_pretrain(args) -> int:
    cfg, out = _resolve(args)
    t0 = time.time()

    def progress(epoch, state):
        _log(f"epoch {epoch + 1}/{cfg.epochs} done, step {state.step}, "
             f"{time.time() - t0:.0f}s elapsed")

    ckpt = train_loop(cfg, args.manifest, out, resume_from=args.resume,
                      progress=progress)
    _log(f"final checkpoint: {ckpt}")
    return 0


def _cmd_probe(args) -> int:
    cfg, out = _resolve(args)
    state, _, _ = model.load_state(args.ckpt)
    phantoms = load_manifest(args.manifest)
    rng = np.random.default_rng(cfg.seed)
    name = args.name
    if name == "compositionality":
        report = pb.compositionality_probe(state, phantoms, n_parts=4,
                                           samples=args.samples, rng=rng)
    elif name == "decompositionality":
        report = pb.decompositionality_probe(state, phantoms, rng, n_batches=args.batches)
    elif name == "retrieval":
        report = pb.retrieval_probe(state, phantoms, rng, n_batches=args.batches)
    elif name == "correspondence":
        side = phantoms[0].image.shape[0]
        window = round(3 * side / 4) if args.window is None else args.window
        stride = max(1, round(side / 32)) if args.stride is None else args.stride
        report = pb.correspondence_probe(state, phantoms[:args.queries],
                                         phantoms[args.queries:args.queries + args.keys],
                                         window=window, stride=stride)
    elif name == "symmetry":
        report = pb.symmetry_probe(state, phantoms[:args.samples])
    elif name == "separability":
        report = pb.landmark_separability(state, phantoms[:args.samples],
                                          embeddings_csv=out / "landmark_embeddings.csv")
    else:  # pragma: no cover - argparse choices guard this
        raise AceError(f"unknown probe {name!r}")
    report.write_csv(out / f"{report.name}_samples.csv")
    report.write_summary_csv(out / f"{report.name}_summary.csv")
    _log(json.dumps(report.summary, sort_keys=True, default=str))
    return 0


def _cmd_gradcheck(args) -> int:
    worst, name, seed = 0.0, "no case", args.seed
    for s in range(args.seed, args.seed + args.trials):
        for case, err in gradcases.errors(s):
            # a NaN error counts as the worst, and no later error displaces it
            if not err <= worst and not np.isnan(worst):
                worst, name, seed = err, case, s
    ok = worst < 1e-4
    _log(f"gradcheck: {args.trials} trials, worst relative error {worst:.3e} "
         f"({name}, seed {seed}), {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_geom_verify(args) -> int:
    cfg, _ = _resolve(args)
    t0 = time.perf_counter()
    report = verify_geometry(cfg.grid_spec(), args.samples,
                             cfg.seed, corrupt=args.corrupt)
    elapsed = time.perf_counter() - t0
    for note in report.failures[:20]:
        _log(note)
    _log(f"geom-verify: {report.samples} pairs, {len(report.failures)} failures, "
         f"{elapsed:.3f} s, {report.samples / max(elapsed, 1e-9):.0f} pairs/s")
    if args.corrupt:
        return 0 if report.failures else 1
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a phantom dataset + manifest")
    _add_common(p)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("pretrain", help="run self-supervised pretraining")
    _add_common(p)
    p.add_argument("--manifest", required=True, help="dataset manifest TSV")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("probe", help="score a frozen checkpoint")
    p.add_argument("name", choices=PROBE_NAMES)
    _add_common(p)
    p.add_argument("--ckpt", required=True, help="checkpoint file")
    p.add_argument("--manifest", required=True, help="dataset manifest TSV")
    p.add_argument("--samples", type=_count, default=64)
    p.add_argument("--batches", type=_count, default=8)
    p.add_argument("--keys", type=_count, default=8)
    p.add_argument("--queries", type=_count, default=1)
    p.add_argument("--window", type=_count, default=None)
    p.add_argument("--stride", type=_count, default=None)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("gradcheck", help="finite-difference check of the gradient gate's cases")
    p.add_argument("--trials", type=_count, default=10)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("geom-verify", help="crop geometry vs the pixel oracle")
    _add_common(p)
    p.add_argument("--samples", type=_count, default=1000)
    p.add_argument("--corrupt", action="store_true",
                   help="inject a misalignment and require the oracle to catch it")
    p.set_defaults(func=_cmd_geom_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
