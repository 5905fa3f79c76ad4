"""Run one benchmark workload once and print its metrics.

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps the package's public functions, alternates untraced
and traced rounds of operations, and reports the per-layer metrics plus the tracing
overhead.  Every metric is printed as ``name = value unit``; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Outputs, spans and a result record land in
``perfbench/out/<workload>/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("train-desk", "train-wide", "probe-scan", "prepare")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5  # an import is ~0.2 s and noisy; it is all of prepare's setup
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# the name each workload gives its items_per_s in its own terms
RATE_NAMES = {"train-desk": "train.pairs_per_s", "train-wide": "train.pairs_per_s",
              "probe-scan": "probe.crops_per_s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measured time; at least one full round of operations always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    p.add_argument("--fault", action="store_true",
                   help="prepare only: corrupt the geometry, for the smoke test")
    return p.parse_args(argv)


def import_package():
    """Import ace from this checkout's src/, or exit without a result."""
    if not (SRC / "ace" / "__init__.py").is_file():
        sys.exit(f"perfbench: package source {SRC / 'ace'} is missing; "
                 "run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import ace

    if Path(ace.__file__).resolve().parent != (SRC / "ace").resolve():
        sys.exit(f"perfbench: imported ace from {ace.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the package CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import ace.cli"], env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def git_revision() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
            "git_revision": git_revision()}


def safe_op(wl, i: int):
    """One operation; a raise escaping the workload's own checks is a failure."""
    from workloads import OpResult

    try:
        return wl.op(i)
    except Exception as exc:
        # kind "error" is in no round, so it adds nothing to the rates
        return OpResult("error", 0, 0.0, 0.0, 1, 1, [f"operation {i} raised {exc!r}"])


def run_ops(wl, budget_s: float) -> list:
    """Closed loop: operations until the budget is spent and a full round ran."""
    results = []
    t0 = perf_counter()
    while perf_counter() - t0 < budget_s or len(results) < len(wl.round):
        results.append(safe_op(wl, len(results)))
    return results


def run_traced(wl, tracer, budget_s: float) -> tuple[list, list, float]:
    """Whole rounds of operations, alternately untraced and traced.

    Alternating rounds exposes both modes to the same drift in machine speed.
    Stops after a traced round once the budget is spent.  Returns untraced
    results, traced results and the wall time spent traced.
    """
    plain, traced, traced_wall = [], [], 0.0
    t0 = perf_counter()
    i = 0
    while not traced or perf_counter() - t0 < budget_s or len(plain) > len(traced):
        on = len(plain) > len(traced)
        if on:
            tracer.install()
        t_round = perf_counter()
        batch = [safe_op(wl, i + k) for k in range(len(wl.round))]
        i += len(wl.round)
        if on:
            traced_wall += perf_counter() - t_round
            tracer.uninstall()
        (traced if on else plain).extend(batch)
    return plain, traced, traced_wall


def paired_overhead(plain, traced, round_len: int) -> float:
    """1 - untraced/traced wall time of a round, median over adjacent round pairs.

    Each traced round directly follows its untraced twin, so drift in machine
    speed that is slower than a pair of rounds cancels out.
    """
    ratios = []
    for j in range(0, len(traced), round_len):
        t = sum(r.seconds for r in traced[j:j + round_len])
        if t > 0:
            ratios.append(sum(r.seconds for r in plain[j:j + round_len]) / t)
    return 1.0 - statistics.median(ratios) if ratios else 0.0


def rates(results, round_kinds) -> tuple[float, float]:
    """(items per second, CPU ms per item) of one round, from per-kind medians.

    Each kind contributes its median items and median time, times its count
    in a round, so the figures do not depend on where the budget cut a round.
    """
    by_kind = defaultdict(list)
    for r in results:
        by_kind[r.kind].append(r)
    items = wall = cpu = 0.0
    for kind, rs in by_kind.items():
        n = round_kinds.count(kind)
        items += n * statistics.median(r.items for r in rs)
        wall += n * statistics.median(r.seconds for r in rs)
        cpu += n * statistics.median(r.cpu_seconds for r in rs)
    if not (items and wall):  # every operation failed
        return 0.0, 0.0
    return items / wall, cpu * 1e3 / items


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.fault and args.workload != "prepare":
        sys.exit("perfbench: --fault applies to the prepare workload only")
    import_package()
    import tracing
    import workloads

    out = OUT / args.workload
    workloads.fresh_dir(out)
    wl = workloads.make(args.workload, args.seed, out, tiny=args.tiny, fault=args.fault)
    tracer = None

    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        t0 = perf_counter()
        tracer.install()
        wl.setup()
        tracer.uninstall()
        traced_wall = perf_counter() - t0
        plain, traced, traced_s = run_traced(wl, tracer, args.seconds)
        traced_wall += traced_s
        results = plain + traced
        overhead = paired_overhead(plain, traced, len(wl.round))
        values = tracing.layer_metrics(tracer, overhead, len(traced) // len(wl.round))
        metrics = {name: (values[name], unit) for name, unit in tracing.PER_LAYER}
    else:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            wl.setup()
            setup_times.append(perf_counter() - t0)
        setup_s = import_seconds() + statistics.median(setup_times)
        results = run_ops(wl, args.seconds)
        items_per_s, cpu_ms = rates(results, wl.round)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_mb, "MB"),
                   "items_per_s": (items_per_s, "1/s"), "cpu_ms_per_item": (cpu_ms, "ms")}

    fingerprint, named, final_check = wl.finish()
    if tracer is not None:
        named = {}  # the workload's own figures come from untraced runs only
    elif args.workload in RATE_NAMES:
        named[RATE_NAMES[args.workload]] = (metrics["items_per_s"][0], "1/s")
    checked = results + ([final_check] if final_check else [])
    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    notes = [n for r in checked for n in r.notes]
    named["failed_share"] = (failed / attempted, "ratio")

    if tracer is not None:
        tracer.write(out / "trace", traced_wall)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "operations": len(checked), "attempted": attempted,
              "failed": failed, "failures": notes,
              "ops": [[r.kind, r.items, r.seconds, r.cpu_seconds] for r in checked],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
              "fingerprint": fingerprint, "machine": machine()}
    (out / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for note in notes:
        print(f"FAILED CHECK: {note}")
    print(f"workload {args.workload} seed {args.seed}: {len(checked)} operations, "
          f"{failed}/{attempted} failed")
    for name, (value, unit) in {**metrics, **named}.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fingerprint = {json.dumps(fingerprint, sort_keys=True)}")
    print(f"machine = {json.dumps(record['machine'], sort_keys=True)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
