"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its tiny size, untraced and traced, and checks that
the last line of output is a result naming every metric of BENCHMARK.json
with its unit.  It also checks that an injected fault (corrupted crop
geometry in ``prepare``) is counted as failed operations, and that a
directory holding only the benchmark exits non-zero without a result.
Exits 0 when every check holds; takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1",
                           *args], cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def result_problems(res: dict | None, wanted: list[dict]) -> list[str]:
    if res is None:
        return ["no JSON result on the last line"]
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(res)}"]
    problems = []
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1):
        problems.append(f"attempted {res['attempted']!r}")
    names = {m["name"] for m in wanted}
    if set(res["metrics"]) != names:
        problems.append(f"metric names differ: {sorted(set(res['metrics']) ^ names)}")
    for m in wanted:
        got = res["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}")
        value = got.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{m['name']}: value {value!r}")
    return problems


def main() -> int:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, wanted in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            proc = run(ROOT, "--workload", workload, "--trace", trace, "--tiny")
            res = result_of(proc)
            where = f"{workload} trace {trace}"
            problems += [f"{where}: {p}" for p in result_problems(res, wanted)]
            if proc.returncode != 0 or not (res and res["correct"] and res["failed"] == 0):
                problems.append(f"{where}: exit {proc.returncode}, stderr {proc.stderr[-500:]!r}")
            for line in proc.stdout.splitlines():
                if line.startswith("FAILED CHECK"):
                    problems.append(f"{where}: {line}")
            print(f"ran {where}: exit {proc.returncode}", flush=True)

    proc = run(ROOT, "--workload", "prepare", "--trace", "0", "--tiny", "--fault")
    res = result_of(proc)
    if not (proc.returncode != 0 and res and not res["correct"] and res["failed"] > 0
            and "FAILED CHECK" in proc.stdout):
        problems.append(f"injected geometry fault not counted: exit {proc.returncode}, result {res}")
    print(f"ran prepare with an injected fault: exit {proc.returncode}, "
          f"failed {res and res['failed']}", flush=True)

    alone = HERE / "out" / "alone"
    shutil.rmtree(alone, ignore_errors=True)
    alone.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", alone)
    shutil.copytree(HERE, alone / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(alone, "--workload", "prepare", "--trace", "0")
    if proc.returncode == 0 or result_of(proc) is not None:
        problems.append(f"benchmark without the package: exit {proc.returncode}, "
                        f"stdout {proc.stdout[-300:]!r}")
    print(f"ran without the package: exit {proc.returncode}", flush=True)
    shutil.rmtree(alone)

    for p in problems:
        print(f"SMOKE FAILURE: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
