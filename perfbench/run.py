"""gaplearn benchmark: one workload, one seed, one line of JSON results.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-wide --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it starts the measured worker process once and two
set-up-only worker processes, one after another, and prints the end-to-end
metrics; ``setup_s`` is the median of the three set-up times.  With
``--trace 1`` it starts one traced worker and prints the per-layer metrics.
Lines before the last describe the environment and each metric; the last
line is the JSON result.  The exit code is 1, with no result line, when the
worker cannot run (for instance without the ``src`` tree).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep-wide", "sweep-noisy", "audit-small", "robust-game")
SETUP_SAMPLES = 3
# The whole run must end well within three minutes.
BUDGET_S = 170.0
# The tail is the highest percentile with at least this many items above it.
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: the load is one process on a small machine, and the
    # modulus and grid matmuls would otherwise oversubscribe its cores.
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
    )
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, extra: list[str], deadline: float) -> dict:
    result = BENCH / "out" / f"worker-{args.workload}.json"
    result.unlink(missing_ok=True)
    spawned_at = time.time()
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--spawned-at", repr(spawned_at),
        "--result", str(result), *extra,
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded the time budget") from None
    if code != 0 or not result.exists():
        raise BenchError(f"worker exited with code {code}")
    return json.loads(result.read_text())


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, items beyond) of the highest well-sampled percentile."""
    ordered = sorted(walls)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    rank = len(ordered) - beyond  # 1-based rank of the reported item
    return ordered[rank - 1], 100.0 * rank / len(ordered), beyond


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    return "s/item" if name.endswith("_s") else "count/item"


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def end_to_end(args, deadline: float) -> tuple[dict, dict, list[str]]:
    main = spawn(args, [], deadline)
    setups = [main["setup_s"]]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(spawn(args, ["--setup-only"], deadline)["setup_s"])
    walls = main["walls"]
    n = len(walls)
    prefix = main["min_items"]
    queries = sum(main["ledgers"][:prefix]) / min(prefix, n)
    value, pct, beyond = tail(walls)
    failed = len(main["failures"])
    metrics = {
        "items_per_s": (n / sum(walls), "1/s", f"{n} items in {sum(walls):.2f} s timed"),
        "item_p50_ms": (statistics.median(walls) * 1000, "ms", f"median of {n} items"),
        "item_tail_ms": (value * 1000, "ms", f"p{pct:.0f} of {n} items, {beyond} beyond it"),
        "oracle_queries_per_item": (queries, "count", f"mean ledger of the first {min(prefix, n)} items"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB", "getrusage(RUSAGE_SELF) of the worker"),
        "setup_s": (statistics.median(setups), "s", f"median of {setups}"),
    }
    notes = [f"fail_ratio {failed / n} ratio ({failed} failed of {n} attempted)"]
    return main, metrics, notes


def per_layer(args, deadline: float) -> tuple[dict, dict, list[str]]:
    main = spawn(args, ["--trace"], deadline)
    metrics = {name: (value, layer_unit(name), "") for name, value in main["per_layer"].items()}
    ratio = sum(main["walls"]) / sum(main["traced_walls"])
    metrics["trace.overhead_ratio"] = (ratio, "ratio", "traced over untraced items_per_s")
    n = len(main["walls"])
    notes = [f"{n} items traced; spans in {main['spans_file']}"]
    if main["missing_targets"]:
        notes.append(f"targets not found: {main['missing_targets']}")
    return main, metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + BUDGET_S
    (BENCH / "out").mkdir(exist_ok=True)
    try:
        measure = per_layer if args.trace else end_to_end
        main_result, metrics, notes = measure(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failures = main_result["failures"]
    attempted = len(main_result["walls"])
    correct = not failures and not main_result["warmup_problems"]
    env = dict(main_result["environment"], **source_identity())
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:32s} {value:>14.6g} {unit:11s} {note}")
    for note in notes:
        print(f"  {note}")
    for failure in failures[:5]:
        print(f"  failed item {failure['item']} ({failure['kind']}): {failure['problems']}")
    if main_result["warmup_problems"]:
        print(f"  warm-up item failed: {main_result['warmup_problems']}")

    record = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    results = BENCH / "out" / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            dict(record, environment=env, notes=notes, failures=failures,
                 items=list(zip(main_result["kinds"], main_result["walls"]))),
            indent=1,
        ) + "\n"
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
