"""One measured process of the gaplearn benchmark; started by run.py.

Imports gaplearn from the checkout's ``src``, runs one untimed warm-up item,
then times items one at a time in a closed loop and writes a JSON result
file.  With ``--setup-only`` it stops where the first timed item would
start.  With ``--trace`` every item runs twice, untraced and traced, in
alternating order, and the result holds the per-layer split.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Stop starting items after this much loop time, whatever the minimum count.
LOOP_CAP_S = 110.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_program():
    """Import gaplearn from this checkout's ``src`` and never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import gaplearn

    if not Path(gaplearn.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"gaplearn imported from {gaplearn.__file__}, not {SRC}")
    import workloads

    return workloads


class LedgerTap:
    """Collects the oracles an item creates, to sum their query ledgers.

    Wraps only the oracle constructor, so it costs one call per oracle and
    nothing per query; ``bound-audit`` writes no ledger of its own.
    """

    def __init__(self, oracle_cls) -> None:
        self.oracles: list = []
        original = oracle_cls.__init__
        tap = self.oracles

        def init(oracle, *args, **kwargs):
            original(oracle, *args, **kwargs)
            tap.append(oracle)

        oracle_cls.__init__ = init

    def take(self) -> int:
        total = sum(o.ledger.total for o in self.oracles)
        self.oracles.clear()
        return total


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def timed(item, tap, tracer=None):
    """Run one item; return (outcome, wall seconds, ledger total, error).

    With a tracer, the item's root span is exactly the timed interval.
    """
    tap.take()
    if tracer is not None:
        tracer.begin_item()
    started = time.perf_counter()
    try:
        outcome, error = item.run(), None
    except Exception:  # a failing item is counted, not fatal
        outcome, error = None, traceback.format_exc(limit=3)
    ended = time.perf_counter()
    problems = tracer.end_item(started, ended) if tracer is not None else []
    return outcome, ended - started, tap.take(), error, problems


def fresh_dir(path: Path) -> Path:
    """An empty directory for one item's files.

    Items write only new files: on ext4, overwriting or replacing a file
    that holds data flushes it on close, which costs tens of milliseconds
    and would time the disk instead of gaplearn.
    """
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def verify(item, outcome, queries, error, reference, work: Path):
    """Problems of one item's outputs, and their digest.

    Removes the output directories afterwards, so a rerun writes new files.
    """
    if error is not None:
        problems, digest = [error.strip().splitlines()[-1]], None
    else:
        try:
            problems, digest = item.check(outcome, queries)
        except Exception:
            problems, digest = [traceback.format_exc(limit=3).strip().splitlines()[-1]], None
    if digest is not None and reference is not None and digest != reference:
        problems.append(f"outputs differ from the reference: {digest} != {reference}")
    for sub in work.iterdir():
        if sub.is_dir():
            shutil.rmtree(sub)
    return problems, digest


def traced_pair(item, traced_first: bool, tap, tracer, reference, work: Path):
    """Run an item untraced and traced, in the given order.

    Returns (untraced wall, traced wall, ledger total, problems); the two
    runs must give identical outputs and the same query count.
    """
    walls, problems, digests = {}, [], []
    for traced in (traced_first, not traced_first):
        if traced:
            tracer.install()
        try:
            outcome, walls[traced], queries, error, found = timed(
                item, tap, tracer if traced else None
            )
        finally:
            tracer.uninstall()
        problems += found
        if traced and tracer.item_answers() != queries:
            problems.append(f"traced {tracer.item_answers()} answers, ledgers {queries}")
        found, digest = verify(item, outcome, queries, error, reference, work)
        problems += found
        digests.append(digest)
    if digests[0] != digests[1]:
        problems.append("traced and untraced outputs differ")
    return walls[False], walls[True], queries, problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    workloads = load_program()
    import gaplearn.oracle

    wl = workloads.WORKLOADS[args.workload]
    work = BENCH / "out" / "work" / args.workload
    refs = json.loads((BENCH / "reference.json").read_text())[args.workload]
    seed_refs = refs["seeds"].get(str(args.seed), [])
    fixed_refs = refs.get("fixed", {})
    tap = LedgerTap(gaplearn.oracle.ComparisonOracle)

    def reference(item, idx):
        if item.kind in fixed_refs:
            return fixed_refs[item.kind]
        return seed_refs[idx] if 0 <= idx < len(seed_refs) else None

    warm_dir = fresh_dir(work / "warmup")
    warm = wl.make(args.seed, -1, warm_dir)
    outcome, _, queries, error, _ = timed(warm, tap)
    warm_problems, _ = verify(warm, outcome, queries, error, reference(warm, -1), warm_dir)
    shutil.rmtree(warm_dir)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    def finished(count: int, measured: float) -> bool:
        if count % wl.pass_size:
            return False
        if time.perf_counter() - loop_start > LOOP_CAP_S:
            return True
        if args.trace:
            return count > 0 and measured >= args.seconds
        if wl.fixed_count:
            return count >= wl.min_items
        return count >= wl.min_items and measured >= args.seconds

    walls, traced_walls, ledgers, kinds, failures = [], [], [], [], []
    measured = 0.0
    setup_s = None
    loop_start = time.perf_counter()
    idx = 0
    while not finished(len(walls), measured):
        item_dir = fresh_dir(work / str(idx))
        item = wl.make(args.seed, idx, item_dir)
        if setup_s is None:
            setup_s = time.time() - args.spawned_at
            if args.setup_only:
                shutil.rmtree(item_dir)
                break
        ref = reference(item, idx)
        if tracer is None:
            outcome, wall, queries, error, _ = timed(item, tap)
            problems, _ = verify(item, outcome, queries, error, ref, item_dir)
        else:
            wall, traced_wall, queries, problems = traced_pair(
                item, idx % 2 == 1, tap, tracer, ref, item_dir
            )
            traced_walls.append(traced_wall)
            measured += traced_wall
        walls.append(wall)
        ledgers.append(queries)
        kinds.append(item.kind)
        measured += wall
        if problems:
            failures.append({"item": idx, "kind": item.kind, "problems": problems})
            print(f"item {idx} ({item.kind}) failed: {problems}", file=sys.stderr)
        shutil.rmtree(item_dir)
        idx += 1

    result = {
        "setup_s": setup_s,
        "warmup_problems": warm_problems,
        "walls": walls,
        "ledgers": ledgers,
        "kinds": kinds,
        "failures": failures,
        "min_items": wl.min_items,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": environment(),
    }
    if tracer is not None:
        result["traced_walls"] = traced_walls
        result["per_layer"] = tracer.per_item()
        result["missing_targets"] = tracer.missing
        spans = BENCH / "out" / f"spans-{args.workload}.npz"
        tracer.dump(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
