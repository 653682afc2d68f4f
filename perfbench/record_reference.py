"""Record the reference outputs that run.py compares items against.

Usage, from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py [workload ...]

For each named workload (default: all) and each seed in ``SEEDS`` it runs
the first ``ITEMS[workload]`` items untimed and stores their output digests
in ``perfbench/reference.json``: sweep CSV bodies without the wall-clock
column, exact game values, ``bound_audit.csv`` digests.  Items that do not
depend on the seed are stored once under ``fixed``.
"""

from __future__ import annotations

import json
import sys

sys.dont_write_bytecode = True

from worker import BENCH, LedgerTap, fresh_dir, load_program, timed  # noqa: E402

# Seeds 0-10 cover everyday runs; HELD_OUT_SEED is for confirming a claim
# and is not to be used while a change is being written.
HELD_OUT_SEED = 104729
SEEDS = tuple(range(11)) + (HELD_OUT_SEED,)
ITEMS = {"sweep-wide": 3, "sweep-noisy": 2, "audit-small": 10, "robust-game": 7}
FIXED_KINDS = ("plugin-vs-robust", "hard-pair")


def main() -> int:
    workloads = load_program()
    import gaplearn.oracle

    tap = LedgerTap(gaplearn.oracle.ComparisonOracle)
    path = BENCH / "reference.json"
    reference = json.loads(path.read_text())
    for name in sys.argv[1:] or list(ITEMS):
        wl = workloads.WORKLOADS[name]
        work = BENCH / "out" / "work" / name
        seeds, fixed = {}, {}
        for seed in SEEDS:
            digests = []
            for idx in range(ITEMS[name]):
                item = wl.make(seed, idx, fresh_dir(work / str(idx)))
                outcome, _, queries, error, _ = timed(item, tap)
                if error is not None:
                    raise SystemExit(f"{name} seed {seed} item {idx}: {error}")
                problems, digest = item.check(outcome, queries)
                if problems:
                    raise SystemExit(f"{name} seed {seed} item {idx}: {problems}")
                if item.kind in FIXED_KINDS:
                    fixed[item.kind] = digest
                    digest = None
                digests.append(digest)
            seeds[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} items", file=sys.stderr)
        reference[name] = {"seeds": seeds, "fixed": fixed}
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
