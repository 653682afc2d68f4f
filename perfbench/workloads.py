"""Workloads of the gaplearn benchmark: inputs from a seed, items, checks.

Every workload is a sequence of items.  Item ``i`` of seed ``s`` draws its
inputs from ``SeedSequence([s, workload index, i + 1])`` (the untimed
warm-up item uses ``i = -1``), writes them as files under the work
directory, and hands gaplearn only those files or the objects built from
them.  An item's ``run`` is the timed call; its ``check`` reads the outputs
afterwards and returns the problems found plus a digest of the outputs that
must not change (compared with ``reference.json`` where it has the seed).

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import gaplearn.cli
import gaplearn.hardness
import gaplearn.instances
import gaplearn.oracle
import gaplearn.robust

# Checks pinned by the acceptance criteria of the paper reproduction.
SANDWICH_SLACK = 1e-4
GRID_SLACK = 5e-3
ROBUST_TOLERANCE = Fraction(1, 10**6)
# est_error in sweep.csv is a float; allow its last-digit rounding only.
FLOAT_SLACK = 1e-12


@dataclass
class Item:
    kind: str
    run: Callable[[], object]
    check: Callable[[object, int], tuple[list[str], str]]


@dataclass(frozen=True)
class Workload:
    name: str
    index: int
    min_items: int  # every untraced run measures at least this many items
    pass_size: int  # runs end on a multiple of this many items
    make: Callable[[int, int, Path], Item]  # (seed, item index, work dir)
    # A mix of unlike items is measured on a fixed count, so that its
    # percentiles always rank the same mix.
    fixed_count: bool = False


def _rng(seed: int, workload: int, idx: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, workload, idx + 1]))


def instance_doc(rng: np.random.Generator, n: int) -> tuple[dict, Fraction]:
    """A random instance in gaplearn's JSON format, and its exact largest gap.

    Gaps lie in [0.05, 1), so every label is strict and no query sits on
    the float boundary of the polytope relaxation.
    """
    raw = rng.uniform(0.1, 1.0, size=n)
    weights = raw / raw.sum()
    gaps = rng.uniform(0.05, 1.0, size=n)
    base = rng.uniform(0.0, 1.0, size=n) * (1.0 - gaps)
    high = np.minimum(base + gaps, 1.0)
    labels = rng.integers(0, 2, size=n)
    coords = rng.uniform(0.1, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    utility = [
        [float(lo), float(hi)] if y == 1 else [float(hi), float(lo)]
        for lo, hi, y in zip(base, high, labels)
    ]
    doc = {
        "points": [{"id": f"x{i}", "coord": float(c)} for i, c in enumerate(coords)],
        "weights": [float(w) for w in weights],
        "utility": utility,
    }
    max_gap = max(Fraction(hi) - Fraction(lo) for lo, hi in zip(base, high))
    return doc, max_gap


def elicitation_budget(n: int, k: int) -> int:
    """Noiseless ledger: labels, tournament, log2(k) - 1 refinement rounds."""
    return n + (n - 1) + n * (int(math.log2(k)) - 1)


def repetitions(n: int, k: int, eta: float, delta: float) -> int:
    """Majority-vote repeat count J = ceil(8/(1-2 eta)^2 ln(n T / delta))."""
    rounds = max(int(math.log2(k)) - 1, 1)
    return max(math.ceil(8.0 / (1.0 - 2.0 * eta) ** 2 * math.log(n * rounds / delta)), 1)


def canonical_queries(n: int, k: int) -> int:
    """Canonical reduced queries: half the nonzero points of the L1 ball."""
    return sum(2**j * math.comb(n, j) * math.comb(k, j) for j in range(1, n + 1)) // 2


def _write_config(work: Path, name: str, cfg: dict) -> Path:
    path = work / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


def _run_cli(config: Path) -> Callable[[], int]:
    # Look ``main`` up at call time so a traced run reaches the wrapper.
    return lambda: gaplearn.cli.main(["run", "--config", str(config)])


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _sweep_body(rows: list[dict]) -> str:
    """CSV body without the wall-clock column, which is the only one that varies."""
    return "\n".join(
        ",".join(row[key] for key in ("k", "trial", "excess_risk", "est_error", "queries"))
        for row in rows
    )


def _sweep(wid: int, n: int, ks: list[int], eta: float, delta: float = 0.05):
    def make(seed: int, idx: int, work: Path) -> Item:
        rng = _rng(seed, wid, idx)
        doc, max_gap = instance_doc(rng, n)
        inst = work / "instance.json"
        inst.write_text(json.dumps(doc))
        cfg = {
            "experiment": "sweep-k",
            "instance": {"path": str(inst)},
            "k": ks,
            "trials": 1,
            "eta": eta,
            "delta": delta,
            "seed": int(rng.integers(0, 2**31)),
            "out": str(work / "out"),
        }
        config = _write_config(work, "config", cfg)
        repeat = repetitions(n, max(ks), eta, delta) if eta > 0 else 1
        per_k = {k: repeat * elicitation_budget(n, k) for k in ks}

        def check(rc, queries):
            problems = [] if rc == 0 else [f"exit code {rc}"]
            rows = _read_csv(work / "out" / "sweep.csv")
            if [int(r["k"]) for r in rows] != ks:
                return problems + [f"rows for k={[r['k'] for r in rows]}"], ""
            for row in rows:
                k = int(row["k"])
                if int(row["queries"]) != per_k[k]:
                    problems.append(f"k={k}: {row['queries']} queries, expected {per_k[k]}")
                bound = 2 * max_gap / k
                if Fraction(float(row["est_error"])) > bound * (1 + FLOAT_SLACK):
                    problems.append(f"k={k}: est_error {row['est_error']} above {float(bound)}")
            if queries != sum(per_k.values()):
                problems.append(f"oracle ledgers hold {queries} answers")
            if eta > 0:
                # The noiseless estimate of the same instance, outside the timer.
                quiet = dict(cfg, eta=0.0, out=str(work / "noiseless"))
                rc0 = gaplearn.cli.main(["run", "--config", str(_write_config(work, "noiseless", quiet))])
                ref = _read_csv(work / "noiseless" / "sweep.csv")
                fields = ("k", "excess_risk", "est_error")
                if rc0 != 0 or [[r[f] for f in fields] for r in ref] != [
                    [r[f] for f in fields] for r in rows
                ]:
                    problems.append("noisy estimate differs from the noiseless one")
            return problems, _sha(_sweep_body(rows))

        return Item("sweep", _run_cli(config), check)

    return make


def _audit(wid: int):
    def make(seed: int, idx: int, work: Path) -> Item:
        rng = _rng(seed, wid, idx)
        cfg = {
            "experiment": "bound-audit",
            "trials": 100,
            "n_max": 6,
            "k": [4, 8, 16],
            "seed": int(rng.integers(0, 2**31)),
            "out": str(work / "out"),
        }
        config = _write_config(work, "config", cfg)

        def check(rc, queries):
            problems = [] if rc == 0 else [f"exit code {rc}"]
            path = work / "out" / "bound_audit.csv"
            rows = _read_csv(path)
            bad = sum(1 for r in rows if r["ok"] != "True")
            if len(rows) != 100 or bad:
                problems.append(f"{len(rows)} audit rows, {bad} violations")
            # bound-audit writes no ledger; the oracle ledgers still count.
            if queries < 100 * elicitation_budget(2, 4):
                problems.append(f"oracle ledgers hold only {queries} answers")
            return problems, _sha(path.read_text())

        return Item("bound-audit", _run_cli(config), check)

    return make


def _robust_cli(rng: np.random.Generator, work: Path, n: int, k: int) -> Item:
    doc, _ = instance_doc(rng, n)
    inst = work / "instance.json"
    inst.write_text(json.dumps(doc))
    cfg = {"experiment": "robust", "instance": {"path": str(inst)}, "k": k,
           "seed": 0, "out": str(work / "out")}
    config = _write_config(work, "config", cfg)

    def check(rc, queries):
        problems = [] if rc == 0 else [f"exit code {rc}"]
        out = json.loads((work / "out" / "robust.json").read_text())
        value = out["game_value"]
        if not out["lower_modulus"] / 2 <= value + SANDWICH_SLACK:
            problems.append(f"half lower modulus {out['lower_modulus'] / 2} above {value}")
        if not value <= out["upper_modulus"] + SANDWICH_SLACK:
            problems.append(f"game value {value} above upper modulus {out['upper_modulus']}")
        if abs(sum(out["policy"]) - 1) > 1e-9:
            problems.append("policy does not sum to one")
        expected = canonical_queries(n, k)
        if out["queries_used"] != expected or queries != expected:
            problems.append(f"{out['queries_used']}/{queries} queries, expected {expected}")
        return problems, f"game_value={value!r}"

    return Item(f"robust-n{n}", _run_cli(config), check)


def _robust_library(rng: np.random.Generator, n: int, k: int) -> Item:
    doc, _ = instance_doc(rng, n)
    inst = gaplearn.instances.instance_from_json(json.dumps(doc))
    cls = gaplearn.instances.induce_threshold_class(inst)

    def run():
        oracle = gaplearn.oracle.ComparisonOracle(inst, gaplearn.oracle.OracleConfig(k=k))
        poly = gaplearn.robust.build_polytope(oracle)
        return gaplearn.robust.solve_robust_policy(inst, poly, cls, tolerance=ROBUST_TOLERANCE)

    def check(policy, queries):
        return _policy_problems(policy, queries, canonical_queries(n, k)), (
            f"game_value={policy.game_value}"
        )

    return Item(f"library-n{n}", run, check)


def _policy_problems(policy, queries: int, expected: int) -> list[str]:
    problems = []
    p = policy.probabilities
    if sum(p) != 1 or min(p) < 0:
        problems.append(f"policy {p} is not a distribution")
    if not 0 <= policy.worst_case - policy.game_value == policy.convergence_gap <= ROBUST_TOLERANCE:
        problems.append(f"convergence gap {policy.convergence_gap} out of range")
    if queries != expected:
        problems.append(f"{queries} queries, expected {expected}")
    return problems


def _plugin_vs_robust(work: Path, k: int = 16) -> Item:
    cfg = {"experiment": "plugin-vs-robust", "k": k, "seed": 0, "out": str(work / "out")}
    config = _write_config(work, "config", cfg)

    def check(rc, queries):
        problems = [] if rc == 0 else [f"exit code {rc}"]
        out = json.loads((work / "out" / "plugin_vs_robust.json").read_text())
        risk = Fraction(out["plugin_risk_exact"])
        if risk != Fraction(k * k + 2 * k - 12, k * k * (k + 8)):
            problems.append(f"plug-in risk {risk}")
        if out["robust_worst_case"] != 0:
            problems.append(f"robust worst case {out['robust_worst_case']}")
        expected = 2 * elicitation_budget(3, k) + canonical_queries(3, k)
        if queries != expected:
            problems.append(f"{queries} queries, expected {expected}")
        return problems, f"risk={risk};policy={','.join(out['robust_policy'])}"

    return Item("plugin-vs-robust", _run_cli(config), check)


def _hard_pair(k: int = 16) -> Item:
    def run():
        pair = gaplearn.hardness.hard_pair_instance(k)
        inst = pair.instance_a
        oracle = gaplearn.oracle.ComparisonOracle(inst, gaplearn.oracle.OracleConfig(k=k))
        poly = gaplearn.robust.build_polytope(oracle)
        policy = gaplearn.robust.solve_robust_policy(inst, poly, pair.cls, tolerance=ROBUST_TOLERANCE)
        grid = gaplearn.robust.grid_game_value(inst, poly, pair.cls)
        return policy, grid

    def check(outcome, queries):
        policy, grid = outcome
        problems = _policy_problems(policy, queries, canonical_queries(2, k))
        if policy.rounds < 2:
            problems.append(f"double oracle took {policy.rounds} round")
        if abs(grid - float(policy.game_value)) > GRID_SLACK:
            problems.append(f"grid value {grid} vs solver {float(policy.game_value)}")
        return problems, f"game_value={policy.game_value}"

    return Item("hard-pair", run, check)


# Three passes of this mix sort as 3 plugin-vs-robust, 3 hard-pair, 3 n=5,
# 6 n=4, 6 n=3 items, so the median and the tail (10 items beyond) both land
# on the second-fastest n=4 item, inside a group of like items.
ROBUST_MIX = (
    "robust-n3", "library-n4", "library-n5", "library-n4", "robust-n3",
    "plugin-vs-robust", "hard-pair",
)


def _robust_game(wid: int):
    def make(seed: int, idx: int, work: Path) -> Item:
        rng = _rng(seed, wid, idx)
        # The warm-up is the cheapest item that reaches the polytope and the game.
        kind = "plugin-vs-robust" if idx < 0 else ROBUST_MIX[idx % len(ROBUST_MIX)]
        if kind == "robust-n3":
            return _robust_cli(rng, work, 3, 16)
        if kind == "library-n4":
            return _robust_library(rng, 4, 16)
        if kind == "library-n5":
            return _robust_library(rng, 5, 8)
        if kind == "plugin-vs-robust":
            return _plugin_vs_robust(work)
        return _hard_pair()

    return make


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-wide", 1, 11, 1, _sweep(1, 1000, [256, 1024], 0.0)),
        Workload("sweep-noisy", 2, 11, 1, _sweep(2, 256, [1024], 0.1)),
        Workload("audit-small", 3, 50, 1, _audit(3)),
        Workload("robust-game", 4, 3 * len(ROBUST_MIX), len(ROBUST_MIX), _robust_game(4), True),
    )
}
