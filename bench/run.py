"""catlog benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 bench/run.py --workload laws --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Every round is a fresh interpreter
(bench/worker.py) so caches never carry over between rounds.  Rounds come in
cycles whose round k runs with PYTHONHASHSEED=k: proof-search cost and
memory depend on set iteration order, so every run sees each hash seed
equally often, and answers must not change with them.  Times are scaled to
a reference host speed (probe.py).
The last stdout line is one JSON object: correct, attempted, failed and
metrics.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import answers

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().with_name("worker.py")
WORKLOADS = ("laws", "prove", "analysis")
# a run makes cycles of HASH_SEEDS rounds until --seconds have passed
# (warm-up included), the last cycle ending within half a cycle of it
HASH_SEEDS = 4
ROUND_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s", "scaled_cpu_s": "s", "decided_share": "ratio",
    "error_share": "ratio", "peak_rss_mb": "MB",
}

GOAL_IDS = [
    "id_cpl1", "id_imp", "mp_imp", "hyp_syllogism", "dne_cpl1_wide", "refute_imp",
    "refute_cpl1", "dne_cpl1", "dne_thm_cpl1", "dni_cpl1", "peirce_imp",
    "inter_peirce", "inter_dne_cpl1", "inter_sep_cpl1", "inter_impfrag",
]
# per-layer metrics of the traced run, by workload; BENCHMARK.json lists each
# as "<workload>.<metric>".  Layer totals are "layer.<module>.{self_s,calls}".
PER_LAYER = {
    "laws": [
        "formulas.substitute.calls", "formulas.substitute.self_s",
        "formulas.enumerate.calls", "formulas.enumerate.self_s",
        "formulas.fmt.calls", "formulas.fmt.self_s",
        "kleisli.compose.calls", "kleisli.compose.self_s",
        "kleisli.extension.calls", "kleisli.extension.self_s",
        "kleisli.morphism_enum.self_s", "kleisli.flatten.self_s",
        "kleisli.truncate.self_s",
        "kleisli.check_us.p50", "kleisli.check_us.p99", "kleisli.check_us.count",
        "signatures.strict_extension.calls", "signatures.strict_extension.self_s",
        "dsl.loads.calls", "dsl.loads.self_s",
        "layer.formulas.self_s", "layer.formulas.calls",
        "layer.signatures.self_s", "layer.signatures.calls",
        "layer.kleisli.self_s", "layer.kleisli.calls",
        "layer.dsl.self_s", "layer.dsl.calls",
        "round.wall_s", "round.cpu_s", "probe.slice_us", "trace.overhead_s",
    ],
    "prove": [
        "formulas.match.calls", "formulas.match.self_s", "formulas.match.hit_ratio",
        "formulas.parse.self_s",
        "formulas.substitute.calls", "formulas.substitute.self_s",
        "formulas.enumerate.self_s",
        "consequence.derives.calls", "consequence.derives.self_s",
        "consequence.search.calls", "consequence.search.self_s",
        "consequence.matrix.calls", "consequence.decided_ratio",
        "consequence.verify.self_s",
        *[f"consequence.goal.{g}_s" for g in GOAL_IDS],
        "dsl.loads.calls", "dsl.loads.self_s",
        "layer.formulas.self_s", "layer.formulas.calls",
        "layer.consequence.self_s", "layer.consequence.calls",
        "layer.dsl.self_s", "layer.dsl.calls",
        "round.wall_s", "round.cpu_s", "probe.slice_us", "trace.overhead_s",
    ],
    "analysis": [
        "formulas.parse.self_s", "formulas.substitute.self_s",
        "formulas.enumerate.self_s",
        "kleisli.morphism_enum.self_s",
        "kleisli.extension.calls", "kleisli.extension.self_s",
        "consequence.matrix.calls", "consequence.matrix.self_s",
        "consequence.derives.calls", "consequence.derives.self_s",
        "consequence.verify.self_s",
        "logic_cat.check_translation.calls", "logic_cat.check_translation.self_s",
        "logic_cat.check_translation.verified_ratio", "logic_cat.construct.self_s",
        "quotient.rigidity.self_s", "quotient.rigidity.verified_ratio",
        "quotient.congruential.self_s", "quotient.weak_equivalence.self_s",
        "quotient.morphisms_equivalent.self_s", "quotient.lindenbaum.self_s",
        "quotient.closure.self_s",
        "dsl.loads.calls", "dsl.loads.self_s", "cli.main.self_s",
        "layer.formulas.self_s", "layer.formulas.calls",
        "layer.kleisli.self_s", "layer.kleisli.calls",
        "layer.consequence.self_s", "layer.consequence.calls",
        "layer.logic_cat.self_s", "layer.logic_cat.calls",
        "layer.quotient.self_s", "layer.quotient.calls",
        "layer.dsl.self_s", "layer.dsl.calls",
        "layer.cli.self_s", "layer.cli.calls",
        "round.wall_s", "round.cpu_s", "probe.slice_us", "trace.overhead_s",
    ],
}
# spans whose wrapper counts hits (spans.BOUNDARIES), and the ratio's name
RATIOS = {
    "formulas.match": "formulas.match.hit_ratio",
    "consequence.derives": "consequence.decided_ratio",
    "logic_cat.check_translation": "logic_cat.check_translation.verified_ratio",
}
LAYERS = ("formulas", "signatures", "kleisli", "consequence", "logic_cat",
          "quotient", "dsl", "cli")


class BenchError(RuntimeError):
    pass


def unit_of(metric: str) -> str:
    if metric.endswith(".calls") or metric.endswith(".count"):
        return "count"
    if metric.endswith("_ratio"):
        return "ratio"
    if ".check_us." in metric or metric.endswith("_us"):
        return "us"
    return "s"


def _worker(args: list[str], hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_round(workload: str, seed: int, hash_seed: int, traced: bool = False) -> dict:
    args = ["--workload", workload, "--seed", str(seed)]
    return _worker(args + (["--trace"] if traced else []), hash_seed)


def judge_rounds(rounds: list[dict]) -> dict:
    """Correctness over rounds that ran one workload at one seed.

    An operation is an error when any round judged it wrong or when its
    answer digest differs between rounds.  Known defects (expected.txt)
    count in error_share but not in `failed`.
    """
    expected = answers.load_expected()
    first = rounds[0]["ops"]
    by_id = {op["id"]: [] for op in first}
    for r in rounds:
        for op in r["ops"]:
            by_id[op["id"]].append(op)
    errors = failed = attempted = decided = verdicts = 0
    for op_id, runs in by_id.items():
        defect = expected[op_id].defect
        mismatch = len({op["digest"] for op in runs}) > 1
        errors += max(op["errors"] for op in runs) + mismatch
        failed += mismatch + (0 if defect else sum(op["errors"] for op in runs))
        attempted += sum(op["count"] for op in runs)
        if runs[0]["verdict"]:
            decided += runs[0]["decided"]
            verdicts += runs[0]["count"]
        for op in runs:
            if op["errors"] and not defect:
                print(f"error: {op_id}: {op['error']}", file=sys.stderr)
        if mismatch:
            print(f"error: {op_id}: answer differs between rounds", file=sys.stderr)
    total = sum(op["count"] for op in first)
    return {"attempted": attempted, "failed": failed,
            # rule of succession: never 0, 1/(n+2) when nothing is wrong
            "error_share": (errors + 1) / (total + 2),
            "decided_share": decided / verdicts}


def check_coverage(workload: str, rounds: list[dict]) -> None:
    """Every round answers exactly the operations expected.txt lists."""
    want = sorted(k for k in answers.load_expected() if k.startswith(workload + "."))
    for r in rounds:
        got = sorted(op["id"] for op in r["ops"])
        if got != want:
            raise BenchError(f"{workload}: operations {got} != expected {want}")


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    # warm-up start: the first start in a checkout compiles bytecode
    _worker(["--setup-only"], 0)
    rounds = []
    while True:
        cycle_start = time.perf_counter()
        rounds += [run_round(workload, seed, k) for k in range(HASH_SEEDS)]
        now = time.perf_counter()
        if now - start + (now - cycle_start) / 2 > seconds:
            break
    count = len(rounds)
    check_coverage(workload, rounds)
    verdict = judge_rounds(rounds)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "scaled_cpu_s": statistics.median(r["scaled_cpu_s"] for r in rounds),
        "decided_share": verdict["decided_share"],
        "error_share": verdict["error_share"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    print(f"{workload}: setup_s, scaled_cpu_s and peak_rss_mb are medians of "
          f"{count} rounds")
    for key in ("scaled_cpu_s", "cpu_s", "wall_s", "slice_us",
                "setup_s", "setup_cpu_s", "setup_wall_s", "peak_rss_mb"):
        print(f"  {key} per round: {[round(r[key], 3) for r in rounds]}")
    return _result(verdict["attempted"], verdict["failed"],
                   {name: (values[name], unit) for name, unit in END_TO_END.items()})


def layer_metrics(workload: str, plain: dict, traced: dict) -> dict:
    summary = traced["trace"]
    values = {}
    for layer in LAYERS:
        entries = [v for k, v in summary.items() if k.startswith(layer + ".")]
        values[f"layer.{layer}.self_s"] = sum(e["self_s"] for e in entries)
        values[f"layer.{layer}.calls"] = sum(e["calls"] for e in entries)
    for name, entry in summary.items():
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_s"] = entry["self_s"]
        if name.startswith("goal."):
            values[f"consequence.{name}_s"] = entry["total_s"]
        if name in RATIOS:
            values[RATIOS[name]] = entry.get("hits", 0) / entry["calls"]
    for key, value in traced.get("check_us", {}).items():
        values[f"kleisli.check_us.{key}"] = value
    if "rigidity_verified_ratio" in traced:
        values["quotient.rigidity.verified_ratio"] = traced["rigidity_verified_ratio"]
    values["round.wall_s"] = plain["wall_s"]
    values["round.cpu_s"] = plain["cpu_s"]
    values["probe.slice_us"] = plain["slice_us"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return {f"{workload}.{m}": (values.get(m, 0), unit_of(m)) for m in PER_LAYER[workload]}


def traced_run(seed: int) -> dict:
    """Every workload, once untraced and once traced, so that each per-layer
    metric is measured whichever --workload was asked for."""
    metrics, attempted, failed = {}, 0, 0
    for workload in WORKLOADS:
        plain = run_round(workload, seed, 0)
        traced = run_round(workload, seed, 0, traced=True)
        check_coverage(workload, [plain, traced])
        verdict = judge_rounds([plain, traced])
        attempted += verdict["attempted"]
        failed += verdict["failed"]
        metrics.update(layer_metrics(workload, plain, traced))
    return _result(attempted, failed, metrics)


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "catlog" / "__init__.py").is_file():
        print(f"error: no catlog sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        result = (traced_run(args.seed) if args.trace
                  else timed_run(args.workload, args.seed, args.seconds))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
