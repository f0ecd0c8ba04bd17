"""Tests of the benchmark's own correctness checker and configuration.

    python3 bench/selftest.py

Forged answers (a "yes" whose proof does not verify, a "no" whose
countervaluation does not refute, a nonzero law-failure count, answers that
differ between rounds) must each raise error_share.
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from catlog import corpus  # noqa: E402
from catlog.consequence import (  # noqa: E402
    AxiomInstance, Budget, Proof, Step, Verdict, derives,
)
from catlog.formulas import Substitution  # noqa: E402

import answers  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ENV = corpus.fresh_env()
EXPECTED = answers.load_expected()


def prove_ops(forged: dict[str, Verdict]) -> list[dict]:
    """Judge forged verdicts for a subset of the prove goals."""
    wl = workloads.Prove(0, ENV, BENCH)
    wl.goals = [g for g in wl.goals if g[0] in forged]
    return wl.check(forged, EXPECTED)


def share(ops: list[dict], rounds: int = 1) -> dict:
    return run.judge_rounds([{"workload": "test", "ops": ops}] * rounds)


class CheckerTest(unittest.TestCase):
    def test_genuine_proof_is_no_error(self):
        cpl1 = ENV.logic("CPL1")
        goal = workloads.formulas.parse("imp(x0, x0)", cpl1.signature)
        ops = prove_ops({"id_cpl1": derives(cpl1, [], goal, Budget())})
        self.assertEqual(ops[0]["errors"], 0)
        self.assertEqual(share(ops)["error_share"], 1 / 3)

    def test_forged_yes_with_bad_proof_is_an_error(self):
        goal = workloads.formulas.parse("imp(x0, x0)", ENV.logic("CPL1").signature)
        bogus = Proof([Step(goal, AxiomInstance(0, Substitution({})))])
        ops = prove_ops({"id_cpl1": Verdict.yes(proof=bogus)})
        self.assertEqual(ops[0]["error"], "proof fails verify_proof")
        self.assertEqual(share(ops)["error_share"], 2 / 3)
        self.assertEqual(share(ops)["failed"], 1)

    def test_forged_no_that_does_not_refute_is_an_error(self):
        ops = prove_ops({"refute_cpl1": Verdict.no(counter={"x0": "1", "x1": "1"})})
        self.assertEqual(ops[0]["error"], "countervaluation does not refute")
        self.assertEqual(share(ops)["error_share"], 2 / 3)

    def test_genuine_no_is_no_error(self):
        ops = prove_ops({"refute_cpl1": Verdict.no(counter={"x0": "1", "x1": "0"})})
        self.assertEqual(ops[0]["errors"], 0)

    def test_unknown_is_always_acceptable(self):
        ops = prove_ops({"refute_cpl1": Verdict.unknown(), "id_cpl1": Verdict.unknown()})
        self.assertEqual(sum(op["errors"] for op in ops), 0)
        self.assertEqual(share(ops)["decided_share"], 0)

    def test_known_defect_counts_in_error_share_not_in_failed(self):
        ops = prove_ops({"inter_peirce": Verdict.yes(reason="matrix interderivability")})
        self.assertEqual(share(ops)["error_share"], 2 / 3)
        self.assertEqual(share(ops)["failed"], 0)

    def test_law_failures_are_counted(self):
        wl = workloads.Laws(0, ENV, BENCH)
        raw = {"sweep": {"cases": 10, "failures": [[0, 0, 0], [1, 2, 3]]},
               "category": {"cases": 5, "failures": []}}
        ops = wl.check(raw, EXPECTED)
        self.assertEqual([op["errors"] for op in ops], [2, 0])
        self.assertEqual(share(ops)["error_share"], 3 / 17)
        self.assertEqual(share(ops)["failed"], 2)

    def test_answers_that_differ_between_rounds_are_errors(self):
        ops = prove_ops({"refute_cpl1": Verdict.unknown()})
        other = [dict(op, digest="0" * 64) for op in ops]
        verdict = run.judge_rounds([{"workload": "prove", "ops": ops},
                                    {"workload": "prove", "ops": other}])
        self.assertEqual(verdict["error_share"], 2 / 3)
        self.assertEqual(verdict["failed"], 1)


class ProbeTest(unittest.TestCase):
    def test_probe_samples_while_open_and_stops_after(self):
        with probe.SpeedProbe() as speed:
            start = time.perf_counter()
            while time.perf_counter() - start < 0.3:
                sum(range(1000))
        count = len(speed.samples)
        self.assertGreaterEqual(count, 3)
        self.assertGreater(speed.scale(), 0)
        self.assertAlmostEqual(speed.spent(), sum(speed.samples))
        time.sleep(0.15)
        self.assertEqual(len(speed.samples), count)


class ConfigurationTest(unittest.TestCase):
    def test_expected_file_lists_every_operation(self):
        ids = {f"laws.{p}" for p in ("sweep", "category", "kleisli_theorem",
                                     "regularity", "strict_functor")}
        ids |= {f"prove.{g[0]}" for g in workloads.GOALS}
        ids |= {f"analysis.{c[0]}" for c in workloads.COMMANDS}
        self.assertEqual(set(EXPECTED), ids)
        self.assertEqual([g[0] for g in workloads.GOALS], run.GOAL_IDS)

    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {f"{w}.{m}": run.unit_of(m)
                          for w, names in run.PER_LAYER.items() for m in names})


if __name__ == "__main__":
    unittest.main()
