"""The three benchmark workloads.

Each workload is built from its seed (the same seed gives the same inputs),
runs a fixed number of operations in `run`, which is the timed part, and
turns the raw answers into judged operation records in `check`, which is
not timed.  Library calls go through module attributes (`kleisli.x`, not
`from catlog.kleisli import x`) so that a traced round sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from catlog import cli, consequence, formulas, kleisli, logic_cat, signatures
from catlog.consequence import Budget
from catlog.signatures import Signature

import answers
import check

# ---------------------------------------------------------------------------
# laws: Kleisli laws, nearly all work in formulas and kleisli

A2 = Signature("A2", {"b": 2})
A3 = Signature("A3", {"n": 1, "b": 2})
# strict-functoriality shapes: F1 -> F2 has 4 morphisms, F2 -> F3 has 4
F1 = Signature("F1", {"n": 1, "b": 2})
F2 = Signature("F2", {"n": 1, "m": 1, "b": 2, "c": 2})
F3 = Signature("F3", {"u": 1, "v": 1, "b": 2})
# the sweep takes the first SWEEP_FIRST of the 20 morphisms A2 -> A3
SWEEP_FIRST = 10
CATEGORY_CASES = 20
KLEISLI_CASES = 60
REGULARITY_CASES = 20
REGULARITY_BOUND = 3
# The random suites' cost depends heavily on their seed (0.2 to 0.7 s for
# the three together), so their seeds are fixed: every run does the same
# work and --seed only orders the operations.
SUITE_SEEDS = (1, 2, 3)


def _digest(payload) -> str:
    if not isinstance(payload, bytes):
        payload = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def _op(op_id: str, answer: str, error: str | None, digest: str, *,
        count: int = 1, errors: int | None = None, verdict: bool = True) -> dict:
    """One judged operation; `count` is the number of checks it stands for."""
    if errors is None:
        errors = 1 if error else 0
    decided = count if verdict and answer != "unknown" else 0
    return {"id": op_id, "answer": answer, "error": error, "digest": digest,
            "count": count, "errors": errors, "verdict": verdict, "decided": decided}


class Laws:
    """A fixed slice of the A2 -> A3 -> A2 half of criterion 01's factored
    associativity sweep (10 x 56 morphism pairs x 18 slice formulas =
    10,080 checks) in a seeded order, the category, Kleisli-theorem and
    regularity suites, and strict functoriality of the slice construction."""

    def __init__(self, seed: int, env, workdir: Path):
        rng = random.Random(seed)
        self.pairs = [(i, j) for i in range(SWEEP_FIRST) for j in range(56)]
        rng.shuffle(self.pairs)
        self.suite_seeds = SUITE_SEEDS
        self.strict_pairs = [(i, j) for i in range(4) for j in range(4)]
        rng.shuffle(self.strict_pairs)

    def run(self, tracer) -> dict:
        out = {}
        first = kleisli.all_flexible_morphisms(A2, A3, 2)
        second = kleisli.all_flexible_morphisms(A3, A2, 2)
        if (len(first), len(second)) != (20, 56):
            raise ValueError("associativity sweep pools changed size")
        slices = [phi for n in range(3) for phi in formulas.enumerate_slice(A2, n, 2)]
        ext = kleisli.flexible_extension
        failures = []
        span = tracer.span("laws.check")
        for i, j in self.pairs:
            h2, h3 = first[i], second[j]
            comp = kleisli.kleisli_compose(h3, h2)
            for k, phi in enumerate(slices):
                with span:
                    ok = ext(comp, phi) == ext(h3, ext(h2, phi))
                if not ok:
                    failures.append([i, j, k])
        out["sweep"] = {"cases": len(self.pairs) * len(slices), "failures": failures}
        cat_seed, kle_seed, reg_seed = self.suite_seeds
        out["category"] = kleisli.suite_category_laws(CATEGORY_CASES, cat_seed, 3)
        out["kleisli_theorem"] = kleisli.suite_kleisli_theorem(KLEISLI_CASES, kle_seed, 3)
        out["regularity"] = kleisli.suite_regularity(
            REGULARITY_CASES, reg_seed, compl_bound=REGULARITY_BOUND)
        out["strict_functor"] = self._strict_functor()
        return out

    def _strict_functor(self) -> dict:
        fs = kleisli.all_strict_morphisms(F1, F2)
        gs = kleisli.all_strict_morphisms(F2, F3)
        checks, failures = 0, []
        for i, j in self.strict_pairs:
            f, g = fs[i], gs[j]
            tf, src, _ = kleisli.t_on_strict(f, 3, 2)
            tg, _, _ = kleisli.t_on_strict(g, 3, 2)
            tgf, _, _ = kleisli.t_on_strict(signatures.compose_strict(g, f), 3, 2)
            for ident in src.signature.connectives:
                checks += 1
                if tgf(ident) != tg(tf(ident)):
                    failures.append([i, j, ident])
        return {"cases": checks, "failures": failures}

    def check(self, raw: dict, expected) -> list[dict]:
        ops = []
        for part, report in raw.items():
            want = int(expected[f"laws.{part}"].answer)
            got = len(report["failures"])
            ops.append(_op(f"laws.{part}", str(got),
                           None if got == want else f"{got} law failures",
                           _digest(report), count=report["cases"],
                           errors=abs(got - want)))
        return ops


# ---------------------------------------------------------------------------
# prove: backward proof search in consequence

PEIRCE = "imp(imp(imp(x0, x1), x0), x0)"
DEFAULT = "40,6,4,2"
# id, kind, logic, hypotheses, goal, budget.  Budgets are cut down from the
# default so that one round takes a few seconds, keeping every category:
# proved, matrix-refuted, budget-exhausted and the known wrong "yes".
GOALS = [
    ("id_cpl1", "derives", "CPL1", [], "imp(x0, x0)", DEFAULT),
    ("id_imp", "derives", "IMP", [], "imp(x0, x0)", DEFAULT),
    ("mp_imp", "derives", "IMP", ["x0", "imp(x0, x1)"], "x1", DEFAULT),
    ("hyp_syllogism", "derives", "IMPFRAG", ["imp(x0, x1)", "imp(x1, x2)"],
     "imp(x0, x2)", "7,4,2,3"),
    ("dne_cpl1_wide", "derives", "CPL1", ["neg(neg(x0))"], "x0", "40,8,2,1"),
    ("refute_imp", "derives", "IMP", [], "imp(x0, x1)", DEFAULT),
    ("refute_cpl1", "derives", "CPL1", [], "imp(x0, x1)", DEFAULT),
    ("dne_cpl1", "derives", "CPL1", ["neg(neg(x0))"], "x0", "5,6,4,2"),
    ("dne_thm_cpl1", "derives", "CPL1", [], "imp(neg(neg(x0)), x0)", "5,6,4,2"),
    ("dni_cpl1", "derives", "CPL1", ["x0"], "neg(neg(x0))", "5,6,4,2"),
    ("peirce_imp", "derives", "IMP", [], PEIRCE, "5,6,2,2"),
    ("inter_peirce", "interderivable", "IMP", ["imp(x0, x0)"], PEIRCE, DEFAULT),
    ("inter_dne_cpl1", "interderivable", "CPL1", ["x0"], "neg(neg(x0))", DEFAULT),
    ("inter_sep_cpl1", "interderivable", "CPL1", ["x0"], "x1", DEFAULT),
    ("inter_impfrag", "interderivable", "IMPFRAG", ["x0"],
     "imp(imp(x0, x0), x0)", DEFAULT),
]


class Prove:
    """Fixed goal set of `derives` and `interderivable` queries on CPL1, IMP
    and IMPFRAG, in a seeded order."""

    def __init__(self, seed: int, env, workdir: Path):
        order = list(GOALS)
        random.Random(seed).shuffle(order)
        self.goals = []
        for goal_id, kind, logic_name, hyps, goal, budget in order:
            logic = env.logic(logic_name)
            sig = logic.signature
            self.goals.append((goal_id, kind, logic,
                               [formulas.parse(h, sig) for h in hyps],
                               formulas.parse(goal, sig), Budget.parse(budget)))

    def run(self, tracer) -> dict:
        out = {}
        for goal_id, kind, logic, hyps, goal, budget in self.goals:
            with tracer.span(f"goal.{goal_id}"):
                if kind == "derives":
                    out[goal_id] = consequence.derives(logic, hyps, goal, budget)
                else:
                    out[goal_id] = consequence.interderivable(logic, hyps[0], goal, budget)
        return out

    def check(self, raw: dict, expected) -> list[dict]:
        ops = []
        for goal_id, kind, logic, hyps, goal, _ in self.goals:
            v = raw[goal_id]
            if kind == "derives":
                err = check.derivation_error(logic, hyps, goal, v.status, v.proof, v.counter)
            else:
                err = check.interderivable_error(logic, hyps[0], goal, v.status,
                                                 v.detail, v.counter)
            want = expected[f"prove.{goal_id}"].answer
            if err is None and answers.contradicts(want, v.status):
                err = f"answered {v.status}, expected {want}"
            ops.append(_op(f"prove.{goal_id}", v.status, err, _digest(v.to_json())))
        return ops


# ---------------------------------------------------------------------------
# analysis: quotient / logic_cat / matrix sweeps through the command line

COMMANDS = [
    ("rigidity.CPL1", "rigidity", ["--bound", "3", "rigidity", "--logic", "CPL1"]),
    # CPL2 at bound 3 takes 16 s, four times the rest of the list; bound 2
    # (180 endomorphisms) already reports the wrong first witness
    ("rigidity.CPL2", "rigidity", ["--bound", "2", "rigidity", "--logic", "CPL2"]),
    ("rigidity.BotNeg", "rigidity", ["--bound", "3", "rigidity", "--logic", "BotNeg"]),
    ("congruential.L3", "status", ["congruential", "--logic", "L3"]),
    ("congruential.CPL1", "status", ["congruential", "--logic", "CPL1"]),
    ("congruential.NC3", "status", ["congruential", "--logic", "NC3"]),
    ("equipollent.h_k", "status", ["equipollent", "--source", "CPL1", "--target",
                                   "CPL2", "--via", "h", "--back", "k"]),
    ("lindenbaum.pair", "lindenbaum", ["lindenbaum", "--logic", "CPL1", "--delta",
                                       "imp(x0, x1); imp(x1, x0)"]),
    ("lindenbaum.half", "lindenbaum", ["lindenbaum", "--logic", "CPL1", "--delta",
                                       "imp(x0, x1)"]),
    ("quotient_equal.incl", "status", ["quotient-equal", "--left", "inclImp", "--right",
                                       "inclImpStrict", "--source", "IMP",
                                       "--target", "CPL1"]),
    ("translate.h", "status", ["translate", "--via", "h", "--source", "CPL1",
                               "--target", "CPL2"]),
    ("closure.NEGFRAG", "closure", ["closure", "--logic", "NEGFRAG"]),
    ("fibre.goal", "fibre", ["fibre", "--left", "IMPFRAG", "--right", "NEGFRAG",
                             "--goal", "imp_0(x0, x0)"]),
]


class Analysis:
    """In-process `cli.main([... "--json", path])` for a fixed command list,
    in a seeded order; each command re-parses the standard corpus."""

    def __init__(self, seed: int, env, workdir: Path):
        self.seed = seed
        self.env = env
        self.workdir = workdir
        self.commands = list(COMMANDS)
        random.Random(seed).shuffle(self.commands)
        self.verified = self.endomorphisms = 0

    def run(self, tracer) -> dict:
        out = {}
        sink = io.StringIO()
        for op_id, _, argv in self.commands:
            path = self.workdir / f"{op_id}.json"
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(["--json", str(path), "--seed", str(self.seed)] + argv)
            out[op_id] = (code, path)
        return out

    def check(self, raw: dict, expected) -> list[dict]:
        ops = []
        for op_id, kind, _ in self.commands:
            code, path = raw[op_id]
            data = path.read_bytes() if path.exists() else b""
            report = json.loads(data) if data else {}
            answer, err, verdict = self._answer(kind, code, report)
            want = expected[f"analysis.{op_id}"].answer
            if err is None and answers.contradicts(want, answer):
                err = f"answered {answer}, expected {want}"
            ops.append(_op(f"analysis.{op_id}", answer, err,
                           _digest(data + b"exit=%d" % code), verdict=verdict))
        return ops

    def _answer(self, kind: str, code: int, report: dict):
        if code == cli.EXIT_USAGE or not report:
            return "error", f"exit code {code}", True
        if kind == "rigidity":
            self.verified += report["verified_translations"]
            self.endomorphisms += report["endomorphisms"]
            return ("rigid" if report["rigid"] else "not-rigid"), None, True
        if kind == "status":
            return report["status"], None, True
        if kind == "lindenbaum":
            if report["passed"]:
                return "pass", None, True
            return ("fail" if code == cli.EXIT_REFUTED else "unknown"), None, True
        if kind == "closure":
            return "built", None, False
        # fibre --goal: re-check the proof against the rebuilt fibring
        goal = report["goal"]
        status = goal["verdict"]
        err = None
        if status == "yes":
            fibred, _, _ = logic_cat.fibring_unconstrained(
                self.env.logic("IMPFRAG"), self.env.logic("NEGFRAG"))
            sig = fibred.signature
            err = check.proof_error(fibred, [], formulas.parse(goal["formula"], sig),
                                    check.proof_from_json(goal["proof"], sig))
        return status, err, True


WORKLOADS = {"laws": Laws, "prove": Prove, "analysis": Analysis}
