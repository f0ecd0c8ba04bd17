"""Command line interface: load spec files, prove, translate, combine,
quotient-check, and run the law suites.

Exit codes: 0 all checks passed / derivable, 1 refuted, 2 undecided within
budget, 3 usage or input error.  Reports are JSON with sorted keys; given
the same inputs and seed the bytes are identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import corpus, dsl, kleisli
from .consequence import Budget, derives
from .formulas import fmt, parse
from .kleisli import is_regular, kleisli_compose, kleisli_identity
from .logic_cat import (
    Translation, VERIFIED, as_flexible, check_translation, directed_colimit_logics,
    fibring_constrained, fibring_unconstrained, product_logic,
)
from .quotient import (
    CONFIRMED, REFUTED, congruential_closure, is_congruential,
    lindenbaum_delta_check, morphisms_equivalent, rigidity_probe,
    weak_equivalence,
)
from .signatures import UnsupportedConstruction

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


def load_env(spec: str) -> dsl.Environment:
    if spec == "standard":
        return corpus.fresh_env()
    return dsl.load(spec)


def emit(report: dict, json_path: str | None, summary: str) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(summary)
    if not json_path:
        print(text)


def status_exit(status: str) -> int:
    if status in ("yes", "verified", CONFIRMED, "pass"):
        return EXIT_OK
    if status in ("no", "refuted", REFUTED):
        return EXIT_REFUTED
    return EXIT_UNKNOWN


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors reach `main` as exceptions, so that
    they exit with EXIT_USAGE like every other input error."""

    def error(self, message):
        raise ValueError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="catlog",
        description="categorical toolkit for propositional logics")
    parser.add_argument("--spec", default="standard",
                        help="spec file path, or 'standard' for the built-in corpus")
    parser.add_argument("--json", default=None, help="write the JSON report here")
    parser.add_argument("--budget", default="40,6,4,2",
                        help="proof-length,instance-compl,enum-compl,variables")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bound", type=int, default=4)
    parser.add_argument("--n", type=int, default=2, dest="nvars")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load and validate a spec file")
    sub.add_parser("load", help="alias of validate")

    p = sub.add_parser("prove", help="search a derivation")
    p.add_argument("--logic", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--hyp", action="append", default=[])

    p = sub.add_parser("translate", help="check a morphism between two logics")
    p.add_argument("--via", required=True)
    p.add_argument("--source", "--from", dest="source", required=True)
    p.add_argument("--target", "--to", dest="target", required=True)

    p = sub.add_parser("check-morphism", help="validate a declared morphism")
    p.add_argument("--name", required=True)

    p = sub.add_parser("check-regular", help="regularity of a flexible morphism")
    p.add_argument("--name", required=True)

    p = sub.add_parser("fibre", help="unconstrained fibring of two logics")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--goal", default=None)

    p = sub.add_parser("fibre-shared", help="constrained fibring over a shared logic")
    p.add_argument("--shared", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--left-map", required=True)
    p.add_argument("--right-map", required=True)
    p.add_argument("--goal", default=None)

    p = sub.add_parser("product", help="product of two logics")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--goal", default=None)
    p.add_argument("--hyp", action="append", default=[])

    p = sub.add_parser("colimit-chain", help="directed colimit of a chain")
    p.add_argument("--stages", required=True, help="comma separated logic names")
    p.add_argument("--maps", required=True, help="comma separated morphism names")
    p.add_argument("--goal", default=None)

    p = sub.add_parser("quotient-equal", help="morphism equality in the quotient")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--source", "--from", dest="source", required=True)
    p.add_argument("--target", "--to", dest="target", required=True)

    p = sub.add_parser("congruential", help="replacement compatibility check")
    p.add_argument("--logic", required=True)

    p = sub.add_parser("closure", help="bounded congruential closure")
    p.add_argument("--logic", required=True)
    p.add_argument("--goal", default=None)
    p.add_argument("--hyp", action="append", default=[])

    p = sub.add_parser("lindenbaum", help="equivalence-set conditions")
    p.add_argument("--logic", required=True)
    p.add_argument("--delta", required=True,
                   help="semicolon separated binary formulas")

    p = sub.add_parser("equipollent", help="two-way weak equivalence certificate")
    p.add_argument("--source", "--from", dest="source", required=True)
    p.add_argument("--target", "--to", dest="target", required=True)
    p.add_argument("--via", required=True)
    p.add_argument("--back", required=True)

    p = sub.add_parser("rigidity", help="endo-translations against identity")
    p.add_argument("--logic", required=True)

    p = sub.add_parser("laws", help="run a law suite")
    p.add_argument("--suite", required=True,
                   choices=["category", "kleisli", "monad", "adjunction",
                            "regularity"])
    p.add_argument("--cases", type=int, default=200)

    try:
        args = parser.parse_args(argv)
        return run(args, Budget.parse(args.budget))
    except (dsl.SpecError, FileNotFoundError, KeyError, ValueError,
            UnsupportedConstruction) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run(args, budget: Budget) -> int:
    env = load_env(args.spec)
    cmd = args.command

    if cmd in ("validate", "load"):
        emit({"command": "validate", "environment": env.summary()},
             args.json, "spec is well formed")
        return EXIT_OK

    if cmd == "prove":
        logic = env.logic(args.logic)
        goal = parse(args.goal, logic.signature)
        hyps = [parse(h, logic.signature) for h in args.hyp]
        verdict = derives(logic, hyps, goal, budget)
        report = {"command": "prove", "logic": args.logic, "goal": fmt(goal),
                  "hypotheses": [fmt(h) for h in hyps],
                  "budget": budget.to_json(), **verdict.to_json()}
        emit(report, args.json, f"{args.logic}: {verdict.status}")
        return status_exit(verdict.status)

    if cmd == "translate":
        morphism = env.morphism(args.via)
        source, target = env.logic(args.source), env.logic(args.target)
        t = check_translation(morphism, source, target, budget)
        emit({"command": "translate", **t.to_json()}, args.json,
             f"{args.via}: {t.status}")
        return status_exit(t.status)

    if cmd == "check-morphism":
        m = env.morphism(args.name)
        emit({"command": "check-morphism", "morphism": m.to_json(),
              "well_formed": True}, args.json, f"{args.name}: well formed")
        return EXIT_OK

    if cmd == "check-regular":
        m = env.morphism(args.name)
        flex = as_flexible(m)
        regular, witness = is_regular(flex)
        report = {"command": "check-regular", "morphism": flex.to_json(),
                  "regular": regular}
        if witness is not None:
            report["witness"] = fmt(witness)
        emit(report, args.json, f"{args.name}: {'regular' if regular else 'not regular'}")
        return EXIT_OK if regular else EXIT_REFUTED

    if cmd == "fibre":
        combined, t1, t2 = fibring_unconstrained(
            env.logic(args.left), env.logic(args.right))
        report = {"command": "fibre", "logic": combined.to_json(),
                  "dsl": dsl.logic_to_dsl(combined),
                  "injections": [t1.to_json(), t2.to_json()]}
        code = EXIT_OK
        if args.goal:
            goal = parse(args.goal, combined.signature)
            verdict = derives(combined, [], goal, budget)
            report["goal"] = {"formula": fmt(goal), **verdict.to_json()}
            code = status_exit(verdict.status)
        emit(report, args.json, f"fibring of {args.left} and {args.right} built")
        return code

    if cmd == "fibre-shared":
        shared = env.logic(args.shared)
        left, right = env.logic(args.left), env.logic(args.right)
        left_leg = _span_leg(env.morphism(args.left_map), shared, left, budget)
        right_leg = _span_leg(env.morphism(args.right_map), shared, right, budget)
        combined, t1, t2 = fibring_constrained(left_leg, right_leg)
        report = {"command": "fibre-shared", "logic": combined.to_json(),
                  "dsl": dsl.logic_to_dsl(combined),
                  "cocone": [t1.to_json(), t2.to_json()]}
        code = EXIT_OK
        if args.goal:
            goal = parse(args.goal, combined.signature)
            verdict = derives(combined, [], goal, budget)
            report["goal"] = {"formula": fmt(goal), **verdict.to_json()}
            code = status_exit(verdict.status)
        emit(report, args.json, "constrained fibring built")
        return code

    if cmd == "product":
        combined, t1, t2 = product_logic(env.logic(args.left), env.logic(args.right))
        report = {"command": "product", "signature": combined.signature.to_json(),
                  "projections": [t1.to_json(), t2.to_json()]}
        code = EXIT_OK
        if args.goal:
            goal = parse(args.goal, combined.signature)
            hyps = [parse(h, combined.signature) for h in args.hyp]
            verdict = derives(combined, hyps, goal, budget)
            report["goal"] = {"formula": fmt(goal), **verdict.to_json()}
            code = status_exit(verdict.status)
        emit(report, args.json, "product built")
        return code

    if cmd == "colimit-chain":
        stages = [env.logic(nm) for nm in args.stages.split(",")]
        maps = []
        names = [nm for nm in args.maps.split(",") if nm]
        for i, nm in enumerate(names):
            maps.append(_span_leg(env.morphism(nm), stages[i], stages[i + 1], budget))
        combined, cocone = directed_colimit_logics(stages, maps)
        report = {"command": "colimit-chain", "logic": combined.to_json(),
                  "dsl": dsl.logic_to_dsl(combined),
                  "cocone": [t.to_json() for t in cocone]}
        code = EXIT_OK
        if args.goal:
            goal = parse(args.goal, combined.signature)
            verdict = derives(combined, [], goal, budget)
            report["goal"] = {"formula": fmt(goal), **verdict.to_json()}
            code = status_exit(verdict.status)
        emit(report, args.json, "chain colimit built")
        return code

    if cmd == "quotient-equal":
        cert = morphisms_equivalent(
            env.morphism(args.left), env.morphism(args.right),
            env.logic(args.source), env.logic(args.target), budget,
            bounds=(args.bound, args.nvars))
        emit({"command": "quotient-equal", **cert.to_json()}, args.json,
             f"[{args.left}] = [{args.right}]: {cert.status} ({cert.scope})")
        return status_exit(cert.status)

    if cmd == "congruential":
        verdict = is_congruential(env.logic(args.logic),
                                  (args.bound, args.nvars), budget)
        emit({"command": "congruential", "logic": args.logic,
              **verdict.to_json()}, args.json,
             f"{args.logic}: {verdict.status}")
        return status_exit(verdict.status)

    if cmd == "closure":
        logic = env.logic(args.logic)
        closed = congruential_closure(logic, (args.bound, args.nvars), budget)
        added = 0
        if closed.calculus is not None and logic.calculus is not None:
            added = len(closed.calculus.rules) - len(logic.calculus.rules)
        report = {"command": "closure", "logic": args.logic,
                  "rules_added": added, "unchanged": closed is logic}
        code = EXIT_OK
        if args.goal:
            goal = parse(args.goal, logic.signature)
            hyps = [parse(h, logic.signature) for h in args.hyp]
            before = derives(logic, hyps, goal, budget)
            after = derives(closed, hyps, goal, budget)
            report["before"] = before.status
            report["after"] = after.to_json()
            code = status_exit(after.status)
        emit(report, args.json,
             f"closure of {args.logic}: {added} replacement rules added")
        return code

    if cmd == "lindenbaum":
        logic = env.logic(args.logic)
        delta = [parse(t, logic.signature) for t in args.delta.split(";") if t.strip()]
        report = lindenbaum_delta_check(logic, delta, budget,
                                        bounds=(min(args.bound, 2), args.nvars))
        emit({"command": "lindenbaum", "logic": args.logic, **report},
             args.json, f"{args.logic}: {'pass' if report['passed'] else 'fail'}")
        if report["passed"]:
            return EXIT_OK
        statuses = [v["status"] for v in report["conditions"].values()]
        return EXIT_REFUTED if REFUTED in statuses else EXIT_UNKNOWN

    if cmd == "equipollent":
        source, target = env.logic(args.source), env.logic(args.target)
        via, back = env.morphism(args.via), env.morphism(args.back)
        forward = weak_equivalence(via, source, target, n_max=args.nvars,
                                   target_compl=args.bound, budget=budget)
        backward = weak_equivalence(back, target, source, n_max=args.nvars,
                                    target_compl=args.bound, budget=budget)
        round_src = morphisms_equivalent(
            kleisli_compose(as_flexible(back), as_flexible(via)),
            kleisli_identity(source.signature), source, source, budget)
        round_tgt = morphisms_equivalent(
            kleisli_compose(as_flexible(via), as_flexible(back)),
            kleisli_identity(target.signature), target, target, budget)
        statuses = [forward.status, backward.status,
                    round_src.status, round_tgt.status]
        overall = (CONFIRMED if all(s == CONFIRMED for s in statuses)
                   else REFUTED if REFUTED in statuses else "unknown")
        report = {"command": "equipollent", "status": overall,
                  "forward": forward.to_json(), "backward": backward.to_json(),
                  "back_after_via": round_src.to_json(),
                  "via_after_back": round_tgt.to_json()}
        emit(report, args.json, f"equipollence: {overall}")
        return status_exit(overall)

    if cmd == "rigidity":
        report = rigidity_probe(env.logic(args.logic), bound=min(args.bound, 3),
                                budget=budget)
        emit({"command": "rigidity", "logic": args.logic, **report}, args.json,
             f"{args.logic}: {'rigid' if report['rigid'] else 'not rigid'}")
        return EXIT_OK if report["rigid"] else EXIT_REFUTED

    if cmd == "laws":
        suites = {
            "category": kleisli.suite_category_laws,
            "kleisli": kleisli.suite_kleisli_theorem,
            "monad": kleisli.suite_monad_laws,
            "adjunction": kleisli.suite_adjunction,
            "regularity": kleisli.suite_regularity,
        }
        report = suites[args.suite](args.cases, args.seed)
        emit({"command": "laws", **report}, args.json,
             f"{args.suite}: {len(report['failures'])} failure(s) in "
             f"{report['cases']} cases")
        return EXIT_OK if not report["failures"] else EXIT_REFUTED

    raise ValueError(f"unhandled command {cmd!r}")


def _span_leg(morphism, source, target, budget) -> Translation:
    """Build a Translation for a span leg, checking when checkable."""
    if source.calculus is not None:
        return check_translation(morphism, source, target, budget)
    if source.oracle is not None and source.decides:
        # least logics translate along every signature morphism
        return Translation(morphism, source, target, VERIFIED,
                           evidence=["membership is preserved by extensions"])
    return Translation(morphism, source, target, "unknown")


if __name__ == "__main__":
    sys.exit(main())
