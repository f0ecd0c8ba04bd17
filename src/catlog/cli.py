"""Command line interface: load spec files, prove, translate, combine,
quotient-check, and run the law suites.

Exit codes: 0 all checks passed / derivable, 1 refuted, 2 undecided within
budget, 3 usage or input error: an `InputError` or an `OSError`; any other
exception is a bug and ends in a traceback.  A formula, on the command
line or in a spec, nests its connectives at most `formulas.MAX_DEPTH` (256)
deep; a deeper one is bad input.  Reports are JSON with sorted keys; given
the same inputs the bytes are identical.  `--seed` steers only the random
cases of `laws`; every other command is deterministic without it.

A process builds its argument parser once, on the first `main` call, and
every later call reuses it; a report does not depend on how many commands
ran before it in the same process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import corpus, dsl, kleisli
from .consequence import (
    Budget, CONFIRMED, DEFAULT_BUDGET, NEGATIVE, POSITIVE, REFUTED, UNKNOWN, YES,
    derives,
)
from .formulas import InputError, fmt, parse
from .kleisli import is_regular, kleisli_compose, kleisli_identity
from .logic_cat import (
    as_flexible, check_translation, directed_colimit_logics, fibring_constrained,
    fibring_unconstrained, product_logic,
)
from .quotient import (
    congruential_closure, is_congruential, lindenbaum_delta_check,
    morphisms_equivalent, rigidity_probe, weak_equivalence,
)

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
        try:  # a NUL byte in the path
            with open(json_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except ValueError as exc:
            raise InputError(str(exc)) from None
    print(summary)
    if not json_path:
        print(text)


def status_exit(status: str) -> int:
    """The one map from a status word to an exit code."""
    if status in POSITIVE:
        return EXIT_OK
    if status in NEGATIVE:
        return EXIT_REFUTED
    return EXIT_UNKNOWN


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors reach `main` as InputErrors."""

    def error(self, message):
        raise InputError(message)


def _count(text: str) -> int:
    """A non-negative integer argument."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


@functools.lru_cache(maxsize=1)
def _parser() -> _Parser:
    """The one argument parser of the process, built by the first `main`."""
    parser = _Parser(
        prog="catlog",
        description="categorical toolkit for propositional logics")
    parser.add_argument("--spec", default="standard",
                        help="spec file path, or 'standard' for the built-in corpus")
    parser.add_argument("--json", default=None, help="write the JSON report here")
    parser.add_argument("--budget", default=DEFAULT_BUDGET,
                        help="proof length in proof-tree nodes; the older form "
                        "length,inst,enum,vars is read as its length")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bound", type=_count, default=4)
    parser.add_argument("--n", type=_count, default=2, dest="nvars")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, arguments) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        budget = args.budget
        return run(args, budget if isinstance(budget, Budget) else Budget.parse(budget))
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run(args, budget: Budget) -> int:
    """Run one command: emit its report once, exit by its status.  A reader
    that closes stdout early does not change the exit code."""
    handler = COMMANDS[args.command][0]
    report, summary, status = handler(load_env(args.spec), args, budget)
    try:
        emit(report, args.json, summary)
        sys.stdout.flush()
    except BrokenPipeError:
        # what is left in the buffer goes to devnull at the last flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status_exit(status)


# Each command handler takes (env, args, budget) and returns
# (report, summary line, status word).


def _validate(env, args, budget):
    return ({"command": "validate", "environment": env.summary()},
            "spec is well formed", YES)


def _prove(env, args, budget):
    logic = env.logic(args.logic)
    goal, hyps = _sequent(logic, args)
    verdict = derives(logic, hyps, goal, budget)
    report = {"command": "prove", "logic": args.logic, "goal": fmt(goal),
              "hypotheses": [fmt(h) for h in hyps],
              "budget": budget.to_json(), **verdict.to_json()}
    return report, f"{args.logic}: {verdict.status}", verdict.status


def _translate(env, args, budget):
    morphism = env.morphism(args.via)
    source, target = env.logic(args.source), env.logic(args.target)
    t = check_translation(morphism, source, target, budget)
    return {"command": "translate", **t.to_json()}, f"{args.via}: {t.status}", t.status


def _check_morphism(env, args, budget):
    m = env.morphism(args.name)
    return ({"command": "check-morphism", "morphism": m.to_json(), "well_formed": True},
            f"{args.name}: well formed", YES)


def _check_regular(env, args, budget):
    flex = as_flexible(env.morphism(args.name))
    regular, witness = is_regular(flex)
    report = {"command": "check-regular", "morphism": flex.to_json(),
              "regular": regular}
    if witness is not None:
        report["witness"] = fmt(witness)
    return (report, f"{args.name}: {'regular' if regular else 'not regular'}",
            CONFIRMED if regular else REFUTED)


def _sequent(logic, args):
    """`--goal`, then `--hyp` where the command takes it, parsed over logic."""
    goal = parse(args.goal, logic.signature)
    return goal, [parse(h, logic.signature) for h in getattr(args, "hyp", [])]


def _goal(report: dict, logic, args, budget) -> str:
    """Decide `--goal` (under `--hyp`, where the command takes it) in a
    built logic, into the report's "goal"; the status of the command."""
    if not args.goal:
        return YES
    goal, hyps = _sequent(logic, args)
    verdict = derives(logic, hyps, goal, budget)
    report["goal"] = {"formula": fmt(goal), **verdict.to_json()}
    return verdict.status


def _with_dsl(logic) -> str:
    """A built logic as spec text that loads back: its signature, then it."""
    return dsl.signature_to_dsl(logic.signature) + dsl.logic_to_dsl(logic)


def _fibre(env, args, budget):
    combined, t1, t2 = fibring_unconstrained(env.logic(args.left), env.logic(args.right))
    report = {"command": "fibre", "logic": combined.to_json(),
              "dsl": _with_dsl(combined), "injections": [t1.to_json(), t2.to_json()]}
    status = _goal(report, combined, args, budget)
    return report, f"fibring of {args.left} and {args.right} built", status


def _fibre_shared(env, args, budget):
    shared = env.logic(args.shared)
    left, right = env.logic(args.left), env.logic(args.right)
    left_leg = check_translation(env.morphism(args.left_map), shared, left, budget)
    right_leg = check_translation(env.morphism(args.right_map), shared, right, budget)
    combined, t1, t2 = fibring_constrained(left_leg, right_leg)
    report = {"command": "fibre-shared", "logic": combined.to_json(),
              "dsl": _with_dsl(combined), "cocone": [t1.to_json(), t2.to_json()]}
    return report, "constrained fibring built", _goal(report, combined, args, budget)


def _product(env, args, budget):
    combined, t1, t2 = product_logic(env.logic(args.left), env.logic(args.right))
    report = {"command": "product", "signature": combined.signature.to_json(),
              "projections": [t1.to_json(), t2.to_json()]}
    return report, "product built", _goal(report, combined, args, budget)


def _colimit_chain(env, args, budget):
    stages = [env.logic(nm) for nm in args.stages.split(",")]
    names = [nm for nm in args.maps.split(",") if nm]
    if len(names) != len(stages) - 1:  # before the maps index the stages
        raise InputError("need one chain map per consecutive stage pair")
    maps = [check_translation(env.morphism(nm), stages[i], stages[i + 1], budget)
            for i, nm in enumerate(names)]
    combined, cocone = directed_colimit_logics(stages, maps)
    report = {"command": "colimit-chain", "logic": combined.to_json(),
              "dsl": _with_dsl(combined), "cocone": [t.to_json() for t in cocone]}
    return report, "chain colimit built", _goal(report, combined, args, budget)


def _quotient_equal(env, args, budget):
    left, right = env.morphism(args.left), env.morphism(args.right)
    env.logic(args.source)  # the check reads only the target; a wrong name still fails
    cert = morphisms_equivalent(left, right, env.logic(args.target), budget,
                                bounds=(args.bound, args.nvars))
    return ({"command": "quotient-equal", **cert.to_json()},
            f"[{args.left}] = [{args.right}]: {cert.status} ({cert.scope})", cert.status)


def _congruential(env, args, budget):
    verdict = is_congruential(env.logic(args.logic), (args.bound, args.nvars), budget)
    return ({"command": "congruential", "logic": args.logic, **verdict.to_json()},
            f"{args.logic}: {verdict.status}", verdict.status)


def _closure(env, args, budget):
    logic = env.logic(args.logic)
    closed = congruential_closure(logic, (args.bound, args.nvars))
    added = 0
    if closed.calculus is not None and logic.calculus is not None:
        added = len(closed.calculus.rules) - len(logic.calculus.rules)
    report = {"command": "closure", "logic": args.logic,
              "rules_added": added, "unchanged": closed is logic}
    status = YES
    if args.goal:
        goal, hyps = _sequent(logic, args)
        report["before"] = derives(logic, hyps, goal, budget).status
        after = derives(closed, hyps, goal, budget)
        report["after"] = after.to_json()
        status = after.status
    return report, f"closure of {args.logic}: {added} replacement rules added", status


def _lindenbaum(env, args, budget):
    logic = env.logic(args.logic)
    delta = [parse(t, logic.signature) for t in args.delta.split(";") if t.strip()]
    report = lindenbaum_delta_check(logic, delta, budget,
                                    bounds=(min(args.bound, 2), args.nvars))
    statuses = [v["status"] for v in report["conditions"].values()]
    return ({"command": "lindenbaum", "logic": args.logic, **report},
            f"{args.logic}: {'pass' if report['passed'] else 'fail'}",
            _overall(statuses))


def _overall(statuses) -> str:
    """Confirmed when every part is, refuted when some part is, else unknown."""
    if all(s == CONFIRMED for s in statuses):
        return CONFIRMED
    return REFUTED if REFUTED in statuses else UNKNOWN


def _equipollent(env, args, budget):
    source, target = env.logic(args.source), env.logic(args.target)
    via, back = env.morphism(args.via), env.morphism(args.back)
    forward = weak_equivalence(via, source, target, n_max=args.nvars,
                               target_compl=args.bound, budget=budget)
    backward = weak_equivalence(back, target, source, n_max=args.nvars,
                                target_compl=args.bound, budget=budget)
    round_src = morphisms_equivalent(
        kleisli_compose(as_flexible(back), as_flexible(via)),
        kleisli_identity(source.signature), source, budget)
    round_tgt = morphisms_equivalent(
        kleisli_compose(as_flexible(via), as_flexible(back)),
        kleisli_identity(target.signature), target, budget)
    overall = _overall([forward.status, backward.status,
                        round_src.status, round_tgt.status])
    report = {"command": "equipollent", "status": overall,
              "forward": forward.to_json(), "backward": backward.to_json(),
              "back_after_via": round_src.to_json(),
              "via_after_back": round_tgt.to_json()}
    return report, f"equipollence: {overall}", overall


def _rigidity(env, args, budget):
    report = rigidity_probe(env.logic(args.logic), bound=min(args.bound, 3),
                            budget=budget)
    word, status = {True: ("rigid", CONFIRMED), False: ("not rigid", REFUTED),
                    None: ("undecided", UNKNOWN)}[report["rigid"]]
    return ({"command": "rigidity", "logic": args.logic, **report},
            f"{args.logic}: {word}", status)


SUITES = {
    "category": kleisli.suite_category_laws,
    "kleisli": kleisli.suite_kleisli_theorem,
    "monad": kleisli.suite_monad_laws,
    "adjunction": kleisli.suite_adjunction,
    "regularity": kleisli.suite_regularity,
}


def _laws(env, args, budget):
    report = SUITES[args.suite](args.cases, args.seed)
    return ({"command": "laws", **report},
            f"{args.suite}: {len(report['failures'])} failure(s) in {report['cases']} cases",
            REFUTED if report["failures"] else CONFIRMED)


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    """One argument of a command: its flags and argparse options; required
    unless the options say otherwise."""
    return flags, {"required": True, **options}


def _required(argument):
    flags, options = argument
    return flags, {**options, "required": True}


LOGIC = _arg("--logic")
GOAL = _arg("--goal", required=False, default=None)
HYP = _arg("--hyp", required=False, action="append", default=[])
LEFT, RIGHT = _arg("--left"), _arg("--right")
SOURCE = _arg("--source", "--from", dest="source")
TARGET = _arg("--target", "--to", dest="target")
VIA = _arg("--via")
NAME = _arg("--name")

# command -> (handler, help line, arguments)
COMMANDS = {
    "validate": (_validate, "load and validate a spec file", []),
    "load": (_validate, "alias of validate", []),
    "prove": (_prove, "search a derivation", [LOGIC, _required(GOAL), HYP]),
    "translate": (_translate, "check a morphism between two logics",
                  [VIA, SOURCE, TARGET]),
    "check-morphism": (_check_morphism, "validate a declared morphism", [NAME]),
    "check-regular": (_check_regular, "regularity of a flexible morphism", [NAME]),
    "fibre": (_fibre, "unconstrained fibring of two logics", [LEFT, RIGHT, GOAL]),
    "fibre-shared": (_fibre_shared, "constrained fibring over a shared logic",
                     [_arg("--shared"), LEFT, RIGHT, _arg("--left-map"),
                      _arg("--right-map"), GOAL]),
    "product": (_product, "product of two logics", [LEFT, RIGHT, GOAL, HYP]),
    "colimit-chain": (_colimit_chain, "directed colimit of a chain",
                      [_arg("--stages", help="comma separated logic names"),
                       _arg("--maps", help="comma separated morphism names"), GOAL]),
    "quotient-equal": (_quotient_equal, "morphism equality in the quotient",
                       [LEFT, RIGHT, SOURCE, TARGET]),
    "congruential": (_congruential, "replacement compatibility check", [LOGIC]),
    "closure": (_closure, "bounded congruential closure", [LOGIC, GOAL, HYP]),
    "lindenbaum": (_lindenbaum, "equivalence-set conditions",
                   [LOGIC, _arg("--delta", help="semicolon separated binary formulas")]),
    "equipollent": (_equipollent, "two-way weak equivalence certificate",
                    [SOURCE, TARGET, VIA, _arg("--back")]),
    "rigidity": (_rigidity, "endo-translations against identity", [LOGIC]),
    "laws": (_laws, "run a law suite",
             [_arg("--suite", choices=list(SUITES)),
              _arg("--cases", required=False, type=_count, default=200)]),
}


if __name__ == "__main__":
    sys.exit(main())
