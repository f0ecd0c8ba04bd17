import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from catlog import consequence, corpus
from catlog.consequence import (
    AxiomInstance, Budget, Calculus, Hypothesis, Logic, Matrix, Proof, Rule,
    RuleInstance, Saturation, Step, Verdict, derives,
    exact_matrix, generated_join, interderivable, matrix_consequence,
    matrix_interderivable, search_proof, transform_proof, truth_function,
    verify_proof,
)
from catlog.formulas import (
    App, Substitution, Var, complexity, enumerate_formulas, fmt, match, parse, substitute,
    variables,
)
from catlog.logic_cat import bottom, fibring_unconstrained, reduct
from catlog.signatures import Signature

from strategies import UT_SPEC, formulas

ENV = corpus.standard_env()
CPL1 = ENV.logic("CPL1")
CPL2 = ENV.logic("CPL2")
L3 = ENV.logic("L3")
SIG = CPL1.signature


def p(text, sig=SIG):
    return parse(text, sig)


def test_budget_parsing():
    assert Budget.parse("40,6,4,2") == Budget(40)
    assert Budget.parse("12") == Budget(proof_length=12)
    with pytest.raises(ValueError):
        Budget.parse("1,2")


@pytest.mark.parametrize("text", ["-1,6,4,2", "40,6,-4,2", "-3"])
def test_budget_refuses_negative_parts(text):
    with pytest.raises(ValueError, match="non-negative"):
        Budget.parse(text)


# --- matrices ----------------------------------------------------------------


def test_matrix_consequence_boolean_example():
    sig2 = CPL2.signature
    gamma = [p("orp(x0, x1)", sig2), p("negp(x0)", sig2)]
    holds, counter = matrix_consequence(CPL2.matrix, gamma, p("x1", sig2))
    assert holds and counter is None
    # independent oracle: check all four valuations by hand
    for v0 in "01":
        for v1 in "01":
            val = {0: v0, 1: v1}
            prem = (v0 == "1" or v1 == "1") and v0 == "0"
            if prem:
                assert v1 == "1"


def test_matrix_consequence_l3_excluded_middle():
    # x0 or neg(x0), with disjunction a|b := imp(imp(a,b),b)
    phi = p("imp(imp(x0, neg(x0)), neg(x0))")
    holds, counter = matrix_consequence(L3.matrix, [], phi)
    assert not holds
    assert counter == {0: "h"}


def test_matrix_consequence_empty_gamma():
    holds, counter = matrix_consequence(CPL1.matrix, [], p("x0"))
    assert not holds and counter == {0: "0"}


# a matrix with a nullary and a ternary connective, next to the corpus ones
MIXED3_SIG = Signature("Mixed3", {"e": 0, "u": 1, "b": 2, "t": 3})
MIXED3 = Matrix(["a", "b", "c"], ["c"], {
    "e": {(): "b"},
    "u": {("a",): "c", ("b",): "a", ("c",): "b"},
    "b": {(x, y): max(x, y) for x in "abc" for y in "abc"},
    "t": {(x, y, z): (y if x == "c" else z) for x in "abc" for y in "abc"
          for z in "abc"},
})
MATRIX_CASES = [(ENV.logic(name).matrix, ENV.logic(name).signature)
                for name in ("CPL1", "CPL2", "L3", "NC3", "IMP")]
MATRIX_CASES.append((MIXED3, MIXED3_SIG))


def _valuations(matrix, occurring):
    for combo in itertools.product(matrix.values, repeat=len(occurring)):
        yield dict(zip(occurring, combo))


def _holds(matrix, phi, valuation):
    return matrix.is_designated(matrix.evaluate(phi, valuation))


def _reference_consequence(matrix, gamma, phi):
    occurring = sorted(set().union(variables(phi), *[variables(g) for g in gamma]))
    for valuation in _valuations(matrix, occurring):
        if all(_holds(matrix, g, valuation) for g in gamma) \
                and not _holds(matrix, phi, valuation):
            return False, valuation
    return True, None


def _reference_interderivable(matrix, phi, psi):
    for valuation in _valuations(matrix, sorted(variables(phi) | variables(psi))):
        if _holds(matrix, phi, valuation) != _holds(matrix, psi, valuation):
            return False, valuation
    return True, None


@st.composite
def matrix_queries(draw):
    matrix, sig = draw(st.sampled_from(MATRIX_CASES))
    gamma = draw(st.lists(formulas(sig), max_size=3))
    return matrix, gamma, draw(formulas(sig)), draw(formulas(sig))


@settings(max_examples=300, deadline=None)
@given(matrix_queries())
def test_matrix_kernel_matches_per_valuation_reference(query):
    matrix, gamma, phi, psi = query
    for got, want in [
            (matrix_consequence(matrix, gamma, phi),
             _reference_consequence(matrix, gamma, phi)),
            (matrix_interderivable(matrix, phi, psi),
             _reference_interderivable(matrix, phi, psi))]:
        # the same first valuation, keys in the same order
        assert got == want
        assert want[1] is None or list(got[1]) == list(want[1])
    n = max(variables(phi), default=-1) + 1
    for width in (n, n + 1):
        assert truth_function(matrix, phi, width) == tuple(
            matrix.evaluate(phi, valuation)
            for valuation in _valuations(matrix, range(width)))


def test_matrix_rejects_partial_tables():
    with pytest.raises(ValueError):
        Logic("bad", Signature("S", {"neg": 1}),
              matrix=Matrix(["0", "1"], ["1"], {"neg": {("0",): "1"}}))


def test_truth_function_order():
    tf = truth_function(CPL1.matrix, p("x0"), 2)
    assert tf == ("0", "0", "1", "1")


def test_matrix_interderivable():
    ok, _ = matrix_interderivable(CPL1.matrix, p("x0"), p("neg(neg(x0))"))
    assert ok
    ok, witness = matrix_interderivable(CPL1.matrix, p("x0"), p("neg(x0)"))
    assert not ok and witness in ({0: "0"}, {0: "1"})


def test_equal_columns_compare_equal_whichever_path_made_them():
    # a variable's column comes from the valuation table, a computed one
    # from `apply`; both are tuples
    m = CPL1.matrix
    x0, dne = m.columns([p("x0"), p("neg(neg(x0))")], [0])
    assert x0 == dne and type(x0) is tuple and type(dne) is tuple
    assert m.apply("neg", [m.apply("neg", [x0], 2)], 2) == x0
    [imp] = m.columns([p("imp(x0, x1)")], [0, 1])
    assert imp == m.apply("imp", m.columns([p("x0"), p("x1")], [0, 1]), 4)
    assert type(imp) is tuple


# variable tuples the column table is keyed by, some not of the form range(k)
OCCURRING = [(0,), (0, 1), (1, 3), (3, 1), (2,), (0, 1, 2)]


def _column_cases():
    """Fresh matrices, so each sweep starts from an empty column table: CPL1,
    L3, NC3 and CPL2's reduct along h, over SigCPL1."""
    env = corpus.fresh_env()
    cases = [(env.logic(name).matrix, env.logic(name).signature)
             for name in ("CPL1", "L3", "NC3")]
    h = env.morphism("h")
    return cases + [(reduct(env.logic("CPL2").matrix, h), h.source)]


def _reference_column(matrix, phi, occurring):
    return tuple(matrix.values.index(matrix.evaluate(phi, valuation))
                 for valuation in _valuations(matrix, occurring))


def _column_sweep(matrix, sig, rng, queries=80) -> list[int]:
    """Interleaved queries on one matrix, each answer checked row by row
    against `evaluate`; the table's cell count after each query."""
    pools = {occ: [substitute(Substitution({i: Var(v) for i, v in enumerate(occ)}), phi)
                   for phi in enumerate_formulas(sig, len(occ), 2)]
             for occ in OCCURRING}
    cells = []
    for _ in range(queries):
        occurring = rng.choice(OCCURRING)
        pool = pools[occurring]
        kind = rng.choice(["columns", "consequence", "interderivable", "truth", "outside"])
        if kind == "columns":
            batch = rng.sample(pool, 5)
            assert matrix.columns(batch, occurring) == [
                _reference_column(matrix, phi, occurring) for phi in batch]
        elif kind == "consequence":
            gamma, phi = rng.sample(pool, 2), rng.choice(pool)
            assert matrix_consequence(matrix, gamma, phi) == \
                _reference_consequence(matrix, gamma, phi)
        elif kind == "interderivable":
            phi, psi = rng.choice(pool), rng.choice(pool)
            assert matrix_interderivable(matrix, phi, psi) == \
                _reference_interderivable(matrix, phi, psi)
        elif kind == "truth":
            phi = rng.choice(pools[(0, 1, 2)])
            assert truth_function(matrix, phi, 3) == tuple(
                matrix.evaluate(phi, valuation) for valuation in _valuations(matrix, range(3)))
        else:
            # a variable outside `occurring`, after a subterm that is inside
            c, arity = rng.choice([ca for ca in sorted(sig.connectives.items()) if ca[1]])
            outside = App(c, (rng.choice(pool),) * (arity - 1) + (Var(7),))
            with pytest.raises(KeyError):
                matrix.columns([rng.choice(pool), outside], occurring)
        cells.append(matrix._column_cells)
    return cells


@pytest.mark.parametrize("seed", range(3))
def test_the_column_table_agrees_with_evaluate(seed):
    rng = random.Random(seed)
    for matrix, sig in _column_cases():
        _column_sweep(matrix, sig, rng)


def test_a_repeated_query_reads_the_column_table(monkeypatch):
    matrix, _ = _column_cases()[1]
    phi, psi = p("imp(neg(x1), imp(x3, x1))"), p("neg(imp(x1, x3))")
    first = matrix.columns([phi, psi], (1, 3))
    matrix.columns([p("neg(x1)")], range(2))
    applied = []
    monkeypatch.setattr(matrix, "apply", lambda *args: applied.append(args))
    # every query keyed (1, 3) or (0, 1) finds its columns in the table
    assert matrix.columns([phi, psi], [1, 3]) == first
    assert matrix_interderivable(matrix, phi, psi)[0] is False
    assert matrix_consequence(matrix, [psi], phi)[0] is True
    assert truth_function(matrix, p("neg(x1)"), 2) == ("1", "h", "0") * 3
    assert applied == []
    # another key is another table entry: psi and its subterm again
    matrix.columns([psi], (3, 1))
    assert len(applied) == 2


def test_a_full_column_table_empties_itself(monkeypatch):
    monkeypatch.setattr(consequence, "_COLUMN_CELLS", 200)
    rng = random.Random(0)
    for matrix, sig in _column_cases():
        cells = _column_sweep(matrix, sig, rng)
        # some query found the table full and started it over
        assert any(later < earlier for earlier, later in zip(cells, cells[1:]))


# --- derives -----------------------------------------------------------------


def test_modus_ponens_three_steps():
    v = derives(CPL1, [p("x0"), p("imp(x0, x1)")], p("x1"))
    assert v.is_yes
    assert len(v.proof) == 3
    assert verify_proof(CPL1, {p("x0"), p("imp(x0, x1)")}, p("x1"), v.proof)
    assert v.used == frozenset((p("x0"), p("imp(x0, x1)")))


def test_identity_theorem_within_five_steps():
    v = derives(CPL1, [], p("imp(x0, x0)"))
    assert v.is_yes and len(v.proof) <= 5
    assert verify_proof(CPL1, set(), p("imp(x0, x0)"), v.proof)


def test_matrix_refutation_gives_countervaluation():
    v = derives(CPL1, [], p("x0"))
    assert v.is_no and v.counter == {"x0": "0"}


def test_empty_calculus_stays_unknown_but_bottom_says_no():
    sig = Signature("S", {"neg": 1})
    empty = Logic("empty", sig, calculus=Calculus(sig, [], []))
    v = derives(empty, [p("x0", sig)], p("x1", sig))
    assert v.is_unknown
    from catlog.logic_cat import bottom
    bot = bottom(sig)
    assert derives(bot, [p("x0", sig)], p("x0", sig)).is_yes
    v = derives(bot, [p("x0", sig)], p("x1", sig))
    assert v.is_no and v.reason


def test_signature_mismatch_rejected():
    with pytest.raises(Exception):
        derives(CPL1, [], p("orp(x0, x1)", CPL2.signature))


def test_matrix_only_logic_decides_positively():
    v = derives(CPL2, [], p("orp(x0, negp(x0))", CPL2.signature))
    assert v.is_yes and v.proof is None and v.reason == "matrix decision"


# --- proof checking ----------------------------------------------------------


def test_verify_rejects_forward_reference():
    good = derives(CPL1, [p("x0"), p("imp(x0, x1)")], p("x1")).proof
    bad_steps = list(good.steps)
    for i, step in enumerate(bad_steps):
        if isinstance(step.justification, RuleInstance):
            j = step.justification
            bad_steps[i] = Step(step.formula,
                                RuleInstance(j.rule, j.substitution, (i, i)))
    assert not verify_proof(CPL1, {p("x0"), p("imp(x0, x1)")}, p("x1"),
                            Proof(bad_steps))


def test_verify_rejects_wrong_conclusion():
    good = derives(CPL1, [p("x0"), p("imp(x0, x1)")], p("x1")).proof
    assert not verify_proof(CPL1, {p("x0"), p("imp(x0, x1)")}, p("x0"), good)


def test_verify_rejects_foreign_hypothesis():
    good = derives(CPL1, [p("x0"), p("imp(x0, x1)")], p("x1")).proof
    assert not verify_proof(CPL1, {p("imp(x0, x1)")}, p("x1"), good)


def _broken_mp_proof(breakage):
    """The proof of x0, x0 -> x1 |- x1, with one step or the logic broken."""
    logic = CPL1
    steps = list(derives(CPL1, [p("x0"), p("imp(x0, x1)")], p("x1")).proof.steps)
    last = steps[-1].justification
    assert isinstance(last, RuleInstance) and len(last.premises) == 2
    x1 = steps[-1].formula
    if breakage == "no calculus":
        logic = Logic("CPL1matrix", SIG, matrix=CPL1.matrix)
    elif breakage == "axiom index":
        steps[-1] = Step(x1, AxiomInstance(len(CPL1.calculus.axioms), Substitution()))
    elif breakage == "rule index":
        steps[-1] = Step(x1, RuleInstance(len(CPL1.calculus.rules), last.substitution,
                                          last.premises))
    elif breakage == "premise count":
        steps[-1] = Step(x1, RuleInstance(last.rule, last.substitution, last.premises[:1]))
    elif breakage == "unknown justification":
        steps[0] = Step(steps[0].formula, "hypothesis")
    return logic, Proof(steps)


@pytest.mark.parametrize("breakage", [
    "no calculus", "axiom index", "rule index", "premise count", "unknown justification"])
def test_verify_rejects_each_broken_justification(breakage):
    gamma = {p("x0"), p("imp(x0, x1)")}
    logic, proof = _broken_mp_proof(None)
    assert verify_proof(logic, gamma, p("x1"), proof)  # unbroken, it passes
    logic, proof = _broken_mp_proof(breakage)
    assert not verify_proof(logic, gamma, p("x1"), proof)


def test_mutated_proofs_fail_verification():
    rng = random.Random(0)
    proof = derives(CPL1, [], p("imp(x0, x0)")).proof
    hypotheses = frozenset()
    rejected = 0
    trials = 60
    for _ in range(trials):
        steps = list(proof.steps)
        i = rng.randrange(len(steps))
        j = steps[i].justification
        mutation = rng.randrange(3)
        if mutation == 0:
            steps[i] = Step(p("neg(x0)"), j)
        elif mutation == 1 and isinstance(j, (AxiomInstance, RuleInstance)):
            sub = Substitution({**j.substitution.mapping, 0: p("neg(x1)")})
            if isinstance(j, AxiomInstance):
                steps[i] = Step(steps[i].formula, AxiomInstance(j.axiom, sub))
            else:
                steps[i] = Step(steps[i].formula,
                                RuleInstance(j.rule, sub, j.premises))
        else:
            steps[i] = Step(steps[i].formula, Hypothesis())
        if not verify_proof(CPL1, hypotheses, p("imp(x0, x0)"), Proof(steps)):
            rejected += 1
    assert rejected >= trials * 0.9


def test_structurality_transformer():
    sigma = Substitution({0: p("neg(x1)"), 1: p("imp(x0, x0)")})
    v = derives(CPL1, [p("x0"), p("imp(x0, x1)")], p("x1"))
    moved = transform_proof(v.proof, sigma)
    gamma = {substitute(sigma, g) for g in (p("x0"), p("imp(x0, x1)"))}
    assert verify_proof(CPL1, gamma, substitute(sigma, p("x1")), moved)


# --- lattice operations -------------------------------------------------------


def test_generated_join_neutral_and_mixed():
    sig = Signature("S", {"imp": 2})
    a1 = parse("imp(x0, imp(x1, x0))", sig)
    a2 = parse("imp(imp(x0, imp(x1, x2)), imp(imp(x0, x1), imp(x0, x2)))", sig)
    mp = Rule((parse("x0", sig), parse("imp(x0, x1)", sig)), parse("x1", sig))
    frag_a = Calculus(sig, [a1], [mp])
    frag_b = Calculus(sig, [a2], [mp])
    empty = Calculus(sig, [], [])
    joined = generated_join([frag_a, empty])
    assert joined.axioms == frag_a.axioms and joined.rules == frag_a.rules

    goal = parse("imp(x0, x0)", sig)
    short = Budget(proof_length=7)
    assert derives(Logic("A", sig, calculus=frag_a), [], goal, short).is_unknown
    assert derives(Logic("B", sig, calculus=frag_b), [], goal, short).is_unknown
    both = Logic("AB", sig, calculus=generated_join([frag_a, frag_b]))
    v = derives(both, [], goal)
    assert v.is_yes
    assert verify_proof(both, set(), goal, v.proof)
    # the found proof really uses both axiom schemes
    used_axioms = {s.justification.axiom for s in v.proof.steps
                   if isinstance(s.justification, AxiomInstance)}
    assert used_axioms == {0, 1}


def test_generated_join_idempotent_on_queries():
    sig = SIG
    doubled = generated_join([CPL1.calculus, CPL1.calculus])
    twice = Logic("twice", sig, calculus=doubled)
    for text in ("imp(x0, x0)", "imp(x0, imp(x1, x0))"):
        assert derives(twice, [], p(text)).is_yes == derives(CPL1, [], p(text)).is_yes


def test_interderivable_uses_matrix():
    v = interderivable(CPL1, p("x0"), p("neg(neg(x0))"))
    assert v.is_yes
    v = interderivable(CPL1, p("x0"), p("x1"))
    assert v.is_no and v.counter


@pytest.mark.parametrize("answers, queries, expected", [
    # forward no: the backward query is not made
    (["no"], 1, {"verdict": "no", "counter": {"x0": "0"}, "reason": "said no to x1"}),
    (["yes", "no"], 2, {"verdict": "no", "counter": {"x0": "0"}, "reason": "said no to x0"}),
    (["unknown", "no"], 2, {"verdict": "no", "counter": {"x0": "0"},
                            "reason": "said no to x0"}),
    (["unknown", "yes"], 2, {"verdict": "unknown",
                             "reason": "interderivability not settled within budget"}),
], ids=["forward-no", "backward-no", "unknown-then-no", "unknown-then-yes"])
def test_interderivable_asks_backward_only_when_forward_is_not_no(answers, queries, expected):
    asked = []

    def oracle(gamma, phi, budget):
        status = answers[len(asked)]
        asked.append((gamma, phi))
        if status == "no":
            return Verdict.no(counter={"x0": "0"}, reason=f"said no to {fmt(phi)}")
        return Verdict(status)

    logic = Logic("counted", SIG, oracle=oracle)
    verdict = interderivable(logic, p("x0"), p("x1"))
    assert verdict.to_json() == expected
    assert asked[:1] == [(frozenset({p("x0")}), p("x1"))]
    assert len(asked) == queries


# --- forward saturation -------------------------------------------------------


def _facts(sat, world=None):
    """The formulas derived in a world, base facts included, or in the base."""
    return {phi for phi, bits in sat.bits.items()
            if (bits == -1 if world is None else bits >> world & 1)}


def test_saturation_proofs_verify():
    pool = enumerate_formulas(SIG, 1, 2)
    sat = Saturation(CPL1.calculus, pool)
    goal = p("imp(x0, x0)")
    assert goal in sat
    proof = sat.proof_of(goal)
    assert verify_proof(CPL1, set(), goal, proof)
    [world] = sat.extend([[p("neg(x0)")]])
    assert p("neg(x0)") in _facts(sat, world) and p("neg(x0)") not in sat
    assert sat.proof_of(p("neg(x0)")) is None  # the world does not leak into the base
    assert goal in sat and sat.proof_of(goal, world).to_json() == proof.to_json()


def test_saturation_fires_one_premise_rules_with_bound_conclusions():
    sig = Signature("PQR", {"p": 1, "q": 1, "r": 2})
    calc = Calculus(sig, [p("p(x0)", sig)], [
        Rule((p("p(x0)", sig),), p("q(x0)", sig)),
        # x1 is free in the conclusion only, so the rule never fires
        Rule((p("p(x0)", sig),), p("r(x0, x1)", sig))])
    sat = Saturation(calc, [Var(0), Var(1)])
    assert set(sat.bits) == {p(t, sig) for t in ("p(x0)", "p(x1)", "q(x0)", "q(x1)")}
    assert verify_proof(Logic("PQR", sig, calculus=calc), [], p("q(x1)", sig),
                        sat.proof_of(p("q(x1)", sig)))


def _join_indices(sat):
    """Every index of the saturation's join plans, each once, in rule and
    premise order."""
    return [index for joins in sat.joins for _, entered, _ in joins
            for index in entered.values()]


def _join_snapshot(sat):
    return [{key: list(bucket) for key, bucket in index.items()} for index in _join_indices(sat)]


def test_fork_leaves_its_base_unchanged():
    # a world reads the base in place: extending keeps the base facts, their
    # order, justifications and join entries, and only appends after them
    sat = Saturation(CPL1.calculus, enumerate_formulas(SIG, 1, 2))
    base, joins = [(phi, list(why)) for phi, why in sat.why.items()], _join_snapshot(sat)
    x0 = p("x0")
    [world] = sat.extend([[x0]])
    assert list(sat.why.items())[:len(base)] == base
    assert all(sat.bits[phi] == -1 for phi, _ in base)
    assert x0 in _facts(sat, world) and x0 not in sat
    grown = 0
    for before, index in zip(joins, _join_indices(sat), strict=True):
        for key, bucket in before.items():
            now = index[key]
            assert now[:len(bucket)] == bucket
            grown += len(now) > len(bucket)
    assert grown
    new = _facts(sat, world) - _facts(sat)
    assert new and all(sat.bits[phi] == 1 << world for phi in new)
    for phi in new:
        assert verify_proof(CPL1, {x0}, phi, sat.proof_of(phi, world))


def test_sibling_forks_are_isolated():
    # sibling worlds of one call each derive what a saturation with that
    # world alone does
    pool = enumerate_formulas(SIG, 1, 2)
    sat = Saturation(CPL1.calculus, pool)
    base = _facts(sat)
    left, right = sat.extend([[p("x0")], [p("neg(x0)")]])
    for world, hyps in [(left, [p("x0")]), (right, [p("neg(x0)")])]:
        alone = Saturation(CPL1.calculus, pool)
        [only] = alone.extend([hyps])
        assert _facts(sat, world) == _facts(alone, only)
    assert p("neg(x0)") in _facts(sat, right) - _facts(sat, left)
    assert p("x0") in _facts(sat, left) - _facts(sat, right)
    assert _facts(sat) == base


def test_a_fork_of_a_fork_derives_what_one_fork_with_both_hypotheses_does():
    # a world with two hypotheses, numbered after the worlds of an earlier
    # call, derives what each one-hypothesis world does, as a saturation with
    # that world alone does
    pool = enumerate_formulas(SIG, 1, 2)
    sat = Saturation(CPL1.calculus, pool)
    hyps = [p("x0"), p("neg(x0)")]
    left, right = sat.extend([hyps[:1], hyps[1:]])
    [both] = sat.extend([hyps])
    assert both == 2
    alone = Saturation(CPL1.calculus, pool)
    [only] = alone.extend([hyps])
    assert only == 0 and _facts(sat, both) == _facts(alone, only)
    assert _facts(sat, left) | _facts(sat, right) <= _facts(sat, both)
    assert _facts(sat, both) - _facts(sat, left)
    for phi in _facts(sat, both) - _facts(sat):
        assert verify_proof(CPL1, set(hyps), phi, sat.proof_of(phi, both))


def test_saturation_agrees_with_search_on_samples():
    pool = enumerate_formulas(SIG, 1, 2)
    sat = Saturation(CPL1.calculus, pool)
    budget = Budget(proof_length=10)
    rng = random.Random(4)
    for _ in range(20):
        phi = pool[rng.randrange(len(pool))]
        if phi in sat:
            holds, _ = matrix_consequence(CPL1.matrix, [], phi)
            assert holds  # saturation is sound


def test_saturation_joins_rules_with_three_premises():
    sig = Signature("UT", {"u": 1, "t": 3})
    logic = Logic("UT", sig, calculus=Calculus(
        sig, [p("u(x0)", sig)],
        [Rule((p("u(x0)", sig), p("u(x1)", sig), p("u(x2)", sig)),
              p("t(x0, x1, x2)", sig))]))
    base = Saturation(logic.calculus, [Var(0), Var(1)])
    goal = p("t(x0, x1, x0)", sig)
    assert goal in base
    proof = base.proof_of(goal)
    assert len(proof) == 3 and verify_proof(logic, set(), goal, proof)
    derived = list(base.bits)
    hyp = p("u(t(x0, x0, x0))", sig)
    [world] = base.extend([[hyp]])
    joined = p("t(x1, t(x0, x0, x0), x0)", sig)
    assert joined in _facts(base, world) and joined not in base
    assert verify_proof(logic, {hyp}, joined, base.proof_of(joined, world))
    assert [phi for phi in base.bits if base.bits[phi] == -1] == derived


def _plain(sat):
    """`sat.why` in order, each justification as its class name and fields,
    with substitutions as their maps, beside its bits."""
    def plain(just):
        return type(just).__name__, {
            k: v.mapping if isinstance(v, Substitution) else v for k, v in vars(just).items()}
    return [(phi, plain(just), bits) for phi, why in sat.why.items() for just, bits in why]


def _unpruned_saturation(calc, pool):
    """A saturation that builds every instance in the seed-pool product and
    lets `_add` drop those over the cap, then runs the rules."""
    ref = Saturation(Calculus(calc.signature, [], calc.rules), pool)
    for aidx, axiom in enumerate(calc.axioms):
        free = sorted(variables(axiom))
        for combo in itertools.product(pool, repeat=len(free)):
            sigma = Substitution(dict(zip(free, combo)))
            ref._add(substitute(sigma, axiom), AxiomInstance(aidx, sigma), -1)
    ref._run()
    return ref


@pytest.mark.parametrize("name, nvars", [
    ("CPL1", 2), ("IMP", 2), ("IMPFRAG", 2), ("IMPFRAGN", 2), ("NEGFRAG", 2), ("fibring", 1)])
def test_pruned_axiom_instances_match_the_full_product(name, nvars):
    # the seed pools congruential_closure draws at bounds (4, 2), and for the
    # fibring of IMPFRAG and NEGFRAG at (3, 1)
    if name == "fibring":
        logic = fibring_unconstrained(ENV.logic("IMPFRAG"), ENV.logic("NEGFRAG"))[0]
    else:
        logic = ENV.logic(name)
    pool = enumerate_formulas(logic.signature, nvars, 2)
    expected = _plain(_unpruned_saturation(logic.calculus, pool))
    assert _plain(Saturation(logic.calculus, pool)) == expected


NV = Signature("NV", {"n": 1, "c": 2})


def _random_formula(rng, nvars, depth, leaf=0.3):
    """A formula of depth at most `depth` over x0..x(nvars-1): a node above
    depth 0 is a variable with probability `leaf`, else an n or a c node."""
    if depth == 0 or rng.random() < leaf:
        return Var(rng.randrange(nvars))
    args = [_random_formula(rng, nvars, depth - 1, leaf)
            for _ in range(rng.choice((1, 2)))]
    return App("n" if len(args) == 1 else "c", tuple(args))


def _random_calculus(rng):
    """One to three axioms and a rule each with one, two and three premises;
    a first premise may be a variable, later ones have one connective.  A
    conclusion has depth at most one and uses only variables of its
    premises."""
    axioms = [_random_formula(rng, 2, 2) for _ in range(rng.randint(1, 3))]
    rules = []
    for size in (1, 2, 3):
        premises = tuple(_random_formula(rng, 3, 1, leaf=0.5 if i == 0 else 0)
                         for i in range(size))
        bound = sorted(set().union(*map(variables, premises)))
        shape = _random_formula(rng, 3, 1)
        rename = {v: Var(rng.choice(bound)) for v in sorted(variables(shape))}
        rules.append(Rule(premises, substitute(Substitution(rename), shape)))
    return Calculus(NV, axioms, rules)


def _naive_closure(calc, pool, hypotheses, cap):
    """Every axiom instance over `pool` and every hypothesis, each within
    `cap`, closed under every rule applied to every tuple of known formulas,
    round after round, until a round finds nothing new within `cap`."""
    known = set(hypotheses)
    for axiom in calc.axioms:
        free = sorted(variables(axiom))
        for combo in itertools.product(pool, repeat=len(free)):
            known.add(substitute(Substitution(dict(zip(free, combo))), axiom))
    known = {phi for phi in known if complexity(phi) <= cap}
    grown = True
    while grown:
        grown = False
        facts = list(known)
        for rule in calc.rules:
            bindings = [{}]
            for premise in rule.premises:
                bindings = [ext.mapping for binding in bindings for phi in facts
                            if (ext := match(premise, phi, dict(binding))) is not None]
            for binding in bindings:
                if not variables(rule.conclusion) <= set(binding):
                    continue
                phi = substitute(Substitution(binding), rule.conclusion)
                if complexity(phi) <= cap and phi not in known:
                    known.add(phi)
                    grown = True
    return known


def test_saturation_and_its_forks_match_a_naive_closure(monkeypatch):
    # the base and each world of one call against a naive closure: sibling
    # worlds, and a world with several hypotheses
    cap = 3
    monkeypatch.setattr(consequence, "_CONCLUSION_CAP", cap)
    pool = enumerate_formulas(NV, 2, 1)
    fired = set()  # (premise count, layer) of every rule instance derived
    for seed in range(20):
        rng = random.Random(seed)
        calc = _random_calculus(rng)
        logic = Logic("NV", NV, calculus=calc)
        left_hyps, right_hyps, more_hyps = (
            [_random_formula(rng, 2, 2) for _ in range(2)] for _ in range(3))
        sat = Saturation(calc, pool)
        before = [(phi, list(why)) for phi, why in sat.why.items()]
        layers = {"left": left_hyps, "right": right_hyps, "several": left_hyps + more_hyps}
        worlds = sat.extend(list(layers.values()))
        # extending keeps the base facts, in order, with their justifications
        assert list(sat.why.items())[:len(before)] == before
        assert [phi for phi, _ in before] == [phi for phi in sat.bits if sat.bits[phi] == -1]
        for (layer, hyps), world in [(("base", []), None), *zip(layers.items(), worlds)]:
            facts = _facts(sat, world)
            assert facts == _naive_closure(calc, pool, hyps, cap), (seed, layer)
            bit = 1 << (len(worlds) if world is None else world)
            for phi in facts:
                assert verify_proof(logic, set(hyps), phi, sat.proof_of(phi, world)), (seed, phi)
            fired |= {(len(calc.rules[just.rule].premises), layer)
                      for phi in facts - (set() if world is None else _facts(sat))
                      for just, bits in sat.why[phi]
                      if bits & bit and isinstance(just, RuleInstance)}
    # every premise count fired in the base and in a world of several hypotheses
    assert {(k, layer) for k in (1, 2, 3) for layer in ("base", "several")} <= fired


PQ = Signature("PQ", {"p": 2, "q": 1})


def test_saturation_keys_a_later_premise_by_what_a_partner_binds(monkeypatch):
    # a fact fired at the first premise of the chain rule binds x0 and x1
    # only; the third premise is looked up by x2, which the second premise's
    # partner binds.  The match count is pinned: a join that scans every
    # derived fact for such a premise matches several times more.  Only the
    # world, whose hypothesis links x0 and x1, derives new facts by the chain
    cap = 4
    monkeypatch.setattr(consequence, "_CONCLUSION_CAP", cap)
    calls = []

    def counted(*args):
        calls.append(args)
        return match(*args)

    monkeypatch.setattr(consequence, "match", counted)
    calc = Calculus(PQ, [p("p(x0, q(x0))", PQ)], [
        Rule((p("p(x0, x1)", PQ), p("p(x1, x2)", PQ), p("p(x2, x3)", PQ)), p("p(x0, x3)", PQ)),
        Rule((p("p(x0, x1)", PQ),), p("p(x1, x0)", PQ))])
    logic = Logic("PQ", PQ, calculus=calc)
    pool = enumerate_formulas(PQ, 2, 1)
    sat = Saturation(calc, pool)
    hyp = p("p(x0, x1)", PQ)
    [extended] = sat.extend([[hyp]])
    assert len(calls) == 528
    monkeypatch.setattr(consequence, "match", match)
    for world, hyps in [(None, []), (extended, [hyp])]:
        facts = _facts(sat, world)
        assert facts == _naive_closure(calc, pool, hyps, cap)
        for phi in facts:
            assert verify_proof(logic, set(hyps), phi, sat.proof_of(phi, world)), fmt(phi)
    chained = {phi for phi, why in sat.why.items()
               for just, _ in why if isinstance(just, RuleInstance) and just.rule == 0}
    assert chained & (_facts(sat, extended) - _facts(sat))


# --- the provider rule --------------------------------------------------------


def _least_with_matrix():
    # the least logic on CPL2's signature with CPL2's matrix beside its oracle
    sig = CPL2.signature
    return Logic("least", sig, matrix=CPL2.matrix, oracle=bottom(sig).oracle,
                 decides=True)


def _oracle_only():
    return Logic("membership", SIG, oracle=bottom(SIG).oracle, decides=True)


_LEM2 = "orp(x0, negp(x0))"


# (logic, hypotheses, goal, proof, provider that answers, status)
@pytest.mark.parametrize("make, hyps, goal, proof, provider, status", [
    (lambda: CPL2, [], _LEM2, False, "matrix", "yes"),
    (lambda: CPL2, [], _LEM2, True, "matrix", "yes"),
    (lambda: CPL2, [], "x0", True, "matrix", "no"),
    (lambda: CPL1, [], "imp(x0, x0)", False, "matrix", "yes"),
    (lambda: CPL1, [], "imp(x0, x0)", True, "calculus", "yes"),
    (lambda: CPL1, [], "x0", True, "matrix", "no"),
    (_least_with_matrix, [], _LEM2, False, "matrix", "yes"),
    (_least_with_matrix, [], _LEM2, True, "oracle", "no"),
    (lambda: ENV.logic("IMPFRAG"), [], "imp(x0, x0)", False, "calculus", "yes"),
    (lambda: ENV.logic("IMPFRAG"), [], "imp(x0, x0)", True, "calculus", "yes"),
    (_oracle_only, ["x0"], "x0", False, "oracle", "yes"),
    (_oracle_only, ["x0"], "x0", True, "oracle", "yes"),
], ids=["matrix-noproof", "matrix-proof", "matrix-proof-no",
        "calculus+matrix-noproof", "calculus+matrix-proof", "calculus+matrix-refutes",
        "oracle+matrix-noproof", "oracle+matrix-proof",
        "calculus-noproof", "calculus-proof", "oracle-noproof", "oracle-proof"])
def test_derives_answers_from_the_provider_the_rule_names(
        make, hyps, goal, proof, provider, status):
    logic = make()
    gamma = [p(h, logic.signature) for h in hyps]
    phi = p(goal, logic.signature)
    v = derives(logic, gamma, phi, proof=proof)
    assert v.status == status
    if provider == "matrix":
        assert v.reason in ("matrix decision", "matrix countervaluation")
    elif provider == "calculus":
        assert v.proof is not None and verify_proof(logic, gamma, phi, v.proof)
    else:
        assert v.proof is None
        assert v.reason in ("membership",
                            "not a member; the least logic proves nothing else")


@pytest.mark.parametrize("make, without_proof, with_proof", [
    (lambda: CPL2, True, True),
    (lambda: CPL1, True, False),
    (_least_with_matrix, True, False),
    (lambda: ENV.logic("IMPFRAG"), False, False),
    (_oracle_only, False, False),
], ids=["matrix", "calculus+matrix", "oracle+matrix", "calculus", "oracle"])
def test_exact_matrix_is_the_provider_rule(make, without_proof, with_proof):
    logic = make()
    assert (exact_matrix(logic) is logic.matrix is not None) == without_proof
    assert (exact_matrix(logic, proof=True) is logic.matrix is not None) == with_proof


@pytest.mark.parametrize("name", ["CPL1", "CPL2", "L3", "NC3"])
def test_interderivable_is_both_no_proof_derivations(name):
    logic = ENV.logic(name)
    pool = enumerate_formulas(logic.signature, 2, 2)
    for phi, psi in itertools.combinations(pool, 2):
        both = derives(logic, [phi], psi, proof=False).is_yes and \
            derives(logic, [psi], phi, proof=False).is_yes
        assert interderivable(logic, phi, psi).is_yes == both, (fmt(phi), fmt(psi))


@pytest.mark.parametrize("name, hyps, goal", [
    ("CPL1", [], "imp(x0, x0)"),
    ("CPL1", [], "imp(neg(x0), imp(x1, neg(x0)))"),
    ("CPL1", ["x0", "imp(x0, x1)"], "x1"),
    ("CPL1", ["imp(neg(x1), neg(x0))"], "imp(x0, x1)"),
    ("IMP", [], "imp(x0, x0)"),
    ("IMP", ["x0", "imp(x0, imp(x0, x1))"], "x1"),
    ("IMP", ["x1"], "imp(x0, x1)"),
])
def test_a_searched_yes_holds_in_the_matrix(name, hyps, goal):
    logic = ENV.logic(name)
    gamma = [p(h, logic.signature) for h in hyps]
    phi = p(goal, logic.signature)
    # the calculus alone searches, with no matrix to consult
    bare = Logic(name, logic.signature, calculus=logic.calculus)
    for v in derives(logic, gamma, phi, proof=True), derives(bare, gamma, phi):
        assert v.is_yes and verify_proof(logic, gamma, phi, v.proof)
        assert matrix_consequence(logic.matrix, gamma, phi)[0]


def test_a_matrix_beside_a_calculus_must_validate_it():
    with pytest.raises(ValueError) as err:
        Logic("CPL1/L3", SIG, calculus=CPL1.calculus, matrix=L3.matrix)
    assert str(err.value) == ("the matrix refutes axiom "
                              "imp(imp(x0, imp(x1, x2)), imp(imp(x0, x1), imp(x0, x2))) "
                              "at x0=h, x1=h, x2=0")
    lifting = Calculus(SIG, [], [Rule((p("x0"),), p("neg(x0)"))])
    with pytest.raises(ValueError, match=r"refutes rule x0 => neg\(x0\) at x0=1"):
        Logic("lifting", SIG, calculus=lifting, matrix=CPL1.matrix)
    # a matrix beside an oracle alone is not checked: there is nothing to check
    assert _least_with_matrix().matrix is CPL2.matrix


# --- G4ip against search -----------------------------------------------------

IMP_LOGICS = {name: ENV.logic(name) for name in ("IMPFRAG", "IMP", "CPL1")}
# formulas of complexity <= 2 in x0, x1
IMP_POOLS = {name: enumerate_formulas(logic.signature, 2, 2)
             for name, logic in IMP_LOGICS.items()}
SMALL = Budget(5)


@st.composite
def implication_sequents(draw):
    name = draw(st.sampled_from(sorted(IMP_LOGICS)))
    pool = st.sampled_from(IMP_POOLS[name])
    return name, draw(st.lists(pool, max_size=2)), draw(pool)


@settings(max_examples=200, deadline=None, database=None)
@given(implication_sequents())
def test_g4ip_step_against_search(sequent):
    name, gamma, phi = sequent
    logic, gamma = IMP_LOGICS[name], frozenset(gamma)
    # IMPFRAG has no matrix; IMP's is sound for it
    sound = (CPL1 if name == "CPL1" else IMP_LOGICS["IMP"]).matrix
    implication = logic.calculus.implication
    proof = implication.proof(gamma, phi)
    if proof is not None:
        assert verify_proof(logic, gamma, phi, proof)
        assert matrix_consequence(sound, gamma, phi)[0]
    step = implication.decide(gamma, phi, SMALL)
    if step is not None and step.is_yes:
        assert step.proof.to_json() == proof.to_json() and len(proof) <= SMALL.proof_length
    if name != "CPL1":
        # K, S and modus ponens alone: a failed G4ip is never a searched yes
        assert implication.pure
        if search_proof(logic.calculus, gamma, phi, SMALL).is_yes:
            assert proof is not None
        assert (step is not None and step.is_unknown) == (proof is None)


DECIDE_UNDER_A_HASH_SEED = """
import json
from catlog import corpus
from catlog.consequence import Budget, derives
from catlog.formulas import parse
from catlog.logic_cat import fibring_unconstrained
env = corpus.standard_env()
impfrag = env.logic("IMPFRAG")
fibred = fibring_unconstrained(impfrag, env.logic("NEGFRAG"))[0]
for logic, hyps, goal, budget in [
        (impfrag, ["imp(x0, x1)", "imp(x1, x2)"], "imp(x0, x2)", "7,4,2,3"),
        (impfrag, ["x0", "imp(x0, x1)", "imp(x0, imp(x1, x2))"], "x2", "40,6,4,2"),
        (fibred, [], "imp_0(x0, x0)", "40,6,4,2")]:
    sig = logic.signature
    verdict = derives(logic, [parse(h, sig) for h in hyps], parse(goal, sig),
                      Budget.parse(budget))
    print(json.dumps(verdict.to_json(), sort_keys=True))
"""


def test_decided_proofs_do_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = set()
    for seed in "0123":
        run = subprocess.run([sys.executable, "-c", DECIDE_UNDER_A_HASH_SEED],
                             env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        outputs.add(run.stdout)
    [output] = outputs
    assert [json.loads(line)["verdict"] for line in output.splitlines()] == ["yes"] * 3


# the prover rules out every tree of the first three, proves the next two,
# passes its cap on the sixth and proves the last with a four-premise rule,
# so where it stops, and the proofs it writes, must not depend on the hash
# seed, nor the order in which it takes several hypotheses
CHECK_UNDER_A_HASH_SEED = f"UT_SPEC = {UT_SPEC!r}\n" + """
import json
from catlog import corpus, dsl
from catlog.consequence import Budget, _Skeletons
from catlog.formulas import parse
cpl1 = corpus.standard_env().logic("CPL1")
ut = dsl.loads(UT_SPEC).logic("UT")
for logic, hyps, goal, budget in [
        (cpl1, ["x0"], "neg(neg(x0))", "5,6,4,2"),
        (cpl1, [], "imp(neg(neg(x0)), x0)", "5,6,4,2"),
        (cpl1, ["neg(neg(x0))"], "x0", "5,6,4,2"),
        (cpl1, ["neg(neg(x0))"], "x0", "40,8,2,1"),
        (cpl1, ["neg(x1)", "imp(x0, x1)", "neg(neg(x0))"], "x1", "40,8,2,1"),
        (cpl1, ["x0"], "neg(neg(x0))", "40,8,2,1"),
        (ut, ["p(x0, x1)", "p(x1, x2)", "p(x2, x0)"], "q(x0)", "12")]:
    sig = logic.signature
    hyps, goal, budget = [parse(h, sig) for h in hyps], parse(goal, sig), Budget.parse(budget)
    prover = _Skeletons(logic.calculus, frozenset(hyps))
    out = {"verdict": prover.prove(goal, budget.proof_length).to_json(),
           "attempts": prover.attempts,
           "levels": [[str(c) for c in level] for level in prover.levels]}
    print(json.dumps(out, sort_keys=True))
"""


def test_the_check_before_search_does_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = set()
    for seed in "0123":
        run = subprocess.run([sys.executable, "-c", CHECK_UNDER_A_HASH_SEED],
                             env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        outputs.add(run.stdout)
    [output] = outputs
    verdicts = [json.loads(line)["verdict"] for line in output.splitlines()]
    assert verdicts[:3] == [
        {"verdict": "unknown", "reason": "no proof tree within 5 nodes"}] * 3
    assert [verdict["verdict"] for verdict in verdicts[3:5]] == ["yes"] * 2
    assert verdicts[5] == {"verdict": "unknown", "reason": "unification cap (20,000) reached"}
    assert verdicts[6]["verdict"] == "yes" and verdicts[6]["proof"]["length"] == 5
