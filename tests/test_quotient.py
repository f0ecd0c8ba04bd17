import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from catlog import corpus, dsl, kleisli, quotient
from catlog.consequence import (
    Budget, Calculus, Logic, Matrix, Rule, Saturation, SignatureMismatch, UNKNOWN, Verdict,
    derives, interderivable, matrix_consequence, matrix_interderivable, refutation_sweep,
    truth_function,
)
from catlog.formulas import (
    InputError, Substitution, complexity, enumerate_formulas, enumerate_slice, fmt, parse,
    sort_key, substitute,
)
from catlog.kleisli import (
    FlexibleMorphism, flexible_extension, kleisli_compose, kleisli_identity,
)
from catlog.logic_cat import bottom, fibring_unconstrained
from catlog.quotient import (
    CONFIRMED, REFUTED, compose_weak_equivalences, congruential_closure,
    is_congruential, lindenbaum_delta_check, morphisms_equivalent,
    qfc_directed_colimit, rigidity_probe, weak_equivalence,
)
from catlog.logic_cat import Translation, VERIFIED, check_translation
from catlog.signatures import Signature

ENV = corpus.standard_env()
CPL1 = ENV.logic("CPL1")
CPL2 = ENV.logic("CPL2")
NC3 = ENV.logic("NC3")
H = ENV.morphism("h")
K = ENV.morphism("k")
SIG = CPL1.signature
FAST = Budget(proof_length=8)


def p(text, sig=SIG):
    return parse(text, sig)


# --- morphism equivalence -----------------------------------------------------


def test_equal_morphisms_are_equivalent():
    cert = morphisms_equivalent(H, H, CPL2)
    assert cert.equivalent
    assert cert.scope == "generator-sufficient"


def test_swapped_negations_image_refuted():
    ident = kleisli_identity(SIG)
    other = FlexibleMorphism(SIG, SIG, {
        "neg": p("neg(x0)"),
        "imp": p("imp(neg(x0), neg(neg(x1)))"),
    })
    cert = morphisms_equivalent(ident, other, CPL1)
    assert cert.status == REFUTED
    assert cert.witness["connective"] == "imp"
    assert cert.witness["counter"]


def test_agreeing_generators_are_refuted_by_the_bounded_sweep():
    # NC3 is not congruential: bump(x0) and x0 are interderivable, so the
    # generators agree, but peek tells bump(x0) from x0
    sig = NC3.signature
    g = FlexibleMorphism(sig, sig, {"bump": p("x0", sig), "peek": p("peek(x0)", sig)})
    cert = morphisms_equivalent(kleisli_identity(sig), g, NC3)
    assert cert.status == REFUTED and cert.scope == "bounded-enumeration"
    assert cert.witness == {"formula": "peek(bump(x0))", "counter": {"x0": "h"}}
    counter = {int(x[1:]): v for x, v in cert.witness["counter"].items()}
    m = NC3.matrix
    theta = p(cert.witness["formula"], sig)
    left, right = (m.evaluate(flexible_extension(f, theta), counter)
                   for f in (kleisli_identity(sig), g))
    assert m.is_designated(left) != m.is_designated(right)


def test_equivalence_into_a_calculus_only_target_sweeps_bounded_formulas(monkeypatch):
    # IMPFRAG has no matrix and does not decide, so the generators settle
    # nothing and its congruentiality is not even tested
    def untested(*args):
        raise AssertionError("congruentiality tested for a calculus-only target")

    monkeypatch.setattr(quotient, "is_congruential", untested)
    impfrag = ENV.logic("IMPFRAG")
    ident = kleisli_identity(impfrag.signature)
    cert = morphisms_equivalent(ident, ident, impfrag, FAST, bounds=(1, 1))
    assert (cert.status, cert.scope) == (CONFIRMED, "bounded-enumeration")
    assert cert.per_connective == {"imp": "yes"}


def test_equivalence_into_a_logic_over_another_signature_is_refused():
    # h maps into CPL2's signature, not CPL1's
    with pytest.raises(SignatureMismatch):
        morphisms_equivalent(H, H, CPL1)


def test_triple_negation_is_equivalent_to_negation():
    ident = kleisli_identity(SIG)
    triple = FlexibleMorphism(SIG, SIG, {
        "neg": p("neg(neg(neg(x0)))"),
        "imp": p("imp(x0, x1)"),
    })
    cert = morphisms_equivalent(ident, triple, CPL1)
    assert cert.equivalent


def test_equivalence_is_a_congruence_under_composition():
    ident = kleisli_identity(SIG)
    triple = FlexibleMorphism(SIG, SIG, {
        "neg": p("neg(neg(neg(x0)))"),
        "imp": p("imp(x0, x1)"),
    })
    wrapped = FlexibleMorphism(SIG, SIG, {
        "neg": p("neg(x0)"),
        "imp": p("neg(neg(imp(x0, x1)))"),
    })
    assert morphisms_equivalent(ident, triple, CPL1).equivalent
    assert morphisms_equivalent(ident, wrapped, CPL1).equivalent
    cert = morphisms_equivalent(
        kleisli_compose(wrapped, triple), kleisli_identity(SIG), CPL1)
    assert cert.equivalent


def test_generator_sufficiency_matches_bounded_sweep():
    # with a congruential codomain the generator verdict extends to every
    # bounded formula, mirroring the induction that justifies it
    ident = kleisli_identity(SIG)
    triple = FlexibleMorphism(SIG, SIG, {
        "neg": p("neg(neg(neg(x0)))"),
        "imp": p("imp(x0, x1)"),
    })
    for theta in enumerate_formulas(SIG, 2, 4):
        ok, _ = matrix_interderivable(
            CPL1.matrix, flexible_extension(ident, theta),
            flexible_extension(triple, theta))
        assert ok


# --- congruentiality ----------------------------------------------------------


def test_classical_matrices_are_congruential():
    verdict = is_congruential(CPL1, (4, 2))
    assert verdict.status == CONFIRMED
    verdict = is_congruential(CPL2, (4, 2))
    assert verdict.status == CONFIRMED


def test_bottom_logic_vacuously_congruential():
    verdict = is_congruential(bottom(Signature("N", {"neg": 1})), (3, 2), FAST)
    assert verdict.status == CONFIRMED


def test_nc3_matrix_refuted_with_witness():
    verdict = is_congruential(NC3, (2, 1))
    assert verdict.status == REFUTED
    w = verdict.witness
    assert w["connective"] == "peek"
    # the witness pair really is interderivable while the contexts differ
    a, b = p(w["left"], NC3.signature), p(w["right"], NC3.signature)
    ok, _ = matrix_interderivable(NC3.matrix, a, b)
    assert ok
    ca = p(w["context_left"], NC3.signature)
    cb = p(w["context_right"], NC3.signature)
    ok, _ = matrix_interderivable(NC3.matrix, ca, cb)
    assert not ok


def test_congruentiality_of_a_calculus_stops_at_its_first_unknown_pair(monkeypatch):
    # IMPFRAG has neither a matrix nor an oracle, so no query can answer no:
    # after one unknown pair the verdict can only be unknown
    calls = []

    def unknown(logic, a, b, budget):
        calls.append((fmt(a), fmt(b)))
        if len(calls) > 2:
            raise AssertionError("the sweep went on past an unknown pair")
        return Verdict.unknown()

    monkeypatch.setattr(quotient, "interderivable", unknown)
    verdict = is_congruential(ENV.logic("IMPFRAG"))
    assert verdict.status == quotient.UNKNOWN
    assert calls == [("x0", "x1")]


def test_an_unknown_replacement_leaves_congruentiality_unknown():
    # the oracle proves x0 -||- n(n(x0)) and refutes pairs of unlike parity,
    # but cannot settle n(x0) against n(n(n(x0))), the pair's replacement
    # under n
    sig = Signature("N", {"n": 1})

    def oracle(gamma, phi, budget):
        [hyp] = gamma
        if complexity(hyp) % 2 != complexity(phi) % 2:
            return Verdict.no()
        return Verdict.yes() if max(complexity(hyp), complexity(phi)) <= 2 else Verdict.unknown()

    verdict = is_congruential(Logic("Parity", sig, oracle=oracle), (2, 1))
    assert (verdict.status, verdict.pairs_checked) == (quotient.UNKNOWN, 1)


def test_unknown_congruentiality_of_a_calculus_names_its_first_undecided_pair():
    verdict = is_congruential(ENV.logic("IMPFRAG"))
    assert verdict.to_json() == {
        "status": "unknown", "bounds": [4, 2], "pairs_checked": 0,
        "witness": {"undecided": ["x0", "x1"],
                    "reason": "interderivability not settled within budget"}}


def test_congruentiality_goes_on_past_an_unknown_pair_when_the_logic_can_refute():
    # the oracle cannot settle x0 against n(x0), proves x0 -||- n(n(x0)),
    # refutes other pairs of unlike parity, and refutes the replacement of
    # that pair under n: n(x0) against n(n(n(x0)))
    sig = Signature("N", {"n": 1})

    def oracle(gamma, phi, budget):
        [hyp] = gamma
        depths = {complexity(hyp), complexity(phi)}
        if depths == {0, 1}:
            return Verdict.unknown()
        if depths == {1, 3} or complexity(hyp) % 2 != complexity(phi) % 2:
            return Verdict.no()
        return Verdict.yes()

    verdict = is_congruential(Logic("Parity", sig, oracle=oracle), (2, 1))
    assert (verdict.status, verdict.pairs_checked) == (REFUTED, 1)
    assert verdict.witness == {
        "connective": "n", "position": 0, "left": "x0", "right": "n(n(x0))",
        "context_left": "n(x0)", "context_right": "n(n(n(x0)))", "counter": None}


# --- congruential closure -------------------------------------------------------


@pytest.fixture(scope="module")
def fibred_and_closure():
    impfrag = ENV.logic("IMPFRAG")
    negfrag = ENV.logic("NEGFRAG")
    fibred, _, _ = fibring_unconstrained(impfrag, negfrag)
    closed = congruential_closure(fibred, (3, 1))
    return fibred, closed


def test_closure_of_congruential_logic_is_identity():
    closed = congruential_closure(CPL1, (3, 1))
    assert closed is CPL1


def test_closure_of_fibring_recovers_replacement_theorem(fibred_and_closure):
    fibred, closed = fibred_and_closure
    sig = fibred.signature
    hyp = parse("neg_1(x0)", sig)
    goal = parse("neg_1(imp_0(imp_0(x0, x0), x0))", sig)
    before = derives(fibred, [hyp], goal, FAST)
    assert before.is_unknown
    after = derives(closed, [hyp], goal, FAST)
    assert after.is_yes
    from catlog.consequence import verify_proof
    assert verify_proof(closed, {hyp}, goal, after.proof)


def test_closure_is_monotone_on_queries(fibred_and_closure):
    fibred, closed = fibred_and_closure
    sig = fibred.signature
    for text in ("imp_0(x0, x0)", "imp_0(x0, imp_0(x1, x0))",
                 "imp_1(imp_1(neg_1(x0), neg_1(x1)), imp_1(x1, x0))"):
        goal = parse(text, sig)
        if derives(fibred, [], goal, FAST).is_yes:
            assert derives(closed, [], goal, FAST).is_yes


def _reference_closure_rules(logic, bounds):
    """congruential_closure's rules computed with one world per `extend`
    call, where the closure makes one call for all, and a test of every
    pool pair."""
    compl_bound, var_bound = bounds
    sig = logic.signature
    pool = enumerate_formulas(sig, var_bound, compl_bound)
    pool_set = set(pool)
    parent = {phi: phi for phi in pool}

    def find(phi):
        while parent[phi] != phi:
            phi = parent[phi]
        return phi

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        lo, hi = sorted((ra, rb), key=sort_key)
        parent[hi] = lo
        return True

    sat = Saturation(logic.calculus, enumerate_formulas(sig, var_bound, 2))
    reach = {}
    for phi in pool:
        [world] = sat.extend([[phi]])
        reach[phi] = {psi for psi in pool if sat.bits.get(psi, 0) >> world & 1}
    for a, b in itertools.combinations(pool, 2):
        if b in reach[a] and a in reach[b]:
            union(a, b)
    changed = True
    while changed:
        changed = False
        for a in pool:
            r = find(a)
            if r != a:
                for _, _, ca, cb in quotient._contexts(sig, a, r, 0):
                    if ca in pool_set and cb in pool_set and union(ca, cb):
                        changed = True
    rules, seen = [], set()
    for a in pool:
        r = find(a)
        if r == a:
            continue
        pairs = [(a, r)] + [(ca, cb) for _, _, ca, cb in quotient._contexts(sig, a, r, 0)
                            if not (ca in pool_set and cb in pool_set)]
        for x, y in pairs:
            if (x, y) not in seen and x != y:
                seen.add((x, y))
                rules += [Rule((x,), y), Rule((y,), x)]
    return logic.calculus.rules + rules


# NEGFRAG at the command line's default bounds adds no rule; IMPFRAG has
# theorems and interderivable pairs in its pool and adds 370
@pytest.mark.parametrize("name, bounds", [("NEGFRAG", (4, 2)), ("IMPFRAG", (3, 2))])
def test_closure_matches_copying_all_pairs_reference(name, bounds):
    logic = ENV.logic(name)
    closed = congruential_closure(logic, bounds)
    assert closed.calculus.rules == _reference_closure_rules(logic, bounds)


# sha256 of the closure's rules, one a line as "premise, ... / conclusion",
# with its rule count: any change to which rules the closure finds, or to
# their order or text, shows here.  The worlds of IMPFRAG (4, 2) and
# IMPFRAGN (3, 2) share many derived facts, those of NEGFRAG (4, 2) few
CLOSURE_DIGESTS = [
    ("NEGFRAG", (4, 2), 1, "73fcfd6d46362498dcf8110da29ec45970649cd8b51052897b9bb9350783538d"),
    ("IMPFRAG", (4, 2), 1159, "71def34f48ed982a1d92b4a1443b1b6d2844e90851ada5322eb8840ac5dd349b"),
    ("fibring", (3, 1), 190, "e4ab6b7acf3b4cd2f85ec3f76b7dd4f434be8e8fef90d8e7dc31ce38858758d3"),
    ("IMPFRAGN", (3, 2), 709, "0bf2401ae59892828b030dc9d9946756924823789338fcce4db0e973c1a31030"),
]


@pytest.mark.parametrize("name, bounds, count, digest", CLOSURE_DIGESTS,
                         ids=[name for name, *_ in CLOSURE_DIGESTS])
def test_closure_rules_are_pinned(name, bounds, count, digest):
    if name == "fibring":
        logic = fibring_unconstrained(ENV.logic("IMPFRAG"), ENV.logic("NEGFRAG"))[0]
    else:
        logic = ENV.logic(name)
    rules = congruential_closure(logic, bounds).calculus.rules
    text = "\n".join(", ".join(map(fmt, rule.premises)) + " / " + fmt(rule.conclusion)
                     for rule in rules)
    assert (len(rules), hashlib.sha256(text.encode()).hexdigest()) == (count, digest)


# formulas hash by identity, so a set of formulas iterates in an order that
# follows memory layout and changes from process to process; the closure
# must find the pinned rules in every fresh interpreter
CLOSURE_IN_A_FRESH_PROCESS = """
from test_quotient import CLOSURE_DIGESTS, test_closure_rules_are_pinned
for pin in CLOSURE_DIGESTS:
    test_closure_rules_are_pinned(*pin)
"""


def test_closure_rules_do_not_depend_on_the_process():
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    for seed in "01":
        run = subprocess.run([sys.executable, "-c", CLOSURE_IN_A_FRESH_PROCESS],
                             env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr


# --- weak equivalence -----------------------------------------------------------


def test_weak_equivalence_of_h():
    cert = weak_equivalence(H, CPL1, CPL2)
    assert cert.holds
    assert cert.conservativity == "connective-tables"
    # all sixteen binary truth-function classes are realized by images
    assert len(cert.denseness[2]["classes"]) == 16
    assert len(cert.denseness[1]["classes"]) == 4
    # every bounded target formula received a preimage witness
    assert cert.denseness[2]["targets"]


def test_weak_equivalence_of_k():
    cert = weak_equivalence(K, CPL2, CPL1)
    assert cert.holds
    assert cert.conservativity == "connective-tables"
    assert len(cert.denseness[2]["classes"]) == 16


def test_weak_equivalence_of_identity():
    cert = weak_equivalence(kleisli_identity(SIG), CPL1, CPL1)
    assert cert.holds


def test_a_failed_translation_refutes_weak_equivalence_forward():
    # the S axiom is a CPL1 theorem that L3's matrix does not designate
    l3 = ENV.logic("L3")
    cert = weak_equivalence(kleisli_identity(SIG), CPL1, l3)
    assert cert.status == REFUTED and cert.witness["direction"] == "forward"
    s_axiom = "imp(imp(x0, imp(x1, x2)), imp(imp(x0, x1), imp(x0, x2)))"
    assert cert.witness["axiom"] == cert.witness["image"] == s_axiom
    assert cert.witness["counter"] == {"x0": "h", "x1": "h", "x2": "0"}
    counter = {int(x[1:]): v for x, v in cert.witness["counter"].items()}
    assert not l3.matrix.is_designated(l3.matrix.evaluate(p(s_axiom), counter))


def test_inclusion_of_implication_fragment_fails_denseness():
    imp_logic = ENV.logic("IMP")
    incl = ENV.morphism("inclImp")
    cert = weak_equivalence(incl, imp_logic, CPL1)
    assert cert.status == REFUTED
    assert cert.witness["mode"] == "function-search"
    # the unrealizable class is the one containing plain negation: over one
    # variable the implication fragment only reaches identity and constant
    # truth
    assert cert.witness["class"] == "10"


# morphisms with a matrix at both ends, and their composites
DENSENESS_CASES = {
    "h": (H, CPL2), "k": (K, CPL1), "inclImp": (ENV.morphism("inclImp"), CPL1),
    "k.h": (kleisli_compose(K, H), CPL1), "h.k": (kleisli_compose(H, K), CPL2),
    "h.inclImp": (kleisli_compose(H, ENV.morphism("inclImp")), CPL2),
}


@pytest.mark.parametrize("name", DENSENESS_CASES)
def test_denseness_over_new_states_matches_recombining_every_state(monkeypatch, name):
    h, target = DENSENESS_CASES[name]

    def search(n):
        return quotient._denseness_by_functions(
            h, target.matrix, n, enumerate_slice(target.signature, n, 4))

    searched = [search(n) for n in range(3)]
    # the naive fixpoint: every round combines every known state again
    monkeypatch.setattr(quotient, "_touching", lambda states, old, arity: (
        itertools.product(states, repeat=arity) if arity else ()))
    assert searched == [search(n) for n in range(3)]
    if name == "inclImp":
        assert searched[1][1]["class"] == "10"


def test_denseness_applies_tables_to_new_state_tuples_only(monkeypatch):
    env = corpus.fresh_env()  # matrices with empty column tables
    calls, at = [0], {}
    apply, by_functions = Matrix.apply, quotient._denseness_by_functions

    def counting(self, *args):
        calls[0] += 1
        return apply(self, *args)

    def counted(hf, matrix, n, targets):
        before = calls[0]
        try:
            return by_functions(hf, matrix, n, targets)
        finally:
            at[n] = calls[0] - before

    monkeypatch.setattr(Matrix, "apply", counting)
    monkeypatch.setattr(quotient, "_denseness_by_functions", counted)
    assert weak_equivalence(env.morphism("h"), env.logic("CPL1"), env.logic("CPL2")).holds
    # 2,935 when every round combines every known state again
    assert at[2] == 1925


def test_weak_equivalences_compose():
    forward = weak_equivalence(H, CPL1, CPL2)
    backward = weak_equivalence(K, CPL2, CPL1)
    composite = compose_weak_equivalences(backward, forward)
    assert composite.holds
    # direct recheck of the composed morphism
    direct = weak_equivalence(composite.morphism, CPL1, CPL1)
    assert direct.holds


def test_equipollence_pair_round_trips_to_identity():
    back_forth = kleisli_compose(K, H)
    cert = morphisms_equivalent(back_forth, kleisli_identity(SIG), CPL1)
    assert cert.equivalent
    forth_back = kleisli_compose(H, K)
    cert = morphisms_equivalent(forth_back, kleisli_identity(CPL2.signature), CPL2)
    assert cert.equivalent


# --- rigidity -------------------------------------------------------------------


def test_classical_logic_is_rigid_at_bound_two():
    report = rigidity_probe(CPL1, bound=2)
    assert report["identity_enumerated"]
    assert report["verified_translations"] >= 1
    assert report["rigid"], report["non_rigid_witnesses"]


def test_rigidity_is_undecided_without_the_identity():
    report = rigidity_probe(CPL1, bound=0)
    assert not report["identity_enumerated"]
    assert report["rigid"] is None


def _reference_rigidity(logic, bound):
    """rigidity_probe's report from checking every endomorphism on its own:
    one translation check each, and one comparison with the identity, which
    tests the target's congruentiality every time, for each verified one."""
    sig = logic.signature
    endos = kleisli.all_flexible_morphisms(sig, sig, bound)
    ident = kleisli_identity(sig)
    verified, undecided, non_rigid = 0, ident not in endos, []
    for h in endos:
        status = check_translation(h, logic, logic, semantic=True).status
        if status == VERIFIED:
            verified += 1
            cert = morphisms_equivalent(h, ident, logic)
            status = cert.status
            if status == REFUTED:
                non_rigid.append({"morphism": h.to_json(), "witness": cert.witness})
        undecided = undecided or status == UNKNOWN
    return {
        "endomorphisms": len(endos), "verified_translations": verified,
        "identity_enumerated": ident in endos,
        "rigid": False if non_rigid else None if undecided else True,
        "non_rigid_witnesses": non_rigid, "bound": bound}


def test_rigidity_probe_tests_congruentiality_once(monkeypatch):
    calls = []
    real = quotient.is_congruential

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(quotient, "is_congruential", counting)
    report = rigidity_probe(CPL1, bound=2)
    assert len(calls) <= 1
    reference = _reference_rigidity(CPL1, 2)
    assert len(calls) == 1 + reference["verified_translations"]
    assert report == reference


# Boolean falsum and implication: a nullary connective's image is a
# one-row column in rigidity's key; from bound 3 on, bot has a second
# image, imp(bot, bot)
BOT_IMP = dsl.loads("""\
signature SigBotImp { bot/0 imp/2 }
logic BotImp {
  signature SigBotImp
  matrix {
    values 0 1
    designated 1
    table bot ()=0
    table imp (0,0)=1 (0,1)=1 (1,0)=0 (1,1)=1
  }
}
""").logic("BotImp")


@pytest.mark.parametrize("logic, bound, rigid, witnesses", [
    (CPL1, 2, True, 0), (CPL2, 2, True, 0), (NC3, 2, False, 16),
    (ENV.logic("L3"), 2, None, 0), (ENV.logic("BotNeg"), 2, False, 2),
    (BOT_IMP, 2, True, 0), (BOT_IMP, 3, True, 0),
    (CPL1, 0, None, 0), (CPL1, 1, True, 0), (CPL1, 3, True, 0), (CPL2, 3, True, 0),
    (NC3, 3, False, 64), (ENV.logic("L3"), 3, None, 0),
], ids=["CPL1", "CPL2", "NC3", "L3", "BotNeg", "BotImp", "BotImp-3",
        "CPL1-0", "CPL1-1", "CPL1-3", "CPL2-3", "NC3-3", "L3-3"])
def test_rigidity_probe_agrees_with_checking_each_endomorphism(logic, bound, rigid,
                                                                witnesses):
    report = rigidity_probe(logic, bound=bound)
    assert report == _reference_rigidity(logic, bound)
    assert report["rigid"] is rigid
    assert len(report["non_rigid_witnesses"]) == witnesses


def _counting_translation_checks(monkeypatch):
    calls = []
    real = quotient.check_translation

    def counting(h, *args, **kwargs):
        calls.append(h)
        return real(h, *args, **kwargs)

    monkeypatch.setattr(quotient, "check_translation", counting)
    return calls


def test_rigidity_checks_each_reduct_once(monkeypatch):
    calls = _counting_translation_checks(monkeypatch)
    rigidity_probe(CPL1, bound=2)
    endos = kleisli.all_flexible_morphisms(SIG, SIG, 2)
    reducts = [tuple(truth_function(CPL1.matrix, h.assignment[c], arity)
                     for c, arity in sorted(SIG.connectives.items())) for h in endos]
    # the first endomorphism of each distinct reduct, in enumeration order
    assert calls == [h for i, h in enumerate(endos) if reducts[i] not in reducts[:i]]
    assert (len(calls), len(endos)) == (36, 180)


def test_rigidity_without_a_matrix_checks_every_endomorphism(monkeypatch):
    calls = _counting_translation_checks(monkeypatch)
    bot = ENV.logic("BotNeg")
    rigidity_probe(bot, bound=3)
    assert calls == kleisli.all_flexible_morphisms(bot.signature, bot.signature, 3)


@pytest.mark.parametrize("logic, classes, verified_classes, compared, verified", [
    (CPL1, 56, 1, 1, 192), (NC3, 9, 5, 65, 113),
], ids=["CPL1", "NC3"])
def test_rigidity_compares_each_verified_class_once(monkeypatch, logic, classes,
                                                    verified_classes, compared, verified):
    checked = _counting_translation_checks(monkeypatch)
    calls = []
    real = quotient.morphisms_equivalent

    def counting(h, *args, **kwargs):
        calls.append(h)
        return real(h, *args, **kwargs)

    monkeypatch.setattr(quotient, "morphisms_equivalent", counting)
    report = rigidity_probe(logic, bound=3)
    firsts = [h for h in checked
              if check_translation(h, logic, logic, semantic=True).status == VERIFIED]
    # a verified class is compared once, on its first member; a refuted one
    # then compares each further member for that member's own witness
    witnessed = [w["morphism"] for w in report["non_rigid_witnesses"]]
    refuted = [h for h in firsts if h.to_json() in witnessed]
    further = [h for h in calls if h not in firsts]
    assert [h for h in calls if h in firsts] == firsts
    assert sorted(map(str, [h.to_json() for h in refuted + further])) == \
        sorted(map(str, witnessed))
    assert (len(checked), len(firsts), len(calls), report["verified_translations"]) == \
        (classes, verified_classes, compared, verified)


def test_bottom_logic_is_not_rigid():
    bot = ENV.logic("BotNeg")
    report = rigidity_probe(bot, bound=2)
    assert not report["rigid"]
    collapse = {"neg": "x0"}
    witnesses = [w["morphism"]["map"] for w in report["non_rigid_witnesses"]]
    assert collapse in witnesses


# --- Lindenbaum equivalence sets -------------------------------------------------


def test_lindenbaum_pair_passes_all_conditions():
    delta = [p("imp(x0, x1)"), p("imp(x1, x0)")]
    report = lindenbaum_delta_check(CPL1, delta)
    assert report["passed"], report
    assert all(v["status"] == CONFIRMED for v in report["conditions"].values())


def test_lindenbaum_half_pair_fails_symmetry():
    report = lindenbaum_delta_check(CPL1, [p("imp(x0, x1)")])
    assert not report["passed"]
    sym = report["conditions"]["b_symmetric"]
    assert sym["status"] == REFUTED
    assert sym["witness"]["counter"] == {"x0": "0", "x1": "1"}


def test_lindenbaum_replacement_reads_past_an_undecided_connective():
    sig = Signature("AB", {"a": 1, "b": 1, "e": 2})

    def oracle(gamma, phi, budget):
        heads = {getattr(arg, "connective", None) for arg in getattr(phi, "args", ())}
        if getattr(phi, "connective", None) == "e" and heads == {"a"}:
            return Verdict.unknown()
        if getattr(phi, "connective", None) == "e" and heads == {"b"}:
            return Verdict.no()
        return Verdict.yes()

    logic = Logic("AB", sig, oracle=oracle)
    report = lindenbaum_delta_check(logic, [p("e(x0, x1)", sig)])
    # replacement under a is undecided, under b refuted
    assert report["conditions"]["d_replacement"] == {
        "status": REFUTED, "witness": {"connective": "b", "counter": None}}


def test_lindenbaum_replacement_skips_a_nullary_connective():
    # replacement under the constant t would ask for e(t, t) from nothing,
    # which this oracle refutes; every other query it proves
    sig = Signature("TE", {"t": 0, "e": 2})
    asked = []

    def oracle(gamma, phi, budget):
        asked.append(phi)
        return Verdict.no() if phi == p("e(t, t)", sig) else Verdict.yes()

    report = lindenbaum_delta_check(Logic("TE", sig, oracle=oracle),
                                    [p("e(x0, x1)", sig)], bounds=(1, 1))
    assert report["conditions"]["d_replacement"] == {"status": CONFIRMED}
    assert report["passed"]
    assert p("e(t, t)", sig) not in asked


def test_lindenbaum_fails_on_bottom():
    bot = bottom(SIG)
    report = lindenbaum_delta_check(bot, [p("imp(x0, x1)"), p("imp(x1, x0)")])
    assert report["conditions"]["a_reflexive"]["status"] == REFUTED


def test_lindenbaum_rejects_formulas_outside_binary_slice():
    with pytest.raises(ValueError):
        lindenbaum_delta_check(CPL1, [p("imp(x0, x0)")])


def test_lindenbaum_pass_implies_congruential_verdicts_agree():
    delta = [p("imp(x0, x1)"), p("imp(x1, x0)")]
    report = lindenbaum_delta_check(CPL1, delta)
    verdict = is_congruential(CPL1, (3, 2))
    assert report["passed"] and verdict.status == CONFIRMED


def _reference_lindenbaum_e(logic, delta, bounds):
    """Condition (e) of lindenbaum_delta_check asked pair by pair: one
    `interderivable` and one `derives` per delta formula, on every pool pair."""
    compl_bound, var_bound = bounds

    def agreements():
        for phi, psi in itertools.combinations(
                enumerate_formulas(logic.signature, var_bound, compl_bound), 2):
            inter = interderivable(logic, phi, psi)
            _, provable = refutation_sweep(
                (None, derives(logic, [], substitute(Substitution({0: phi, 1: psi}), d),
                               proof=False)) for d in delta)
            if inter.is_unknown or provable.is_unknown:
                yield None, Verdict.unknown()
            elif inter.is_yes != provable.is_yes:
                yield {"pair": [fmt(phi), fmt(psi)], "direction": "inter->delta"
                       if inter.is_yes else "delta->inter"}, Verdict.no()
            else:
                yield None, Verdict.yes()

    witness, v = refutation_sweep(agreements())
    entry = {"status": v.outcome(CONFIRMED)}
    if v.is_no:
        entry["witness"] = witness
    return entry


def _queried(logic):
    """The same consequence with no matrix of its own: every query goes to an
    oracle that asks `logic` without a proof."""
    return Logic(logic.name, logic.signature,
                 oracle=lambda gamma, phi, budget: derives(logic, gamma, phi, budget,
                                                           proof=False))


@pytest.mark.parametrize("logic, deltas", [
    (CPL1, ["imp(x0, x1); imp(x1, x0)", "imp(x0, x1)", "imp(x0, imp(x1, x1))",
            "neg(imp(x0, neg(x1)))"]),
    (ENV.logic("L3"), ["imp(x0, x1); imp(x1, x0)", "imp(x0, x1)", "imp(x0, imp(x1, x1))"]),
    (ENV.logic("IMP"), ["imp(x0, x1); imp(x1, x0)", "imp(x0, x1)", "imp(x1, imp(x0, x0))"]),
    (CPL2, ["orp(negp(x0), x1); orp(negp(x1), x0)", "orp(x0, x1)",
            "orp(negp(x0), orp(x1, negp(x1)))"]),
], ids=["CPL1", "L3", "IMP", "CPL2"])
@pytest.mark.parametrize("bounds", [(2, 2), (1, 2), (2, 1), (0, 2)])
def test_lindenbaum_from_columns_matches_asking_each_pair(logic, deltas, bounds):
    for text in deltas:
        delta = [p(t, logic.signature) for t in text.split(";")]
        report = lindenbaum_delta_check(logic, delta, bounds=bounds)
        assert report["conditions"]["e_lindenbaum"] == \
            _reference_lindenbaum_e(logic, delta, bounds), text
        assert report == lindenbaum_delta_check(_queried(logic), delta, bounds=bounds), text


def test_lindenbaum_from_columns_refutes_delta_to_interderivable():
    # imp(x0, imp(x1, x1)) is a theorem for every pair: (a)-(d) hold, and
    # (e) fails at the first pair that is not interderivable
    report = lindenbaum_delta_check(CPL1, [p("imp(x0, imp(x1, x1))")])
    assert [v["status"] for v in report["conditions"].values()] == [CONFIRMED] * 4 + [REFUTED]
    assert report["conditions"]["e_lindenbaum"]["witness"] == {
        "pair": ["x0", "x1"], "direction": "delta->inter"}


# --- directed colimits in the congruential quotient -------------------------------


def test_qfc_colimit_single_stage():
    colim, cocone = qfc_directed_colimit([CPL1], [])
    sig = colim.signature
    goal = parse("imp_0(x0, x0)", sig)
    v = derives(colim, [], goal)
    assert v.is_yes and v.stage == 0
    assert all(t.verified for t in cocone)


def test_qfc_colimit_refutes_at_a_deciding_top_stage():
    colim, _ = qfc_directed_colimit([CPL2], [])
    v = derives(colim, [], parse("orp_0(x0, x1)", colim.signature))
    assert v.is_no and v.reason == "refuted at the top stage"
    assert v.counter


def test_qfc_colimits_of_different_chains_load_from_one_spec():
    # each vertex signature, and so each injection, is named after its stage
    # logics, so CPL1 and L3, both over SigCPL1, give two names
    text = corpus.STANDARD_DSL
    names = []
    for stage in (CPL1, CPL2, ENV.logic("L3")):
        colim, cocone = qfc_directed_colimit([stage], [])
        assert colim.signature.name == f"qfc_colim({stage.name})"
        text += dsl.signature_to_dsl(colim.signature) + dsl.morphism_to_dsl(cocone[0].morphism)
        names.append(dsl.dsl_name(cocone[0].morphism.name))
    env = dsl.loads(text)
    assert names == ["qfc_colim_CPL1__in0", "qfc_colim_CPL2__in0", "qfc_colim_L3__in0"]
    assert [env.morphism(n).source for n in names] == [
        CPL1.signature, CPL2.signature, CPL1.signature]


@pytest.mark.parametrize("error, message, stages, maps", [
    (InputError, "need one chain map per consecutive stage pair", ["IMP", "CPL1"], []),
    (SignatureMismatch, "chain maps do not line up with the stages", ["IMP", "CPL2"],
     [("inclImp", "IMP", "CPL1", VERIFIED)]),
    (InputError, "chain map 0 inclImp (IMP -> CPL1) is refuted; nothing is built along it",
     ["IMP", "CPL1"], [("inclImp", "IMP", "CPL1", REFUTED)]),
], ids=["map-count", "maps-off-the-stages", "refuted-map"])
def test_qfc_colimit_checks_its_chain(error, message, stages, maps):
    # the chain check of the ordinary chain colimit, strictness aside
    with pytest.raises(InputError) as err:
        qfc_directed_colimit([ENV.logic(n) for n in stages], [
            Translation(ENV.morphism(m), ENV.logic(s), ENV.logic(t), status)
            for m, s, t, status in maps])
    assert type(err.value) is error and str(err.value) == message


def test_qfc_colimit_pushes_early_connectives_to_late_stages():
    # imp_0 unfolds along inclImp and then h, into CPL2's orp and negp
    imp_logic = ENV.logic("IMP")
    chain = [Translation(ENV.morphism("inclImp"), imp_logic, CPL1, VERIFIED),
             Translation(H, CPL1, CPL2, VERIFIED)]
    colim, _ = qfc_directed_colimit([imp_logic, CPL1, CPL2], chain)
    v = derives(colim, [], parse("orp_2(imp_0(x0, x0), x1)", colim.signature), FAST)
    assert v.is_yes and v.stage == 2
    v = derives(colim, [], parse("orp_2(imp_0(x0, x1), x1)", colim.signature), FAST)
    assert v.is_no and v.reason == "refuted at the top stage"


@pytest.fixture(scope="module")
def imp_into_cpl1_colimit():
    imp_logic = ENV.logic("IMP")
    incl = ENV.morphism("inclImp")
    leg = check_translation(incl, imp_logic, CPL1, FAST)
    assert leg.verified
    return qfc_directed_colimit([imp_logic, CPL1], [leg])


def test_qfc_colimit_two_stages(imp_into_cpl1_colimit):
    colim, cocone = imp_into_cpl1_colimit
    sig = colim.signature
    # a purely stage-zero goal is decided at stage zero or later
    v = derives(colim, [], parse("imp_0(x0, imp_0(x1, x0))", sig), FAST)
    assert v.is_yes
    # a goal mentioning stage-one connectives translates at stage one
    goal = parse("imp_1(imp_1(neg_1(x0), neg_1(x1)), imp_1(x1, x0))", sig)
    v = derives(colim, [], goal, FAST)
    assert v.is_yes and v.stage == 1
    # mixed goal: a stage-zero implication under a stage-one negation;
    # the stage translation collapses the tags before querying
    mixed = parse("neg_1(neg_1(imp_0(x0, x0)))", sig)
    w = derives(colim, [], mixed, FAST)
    direct = derives(CPL1, [], p("neg(neg(imp(x0, x0)))"), FAST)
    assert w.status == direct.status
    assert all(t.verified for t in cocone)


def test_qfc_colimit_agrees_with_top_stage_on_translated_goals(
        imp_into_cpl1_colimit):
    colim, _ = imp_into_cpl1_colimit
    sig = colim.signature
    import random
    rng = random.Random(6)
    pool = enumerate_formulas(sig, 2, 2)
    for _ in range(15):
        phi = pool[rng.randrange(len(pool))]
        v = derives(colim, [], phi, FAST)
        if v.is_yes and v.stage is not None:
            # the witnessing stage really derives the translation
            assert v.stage in (0, 1)


# --- exact conservativity -------------------------------------------------------


def test_weak_equivalence_between_total_relations_is_confirmed():
    # with both values designated each matrix validates every sequent, so
    # the identity is a conservative translation although the tables differ
    sig = Signature("C", {"c": 1})
    a = Logic("A", sig, matrix=Matrix(["0", "1"], ["0", "1"],
                                      {"c": {("0",): "0", ("1",): "1"}}))
    b = Logic("B", sig, matrix=Matrix(["0", "1"], ["0", "1"],
                                      {"c": {("0",): "1", ("1",): "0"}}))
    cert = weak_equivalence(kleisli_identity(sig), a, b)
    assert cert.status == CONFIRMED
    assert cert.conservativity == "connective-tables"


def test_weak_equivalence_refutes_a_non_conservative_translation():
    # every L3 consequence is classical, but not conversely
    l3 = corpus.standard_env().logic("L3")
    cert = weak_equivalence(kleisli_identity(SIG), l3, CPL1)
    assert cert.status == REFUTED
    assert cert.witness["direction"] == "backward"
    sequent = cert.witness["sequent"]
    assert sequent[-2] == "|-"
    premises, conclusion = [p(f) for f in sequent[:-2]], p(sequent[-1])
    assert matrix_consequence(CPL1.matrix, premises, conclusion)[0]
    assert not matrix_consequence(l3.matrix, premises, conclusion)[0]


def test_weak_equivalence_without_two_matrices_is_unchecked():
    impfrag = corpus.standard_env().logic("IMPFRAG")
    cert = weak_equivalence(kleisli_identity(impfrag.signature), impfrag, impfrag,
                            n_max=1, target_compl=2, budget=FAST)
    assert cert.conservativity == "unchecked"
    assert cert.status != CONFIRMED


@pytest.mark.parametrize("budget", [Budget(2), Budget(40)])
def test_weak_equivalence_into_a_target_without_a_matrix_is_never_refuted(budget):
    # dup(imp(x0, x0)) and imp(x0, x0) are both theorems, so a short budget
    # that cannot prove them interderivable must not refute denseness
    impfrag = ENV.logic("IMPFRAG")
    sig = impfrag.signature
    dup = FlexibleMorphism(sig, sig, {"imp": p("imp(x0, imp(x0, x1))", sig)})
    cert = weak_equivalence(dup, impfrag, impfrag, n_max=2, target_compl=2, budget=budget)
    assert (cert.status, cert.conservativity, cert.denseness) == (UNKNOWN, "unchecked", {})
    assert cert.witness is None


def test_weak_equivalence_checks_a_presented_source_on_its_presentation():
    # S presents the least logic over {u}; its identity matrix is sound for
    # it and validates u(x0) |- x0, which T's negation matrix refutes.  The
    # identity still translates S (nothing to preserve), so only the
    # converse fails: T validates x0, u(x0) |- x1 and S does not derive it
    sig = Signature("U", {"u": 1})
    s = Logic("S", sig, calculus=Calculus(sig, [], []), matrix=Matrix(
        ["0", "1"], ["1"], {"u": {("0",): "0", ("1",): "1"}}))
    t = Logic("T", sig, matrix=Matrix(["0", "1"], ["1"],
                                      {"u": {("0",): "1", ("1",): "0"}}))
    ident = kleisli_identity(sig)
    assert check_translation(ident, s, t).verified
    cert = weak_equivalence(ident, s, t, n_max=1)
    assert cert.status == REFUTED
    assert cert.witness["direction"] == "backward"
    premises = [parse(f, sig) for f in cert.witness["sequent"][:-2]]
    conclusion = parse(cert.witness["sequent"][-1], sig)
    assert matrix_consequence(t.matrix, premises, conclusion)[0]
    assert not matrix_consequence(s.matrix, premises, conclusion)[0]
