import functools
import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from catlog import corpus
from catlog.consequence import (
    Budget, Calculus, Logic, Matrix, Rule, SignatureMismatch, Verdict, derives,
    matrix_consequence, model_of, verify_proof,
)
from catlog.formulas import InputError, enumerate_formulas, enumerate_slice, fmt, parse
from catlog.kleisli import (
    FlexibleMorphism, kleisli_identity, lift_strict, random_flexible,
)
from catlog.logic_cat import (
    REFUTED, Translation, UNKNOWN, VERIFIED, bottom, check_translation,
    compose_translations, direct_image, directed_colimit_logics,
    fibring_constrained, fibring_unconstrained, inverse_image, product_logic,
    push_proof, reduct, top, translate_formula,
)
from catlog.signatures import (
    Signature, StrictMorphism, UnsupportedConstruction, compose_strict,
    signature_product, strict_extension,
)

ENV = corpus.standard_env()
CPL1 = ENV.logic("CPL1")
CPL2 = ENV.logic("CPL2")
H = ENV.morphism("h")
K = ENV.morphism("k")
SIG = CPL1.signature
FAST = Budget(proof_length=10)


def p(text, sig=SIG):
    return parse(text, sig)


def test_translation_h_verified_by_truth_tables():
    t = check_translation(H, CPL1, CPL2)
    assert t.verified
    assert len(t.evidence) == 4  # three axioms and one rule


def test_identity_translation_verified():
    t = check_translation(kleisli_identity(SIG), CPL1, CPL1, FAST)
    assert t.verified


def test_translation_into_bottom_refuted():
    t = check_translation(kleisli_identity(SIG), CPL1, bottom(SIG), FAST)
    assert t.status == REFUTED
    assert t.witness is not None


def test_translation_endpoint_validation():
    with pytest.raises(Exception):
        check_translation(H, CPL2, CPL1)


# --- inverse and direct image -------------------------------------------------


def test_inverse_image_along_identity():
    pulled = inverse_image(kleisli_identity(CPL2.signature), CPL2)
    for text in ("orp(x0, negp(x0))", "x0"):
        phi = p(text, CPL2.signature)
        assert derives(pulled, [], phi).status == derives(CPL2, [], phi).status


def test_inverse_image_negation_fragment():
    neg_sig = Signature("SigNeg", {"neg": 1})
    into = FlexibleMorphism(neg_sig, CPL2.signature,
                            {"neg": p("negp(x0)", CPL2.signature)})
    fragment = inverse_image(into, CPL2)
    v = derives(fragment, [p("neg(neg(x0))", neg_sig)], p("x0", neg_sig))
    assert v.is_yes
    v = derives(fragment, [p("neg(x0)", neg_sig)], p("x0", neg_sig))
    assert v.is_no


def test_morphism_is_translation_into_its_inverse_image():
    # along h, the source with the pulled-back consequence always translates
    pulled = inverse_image(H, CPL2, name="pulled")
    rng = random.Random(3)
    from catlog.formulas import enumerate_formulas
    pool = enumerate_formulas(SIG, 2, 3)
    for _ in range(40):
        gamma = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(0, 2))]
        phi = pool[rng.randrange(len(pool))]
        v = derives(pulled, gamma, phi)
        image = derives(CPL2, [translate_formula(H, g) for g in gamma],
                        translate_formula(H, phi))
        assert v.status == image.status


def test_image_conditions_agree_on_random_morphisms():
    # translation-hood checked on the presentation coincides with the
    # pulled-back comparison and with pushing derivable sequents forward
    rng = random.Random(9)
    from catlog.formulas import enumerate_formulas
    pool = enumerate_formulas(SIG, 2, 2)
    for _ in range(12):
        h = random_flexible(rng, SIG, CPL2.signature, 3)
        if h is None:
            continue
        verdict = check_translation(h, CPL1, CPL2)
        assert verdict.status in (VERIFIED, REFUTED)
        if verdict.status == VERIFIED:
            for _ in range(10):
                gamma = [pool[rng.randrange(len(pool))]
                         for _ in range(rng.randint(0, 2))]
                phi = pool[rng.randrange(len(pool))]
                v = derives(CPL1, gamma, phi, FAST)
                if v.is_yes and v.proof is not None:
                    image = derives(CPL2, [translate_formula(h, g) for g in gamma],
                                    translate_formula(h, phi))
                    assert image.is_yes
        else:
            w = verdict.witness
            assert w is not None
            # the witness is a source-derivable scheme whose image fails
            if "axiom" in w:
                assert derives(CPL1, [], p(w["axiom"])).is_yes


def test_direct_image_of_identity_keeps_presentation():
    pushed = direct_image(kleisli_identity(SIG), CPL1)
    assert pushed.calculus.axioms == CPL1.calculus.axioms
    assert pushed.calculus.rules == CPL1.calculus.rules


def test_direct_image_searches_the_pushed_presentation():
    pushed = direct_image(H, CPL1, name="CPL1_pushed")
    sig2 = CPL2.signature
    hyp = [p("x0", sig2), p("orp(negp(x0), x1)", sig2)]
    v = derives(pushed, hyp, p("x1", sig2), Budget(proof_length=8))
    assert v.is_yes and len(v.proof) == 3
    assert verify_proof(pushed, set(hyp), p("x1", sig2), v.proof)


def test_direct_image_theorems_are_boolean_tautologies():
    # derivations push step by step: every pushed theorem is target-valid
    from catlog.logic_cat import push_proof, verbatim_translation
    pushed = direct_image(H, CPL1, name="CPL1_pushed")
    t = verbatim_translation(H, CPL1, pushed)
    assert t.verified
    for text in ("imp(x0, x0)", "imp(x0, imp(x1, x0))",
                 "imp(imp(neg(x0), neg(x1)), imp(x1, x0))"):
        v = derives(CPL1, [], p(text))
        assert v.is_yes
        moved = push_proof(t, v.proof)
        image = translate_formula(H, p(text))
        assert verify_proof(pushed, set(), image, moved)
        holds, _ = matrix_consequence(CPL2.matrix, [], image)
        assert holds


def test_direct_image_minimality_for_verified_translation():
    # whatever the pushed presentation derives, the target already derives:
    # sampled over sequents obtained by pushing source derivations forward
    rng = random.Random(2)
    from catlog.formulas import enumerate_formulas
    pool = enumerate_formulas(SIG, 2, 2)
    short = Budget(proof_length=4)
    checked = 0
    for _ in range(25):
        gamma = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(0, 2))]
        phi = pool[rng.randrange(len(pool))]
        v = derives(CPL1, gamma, phi, short)
        if v.is_yes and v.proof is not None:
            image_gamma = [translate_formula(H, g) for g in gamma]
            assert derives(CPL2, image_gamma, translate_formula(H, phi)).is_yes
            checked += 1
    assert checked >= 5


# --- bottom and top -----------------------------------------------------------


def test_bottom_answers_membership():
    bot = bottom(SIG)
    assert derives(bot, [p("x0")], p("x0")).is_yes
    assert derives(bot, [p("x0")], p("x1")).is_no


def test_top_answers_everything():
    t = top(SIG)
    assert derives(t, [], p("x0")).is_yes


def test_every_morphism_is_translation_from_bottom_and_into_top():
    rng = random.Random(7)
    from catlog.formulas import enumerate_formulas
    pool = enumerate_formulas(SIG, 2, 2)
    bot = bottom(SIG)
    for _ in range(10):
        h = random_flexible(rng, SIG, CPL2.signature, 2)
        if h is None:
            continue
        # from the least logic: membership images stay memberships
        for _ in range(10):
            gamma = [pool[rng.randrange(len(pool))]
                     for _ in range(rng.randint(1, 2))]
            phi = gamma[0]
            v = derives(bot, gamma, phi)
            assert v.is_yes
            image = derives(bottom(CPL2.signature),
                            [translate_formula(h, g) for g in gamma],
                            translate_formula(h, phi))
            assert image.is_yes
    # into the greatest logic: checking the presentation always verifies
    t = check_translation(kleisli_identity(SIG), CPL1, top(SIG), FAST)
    assert t.verified


def test_lifted_least_and_greatest_logics_commute_with_lifting():
    # building bottom over a signature and viewing it flexibly is the same
    # logic either way: same signature, same answers
    for make in (bottom, top):
        a = make(SIG)
        b = make(SIG)
        assert a.signature == b.signature
        for text in ("x0", "imp(x0, x0)"):
            phi = p(text)
            assert derives(a, [phi], phi).status == derives(b, [phi], phi).status


def test_direct_image_of_extremes_along_unit():
    # pushing the least logic along any strict morphism keeps membership
    # semantics; pushing the greatest keeps everything derivable
    f = StrictMorphism(SIG, CPL2.signature, {"neg": "negp", "imp": "orp"})
    bot_push = bottom(CPL2.signature)
    assert derives(bot_push, [p("x0", CPL2.signature)],
                   p("x0", CPL2.signature)).is_yes
    top_push = top(CPL2.signature)
    assert derives(top_push, [], p("x0", CPL2.signature)).is_yes


# --- proof transport ----------------------------------------------------------


def test_push_proof_along_fibring_injection():
    impfrag = ENV.logic("IMPFRAG")
    negfrag = ENV.logic("NEGFRAG")
    combined, t1, t2 = fibring_unconstrained(impfrag, negfrag)
    v = derives(impfrag, [], p("imp(x0, x0)", impfrag.signature))
    assert v.is_yes
    pushed = push_proof(t1, v.proof)
    goal = translate_formula(t1.morphism, p("imp(x0, x0)", impfrag.signature))
    assert pushed.conclusion() == goal
    assert verify_proof(combined, set(), goal, pushed)


def test_push_proof_with_hypotheses_and_rules():
    impfrag = ENV.logic("IMPFRAG")
    negfrag = ENV.logic("NEGFRAG")
    combined, t1, _ = fibring_unconstrained(impfrag, negfrag)
    hyp = [p("x0", impfrag.signature), p("imp(x0, x1)", impfrag.signature)]
    v = derives(impfrag, hyp, p("x1", impfrag.signature))
    pushed = push_proof(t1, v.proof)
    gamma = {translate_formula(t1.morphism, g) for g in hyp}
    goal = translate_formula(t1.morphism, p("x1", impfrag.signature))
    assert verify_proof(combined, gamma, goal, pushed)


def test_push_proof_refuses_a_composite_without_recorded_proofs():
    t = check_translation(kleisli_identity(SIG), CPL1, CPL1, FAST)
    v = derives(CPL1, [], p("imp(x0, x0)"))
    assert t.verified and v.is_yes
    assert verify_proof(CPL1, set(), p("imp(x0, x0)"), push_proof(t, v.proof))
    composite = compose_translations(t, t)
    assert composite.verified
    with pytest.raises(ValueError, match="no proof of the image of axiom 0"):
        push_proof(composite, v.proof)


def test_compose_translations_stays_verified():
    impfrag = ENV.logic("IMPFRAG")
    negfrag = ENV.logic("NEGFRAG")
    combined, t1, _ = fibring_unconstrained(impfrag, negfrag)
    incl = ENV.morphism("inclImp")
    t_incl = check_translation(incl, impfrag, CPL1, FAST)
    assert t_incl.verified
    # composite of verified translations is verified without re-search
    composite = compose_translations(t_incl, _identity_translation(impfrag))
    assert composite.verified


def test_a_refuted_part_leaves_the_composite_unknown():
    # IMPFRAG does not translate into L3, and L3 translates into top, but
    # the refuted leg leaves their composite IMPFRAG -> top unknown, though
    # it translates
    impfrag, l3, t = ENV.logic("IMPFRAG"), ENV.logic("L3"), top(SIG)
    inner = check_translation(ENV.morphism("inclImp"), impfrag, l3)
    outer = check_translation(kleisli_identity(SIG), l3, t)
    assert (inner.status, outer.status) == (REFUTED, VERIFIED)
    composite = compose_translations(outer, inner)
    assert composite.status == UNKNOWN and composite.witness is None
    assert check_translation(composite.morphism, impfrag, t).verified


def _identity_translation(logic):
    return check_translation(kleisli_identity(logic.signature), logic, logic,
                             FAST)


# --- combination constructions -------------------------------------------------


def test_fibring_unconstrained_derives_injected_axiom():
    impfrag = ENV.logic("IMPFRAG")
    negfrag = ENV.logic("NEGFRAG")
    combined, t1, t2 = fibring_unconstrained(impfrag, negfrag)
    assert t1.verified and t2.verified
    goal = parse("imp_1(imp_1(neg_1(x0), neg_1(x1)), imp_1(x1, x0))",
                 combined.signature)
    v = derives(combined, [], goal, FAST)
    assert v.is_yes and len(v.proof) == 1
    ident = parse("imp_0(x0, x0)", combined.signature)
    v = derives(combined, [], ident)
    assert v.is_yes
    assert verify_proof(combined, set(), ident, v.proof)


def test_fibring_with_empty_bottom_is_neutral():
    empty_sig = Signature("E", {})
    empty = Logic("empty", empty_sig, calculus=Calculus(empty_sig, [], []))
    impfrag = ENV.logic("IMPFRAG")
    combined, t1, _ = fibring_unconstrained(impfrag, empty)
    assert len(combined.signature.connectives) == 1
    goal = parse("imp_0(x0, x0)", combined.signature)
    assert derives(combined, [], goal).is_yes


def test_fibring_constrained_glues_shared_negation():
    la = ENV.logic("IMPFRAGN")
    lb = ENV.logic("NEGFRAG")
    shared = bottom(ENV.signature("SigNeg"), name="sharedNeg")
    left = Translation(ENV.morphism("shareNegLeft"), shared, la, VERIFIED,
                       evidence=["membership preserved"])
    right = Translation(ENV.morphism("shareNegRight"), shared, lb, VERIFIED,
                        evidence=["membership preserved"])
    combined, t1, t2 = fibring_constrained(left, right)
    unary = [c for c, a in combined.signature.connectives.items() if a == 1]
    assert len(unary) == 1  # single glued negation
    assert len(combined.signature.connectives) == 3  # neg + two imps
    assert t1.verified and t2.verified


def test_fibring_constrained_requires_strict_span():
    la = ENV.logic("IMPFRAGN")
    shared = bottom(ENV.signature("SigNeg"))
    flex_leg = Translation(
        FlexibleMorphism(ENV.signature("SigNeg"), la.signature,
                         {"neg": p("neg(x0)", la.signature)}),
        shared, la, VERIFIED)
    with pytest.raises(UnsupportedConstruction):
        fibring_constrained(flex_leg, flex_leg)


def test_constructions_refuse_refuted_legs():
    shared = bottom(ENV.signature("SigNeg"), name="sharedNeg")
    la, lb = ENV.logic("IMPFRAGN"), ENV.logic("NEGFRAG")
    left = Translation(ENV.morphism("shareNegLeft"), shared, la, VERIFIED)
    right = Translation(ENV.morphism("shareNegRight"), shared, lb, REFUTED)
    with pytest.raises(ValueError, match="right leg shareNegRight .* is refuted"):
        fibring_constrained(left, right)
    imp = ENV.logic("IMP")
    incl = ENV.morphism("inclImpStrict")
    with pytest.raises(ValueError, match="chain map 0 inclImpStrict .* is refuted"):
        directed_colimit_logics([imp, CPL1], [Translation(incl, imp, CPL1, REFUTED)])
    # undecided legs still build
    fibring_constrained(left, Translation(right.morphism, shared, lb, UNKNOWN))
    directed_colimit_logics([imp, CPL1], [Translation(incl, imp, CPL1, UNKNOWN)])


def _leg(morphism, source, target):
    return Translation(ENV.morphism(morphism), ENV.logic(source), ENV.logic(target),
                       VERIFIED)


# Each construction error on its own: its class, its message, and the call
# that reaches it with every earlier check passing.
CONSTRUCTION_ERRORS = {
    "fibring-without-presentation": (
        InputError, "fibring needs presented components",
        lambda: fibring_unconstrained(CPL2, ENV.logic("NEGFRAG"))),
    "span-legs-from-different-logics": (
        SignatureMismatch, "span legs must share their source logic",
        lambda: fibring_constrained(_leg("shareNegLeft", "BotNeg", "IMPFRAGN"),
                                    _leg("inclImpStrict", "IMP", "CPL1"))),
    "constrained-fibring-without-presentations": (
        InputError, "constrained fibring needs presented components",
        lambda: fibring_constrained(
            _leg("shareNegLeft", "BotNeg", "IMPFRAGN"),
            Translation(ENV.morphism("shareNegRight"), ENV.logic("BotNeg"),
                        Logic("oracleOnly", ENV.signature("SigNegImp"),
                              oracle=lambda gamma, phi, budget: Verdict.unknown()),
                        VERIFIED))),
    "chain-map-count": (
        InputError, "need one chain map per consecutive stage pair",
        lambda: directed_colimit_logics([ENV.logic("IMP"), CPL1], [])),
    "chain-maps-off-the-stages": (
        SignatureMismatch, "chain maps do not line up with the stages",
        lambda: directed_colimit_logics([ENV.logic("IMP"), CPL2],
                                        [_leg("inclImpStrict", "IMP", "CPL1")])),
    "colimit-stage-without-presentation": (
        InputError, "colimit stages need presentations",
        lambda: directed_colimit_logics([CPL2], [])),
}


@pytest.mark.parametrize("error, message, build", CONSTRUCTION_ERRORS.values(),
                         ids=CONSTRUCTION_ERRORS)
def test_construction_errors_name_their_class_and_cause(error, message, build):
    with pytest.raises(InputError) as err:
        build()
    assert type(err.value) is error and str(err.value) == message


def _pushed(morphism, calculus):
    """Each axiom and rule of a presentation translated, in order."""
    return ([strict_extension(morphism, a) for a in calculus.axioms],
            [Rule(tuple(strict_extension(morphism, q) for q in r.premises),
                  strict_extension(morphism, r.conclusion)) for r in calculus.rules])


def _concatenated(parts):
    return ([a for axioms, _ in parts for a in axioms],
            [r for _, rules in parts for r in rules])


def test_combinations_push_presentations_forward_in_order():
    impfrag, impfragn, negfrag = (ENV.logic(n) for n in ("IMPFRAG", "IMPFRAGN", "NEGFRAG"))

    def presentation(logic):
        return logic.calculus.axioms, logic.calculus.rules

    combined, t1, t2 = fibring_unconstrained(impfrag, negfrag)
    assert presentation(combined) == _concatenated([
        _pushed(t1.morphism, impfrag.calculus), _pushed(t2.morphism, negfrag.calculus)])

    sig_neg = ENV.signature("SigNeg")
    shared = Logic("sharedNeg", sig_neg, calculus=Calculus(
        sig_neg, [p("neg(neg(x0))", sig_neg)],
        [Rule((p("neg(neg(x0))", sig_neg),), p("x0", sig_neg))]))
    f, g = ENV.morphism("shareNegLeft"), ENV.morphism("shareNegRight")
    combined, t1, t2 = fibring_constrained(Translation(f, shared, impfragn, VERIFIED),
                                           Translation(g, shared, negfrag, VERIFIED))
    assert presentation(combined) == _concatenated([
        _pushed(t1.morphism, impfragn.calculus), _pushed(t2.morphism, negfrag.calculus),
        _pushed(compose_strict(t1.morphism, f), shared.calculus)])

    incl = Translation(ENV.morphism("inclImpStrict"), impfrag, CPL1, VERIFIED)
    combined, cocone = directed_colimit_logics([impfrag, CPL1], [incl])
    assert presentation(combined) == _concatenated([
        _pushed(cocone[0].morphism, impfrag.calculus),
        _pushed(cocone[1].morphism, CPL1.calculus)])


def test_product_logic_behaves_componentwise():
    combined, t1, t2 = product_logic(CPL1, CPL1)
    sig = combined.signature
    # diagonal formulas answer as classical logic
    phi = parse("imp__imp(x0, x0)", sig)
    assert derives(combined, [], phi).is_yes
    assert derives(combined, [], parse("x0", sig)).is_no
    assert t1.verified and t2.verified


@pytest.mark.parametrize("answer, status, reason", [
    ("no", "no", "fails in right"), ("unknown", "unknown", "a projection is undecided")])
def test_product_logic_asks_the_right_projection_after_the_left(answer, status, reason):
    right_sig = Signature("R", {"n1": 1, "b1": 2})
    right = Logic("right", right_sig, oracle=lambda gamma, phi, budget: (
        Verdict.no(counter={"x0": "0"}) if answer == "no" else Verdict.unknown()))
    combined, _, _ = product_logic(CPL1, right)
    v = derives(combined, [], parse("imp__b1(x0, x0)", combined.signature))
    assert (v.status, v.reason) == (status, reason)


def test_product_with_matching_arity_factor():
    # product with a one-connective-per-used-arity logic answers as the factor
    mini_sig = Signature("M", {"n1": 1, "b1": 2})
    mini = top(mini_sig)
    combined, t1, t2 = product_logic(CPL1, mini)
    sig = combined.signature
    rng = random.Random(1)
    from catlog.formulas import enumerate_formulas
    pool = enumerate_formulas(sig, 2, 2)
    pr = t1.morphism
    short = Budget(proof_length=4)
    for _ in range(12):
        phi = pool[rng.randrange(len(pool))]
        gamma = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(0, 1))]
        v = derives(combined, gamma, phi, short)
        w = derives(CPL1, [strict_extension(pr, g) for g in gamma],
                    strict_extension(pr, phi), short)
        assert v.status == w.status


def test_directed_colimit_of_logic_chain():
    impfrag = ENV.logic("IMPFRAG")
    sig_imp = impfrag.signature
    # stage two adds the negation axiom over the bigger signature
    incl = StrictMorphism(sig_imp, SIG, {"imp": "imp"})
    t = check_translation(incl, impfrag, CPL1, FAST)
    assert t.verified
    colim, cocone = directed_colimit_logics([impfrag, CPL1], [t])
    assert colim.signature == SIG
    assert all(leg.verified for leg in cocone)
    v = derives(colim, [], p("imp(x0, imp(x1, x0))"))
    assert v.is_yes
    v = derives(colim, [], p("imp(imp(neg(x0), neg(x1)), imp(x1, x0))"))
    assert v.is_yes


def test_single_stage_colimit_answers_identically():
    impfrag = ENV.logic("IMPFRAG")
    colim, cocone = directed_colimit_logics([impfrag], [])
    for text in ("imp(x0, imp(x1, x0))", "imp(x0, x0)"):
        phi = p(text, impfrag.signature)
        assert derives(colim, [], phi).status == derives(impfrag, [], phi).status


def test_underlying_signatures_match_signature_module():
    impfrag = ENV.logic("IMPFRAG")
    negfrag = ENV.logic("NEGFRAG")
    from catlog.signatures import signature_coproduct
    combined, _, _ = fibring_unconstrained(impfrag, negfrag)
    expected, _ = signature_coproduct([impfrag.signature, negfrag.signature])
    assert combined.signature == expected
    prod, _, _ = product_logic(CPL1, CPL2)
    expected_prod, _ = signature_product([SIG, CPL2.signature])
    assert prod.signature == expected_prod


# --- the matrix model check -----------------------------------------------------


def test_matrix_only_endomorphism_is_refuted_with_a_checkable_sequent():
    # negp -> x0, orp -> orp(x1, negp(x0)) sends the valid x0, negp(x0) |- x1
    # to the invalid x0 |- x1; a sample of sequents can miss that
    sig = CPL2.signature
    h = FlexibleMorphism(sig, sig, {"negp": p("x0", sig),
                                    "orp": p("orp(x1, negp(x0))", sig)})
    t = check_translation(h, CPL2, CPL2)
    assert t.status == REFUTED
    w = t.witness
    premises = [p(f, sig) for f in w["premises"]]
    conclusion = p(w["conclusion"], sig)
    assert matrix_consequence(CPL2.matrix, premises, conclusion)[0]
    assert w["premise_images"] == [fmt(translate_formula(h, f)) for f in premises]
    assert w["conclusion_image"] == fmt(translate_formula(h, conclusion))
    counter = {int(x[1:]): v for x, v in w["counter"].items()}
    m = CPL2.matrix
    assert all(m.is_designated(m.evaluate(p(f, sig), counter))
               for f in w["premise_images"])
    assert not m.is_designated(m.evaluate(p(w["conclusion_image"], sig), counter))


def test_matrix_only_source_verified_only_into_a_sole_matrix():
    # k: CPL2 -> CPL1 passes the model check; CPL1's matrix sits beside a
    # calculus, so the pass stays unknown unless the matrix decides
    assert check_translation(K, CPL2, CPL1).status == UNKNOWN
    assert check_translation(K, CPL2, CPL1, semantic=True).status == VERIFIED
    l3 = ENV.logic("L3")
    assert check_translation(kleisli_identity(SIG), l3, l3).status == VERIFIED
    # without a matrix on the target there is nothing to check against
    impfrag = ENV.logic("IMPFRAG")
    to_frag = FlexibleMorphism(CPL2.signature, impfrag.signature, {
        "negp": p("imp(x0, x0)", impfrag.signature),
        "orp": p("imp(x0, x1)", impfrag.signature)})
    assert check_translation(to_frag, CPL2, impfrag).status == UNKNOWN
    # unless the target derives x0 from nothing, and with it every sequent
    t = check_translation(kleisli_identity(SIG), l3, top(SIG))
    assert t.verified
    assert t.evidence == [{"derives_x0": derives(top(SIG), [], p("x0")).to_json()}]


def test_a_source_matrix_beside_another_provider_does_not_refute():
    # the least logic on CPL2's signature, with CPL2's matrix sound for it:
    # every morphism translates it, so the matrix's failing sequent (valid
    # in the matrix, not derivable in the logic) refutes nothing
    sig = CPL2.signature
    least = Logic("least", sig, matrix=CPL2.matrix, oracle=bottom(sig).oracle,
                  decides=True)
    h = FlexibleMorphism(sig, sig, {"negp": p("x0", sig),
                                    "orp": p("orp(x1, negp(x0))", sig)})
    assert check_translation(h, least, CPL2).status == UNKNOWN
    # read as the logic's whole consequence, the matrix refutes
    assert check_translation(h, least, CPL2, semantic=True).status == REFUTED

def test_bottom_and_top_are_presented():
    assert bottom(SIG).calculus.axioms == [] and bottom(SIG).calculus.rules == []
    assert top(SIG).calculus.axioms == [p("x0")]
    # every morphism out of bottom passes the empty presentation; out of
    # top it must make x0 derivable, which CPL1 refutes
    assert check_translation(kleisli_identity(SIG), bottom(SIG), CPL1).verified
    assert check_translation(kleisli_identity(SIG), top(SIG), CPL1).status == REFUTED


_UB = Signature("UB", {"u": 1, "b": 2})


@st.composite
def _matrices(draw):
    n = draw(st.integers(min_value=2, max_value=3))
    values = [str(v) for v in range(n)]
    designated = draw(st.lists(st.sampled_from(values), min_size=1, unique=True))
    tables = {c: {combo: draw(st.sampled_from(values))
                  for combo in itertools.product(values, repeat=arity)}
              for c, arity in sorted(_UB.connectives.items())}
    return Matrix(values, designated, tables)


def _endomorphisms():
    images = {c: st.sampled_from(enumerate_slice(_UB, arity, 2))
              for c, arity in _UB.connectives.items()}
    return st.fixed_dictionaries(images).map(lambda a: FlexibleMorphism(_UB, _UB, a))


def _designation_masks(matrix, formulas):
    return [sum(1 << t for t, v in enumerate(col)
                if matrix.is_designated(matrix.values[v]))
            for col in matrix.columns(formulas, [0, 1])]


@settings(max_examples=80, deadline=None)
@given(_matrices(), _matrices(), _endomorphisms())
def test_model_check_agrees_with_bounded_sequents(a, b, h):
    pulled = reduct(b, h)
    verdict, sequent = model_of(_UB, a, pulled)
    if verdict.is_no:
        # the witness is valid in a, and its image fails in b at the counter
        premises, conclusion = sequent
        assert matrix_consequence(a, premises, conclusion)[0]
        counter = {int(x[1:]): v for x, v in verdict.counter.items()}
        assert all(b.is_designated(b.evaluate(translate_formula(h, g), counter))
                   for g in premises)
        assert not b.is_designated(b.evaluate(translate_formula(h, conclusion), counter))
    elif verdict.is_yes:
        # no sequent with at most two premises, complexity two and two
        # variables is valid in a and fails in b read through h
        pool = enumerate_formulas(_UB, 2, 2)
        in_a, in_b = _designation_masks(a, pool), _designation_masks(pulled, pool)
        everywhere_a, everywhere_b = (1 << len(a.values) ** 2) - 1, (1 << len(b.values) ** 2) - 1
        for gamma in itertools.chain.from_iterable(
                itertools.combinations(range(len(pool)), r) for r in range(3)):
            reach_a = functools.reduce(int.__and__, (in_a[i] for i in gamma), everywhere_a)
            reach_b = functools.reduce(int.__and__, (in_b[i] for i in gamma), everywhere_b)
            for j in range(len(pool)):
                if not reach_a & ~in_a[j]:
                    assert not reach_b & ~in_b[j], (
                        [fmt(pool[i]) for i in gamma], fmt(pool[j]))


@settings(max_examples=80, deadline=None)
@given(_matrices(), _endomorphisms())
def test_reduct_evaluates_each_formula_as_its_image(b, h):
    # the equation behind grouping endomorphisms by reduct: a formula's
    # column in the reduct M^h is its translation's column in M
    pulled = reduct(b, h)
    for phi in enumerate_formulas(_UB, 2, 2):
        [image] = b.columns([translate_formula(h, phi)], [0, 1])
        [column] = pulled.columns([phi], [0, 1])
        assert image == column, fmt(phi)


def test_model_check_gives_up_on_columns_longer_than_its_cap():
    # eight values need 8**8 rows per column; the check answers unknown
    # before building any, except for equal matrices, which pass at once
    values = [str(v) for v in range(8)]

    def matrix(shift):
        return Matrix(values, ["0"], {c: {combo: values[(sum(map(int, combo)) + shift) % 8]
                                          for combo in itertools.product(values, repeat=arity)}
                                      for c, arity in _UB.connectives.items()})

    assert model_of(_UB, matrix(0), matrix(1))[0].is_unknown
    assert model_of(_UB, matrix(0), matrix(0))[0].is_yes
