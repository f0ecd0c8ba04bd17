import random

import pytest

from catlog import corpus
from catlog.consequence import (
    Budget, Calculus, Logic, Rule, derives, matrix_consequence, verify_proof,
)
from catlog.formulas import fmt, parse
from catlog.kleisli import (
    FlexibleMorphism, kleisli_identity, lift_strict, random_flexible,
)
from catlog.logic_cat import (
    REFUTED, Translation, UNKNOWN, VERIFIED, bottom, check_translation,
    compose_translations, direct_image, directed_colimit_logics,
    fibring_constrained, fibring_unconstrained, inverse_image, product_logic,
    push_proof, top, translate_formula,
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
FAST = Budget(proof_length=10, enumeration_complexity=3)


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
    short = Budget(proof_length=4, enumeration_complexity=2)
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
    short = Budget(proof_length=4, enumeration_complexity=2)
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
