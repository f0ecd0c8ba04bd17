"""Acceptance suite: every criterion checks at its stated bound and prints
one PASS/FAIL line (run with -s to see them)."""

import itertools
import random

import pytest

from catlog import corpus
from catlog.consequence import (
    AxiomInstance, Budget, derives, matrix_consequence, transform_proof,
    verify_proof,
)
from catlog.formulas import (
    App, Substitution, Var, complexity, enumerate_formulas, enumerate_slice,
    fmt, parse, substitute, variables,
)
from catlog.kleisli import (
    FlexibleMorphism, all_flexible_morphisms, all_strict_morphisms,
    flexible_extension, is_regular, is_weak_terminal, kleisli_compose,
    kleisli_identity, lift_strict, random_flexible, slice_colimit_comparison,
    suite_category_laws, suite_kleisli_theorem, suite_monad_laws,
    suite_regularity, t_on_strict, truncate_slices, weak_terminal_witness,
    flat, sharp, unit, counit, flatten,
)
from catlog.logic_cat import (
    REFUTED, Translation, VERIFIED, bottom, check_translation,
    fibring_constrained, fibring_unconstrained, translate_formula,
)
from catlog.quotient import (
    CONFIRMED, congruential_closure, is_congruential, lindenbaum_delta_check,
    morphisms_equivalent, rigidity_probe, weak_equivalence,
)
from catlog.signatures import (
    Signature, StrictMorphism, compose_strict, strict_extension,
)

ENV = corpus.standard_env()
CPL1 = ENV.logic("CPL1")
CPL2 = ENV.logic("CPL2")
SIG = CPL1.signature
FAST = Budget(proof_length=10)


def p(text, sig=SIG):
    return parse(text, sig)


def report(number, ok, label):
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number}: {label}"


def shape_catalog(max_connectives, arities=(0, 1, 2)):
    shapes = []
    for k in range(max_connectives + 1):
        for combo in itertools.combinations_with_replacement(arities, k):
            shapes.append(Signature(
                "G" + "".join(map(str, combo)) or "G",
                {f"g{i}": a for i, a in enumerate(combo)}))
    return shapes


def test_criterion_01_kleisli_category_laws():
    failures = 0
    # unit laws, exhaustive over every morphism with assignments of
    # complexity at most two between catalog signatures
    small = shape_catalog(2)
    for src in small:
        for tgt in small:
            for h in all_flexible_morphisms(src, tgt, 2):
                if kleisli_compose(h, kleisli_identity(src)) != h:
                    failures += 1
                if kleisli_compose(kleisli_identity(tgt), h) != h:
                    failures += 1
    # single-connective sources cover each assignment of every morphism
    # between three-connective signatures, connective by connective
    for tgt in shape_catalog(3):
        for arity in (0, 1, 2):
            src = Signature("P", {"c": arity})
            for h in all_flexible_morphisms(src, tgt, 2):
                if kleisli_compose(h, kleisli_identity(src)) != h \
                        or kleisli_compose(kleisli_identity(tgt), h) != h:
                    failures += 1
    # associativity, factored: the extension of a composite agrees with the
    # composed extensions on every bounded slice formula, which settles
    # (h3 . h2) . h1 = h3 . (h2 . h1) for every first leg h1 at the bound
    assoc_shapes = [Signature("A1", {"n": 1}), Signature("A2", {"b": 2}),
                    Signature("A3", {"n": 1, "b": 2})]
    for mid in assoc_shapes:
        slices = [phi for n in range(3) for phi in enumerate_slice(mid, n, 2)]
        for out in assoc_shapes:
            pool2 = all_flexible_morphisms(mid, out, 2)
            pool3 = all_flexible_morphisms(out, mid, 2)
            for h2 in pool2:
                for h3 in pool3:
                    comp = kleisli_compose(h3, h2)
                    for phi in slices:
                        if flexible_extension(comp, phi) != \
                                flexible_extension(h3, flexible_extension(h2, phi)):
                            failures += 1
    # literal triple check on an exhaustive small pool
    n_sig = Signature("N", {"n": 1})
    pool = all_flexible_morphisms(n_sig, n_sig, 2)
    for h1, h2, h3 in itertools.product(pool, repeat=3):
        if kleisli_compose(kleisli_compose(h3, h2), h1) != \
                kleisli_compose(h3, kleisli_compose(h2, h1)):
            failures += 1
    # 500 seeded random cases at complexity three, category laws and the
    # unit/multiplication decomposition of composition
    cat = suite_category_laws(500, seed=101, max_compl=3)
    kle = suite_kleisli_theorem(500, seed=101, max_compl=3)
    failures += len(cat["failures"]) + len(kle["failures"])
    report(1, failures == 0, "Kleisli category laws, exhaustive core plus "
           "500 seeded random cases")


def test_criterion_02_adjunction():
    failures = 0
    # sharp/flat round trip on every generated morphism of a catalog sweep
    small = shape_catalog(2, (1, 2))
    for src in small:
        for tgt in small:
            for h in all_flexible_morphisms(src, tgt, 2):
                f, trunc = sharp(h)
                if flat(f, trunc) != h:
                    failures += 1
    # triangle identities pointwise up to complexity three, 50 random
    # signatures (the suite also re-checks round trips on random morphisms)
    from catlog.kleisli import suite_adjunction
    rep = suite_adjunction(50, seed=202, compl_bound=3)
    failures += len(rep["failures"])
    report(2, failures == 0, "sharp/flat bijection exact; triangle identities "
           "pointwise to complexity 3 on 50 random signatures")


def test_criterion_03_monad_laws():
    rep = suite_monad_laws(1000, seed=303)
    report(3, rep["cases"] >= 1000 and not rep["failures"],
           "monad unit and associativity on 1000 sampled two- and "
           "three-level elements")


def test_criterion_04_regularity_and_weak_terminals():
    rep = suite_regularity(200, seed=404, compl_bound=4)
    failures = len(rep["failures"])
    rng = random.Random(405)
    probe = Signature("P", {"e": 0, "u": 1, "b": 2})
    shapes = shape_catalog(3)
    checked = 0
    for _ in range(30):
        candidate = shapes[rng.randrange(len(shapes))]
        witness = weak_terminal_witness(probe, candidate)
        if is_weak_terminal(candidate) != (witness is not None):
            failures += 1
        if witness is not None:
            for c, arity in probe.connectives.items():
                if variables(witness(c)) != frozenset(range(arity)):
                    failures += 1
        checked += 1
    report(4, failures == 0 and checked == 30,
           "regularity criterion vs brute force (200 morphisms, bound 4); "
           "weak terminals vs construction (30 pairs)")


def test_criterion_05_t_reflects_and_directed_colimits():
    failures = 0
    shapes = shape_catalog(3)
    morphisms = 0
    for a in shapes:
        for b in shapes:
            for f in all_strict_morphisms(a, b):
                morphisms += 1
                strict, src, _ = t_on_strict(f, 3, 2)
                for n in range(3):
                    level = [c for c, ar in src.signature.connectives.items()
                             if ar == n]
                    images = [strict(c) for c in level]
                    slice_inj = len(images) == len(set(images))
                    tgt_one = {fmt(phi) for phi in enumerate_slice(b, n, 3)
                               if complexity(phi) == 1}
                    src_one = {strict(fmt(phi)) for phi in enumerate_slice(a, n, 3)
                               if complexity(phi) == 1}
                    slice_surj = tgt_one <= src_one
                    conn_inj = len({f(c) for c in a.level(n)}) == len(a.level(n))
                    conn_surj = set(b.level(n)) <= {f(c) for c in a.level(n)}
                    if slice_inj and not conn_inj:
                        failures += 1
                    if slice_surj and not conn_surj:
                        failures += 1
    # twenty random three-stage chains: bounded slices commute with colimit
    rng = random.Random(505)
    chains = 0
    while chains < 20:
        chain = _random_chain(rng, stages=3)
        if chain is None:
            continue
        chains += 1
        for n in range(3):
            cmp_report = slice_colimit_comparison(chain, n, 3)
            if not cmp_report["bijective"]:
                failures += 1
    report(5, failures == 0 and morphisms > 0,
           f"slice functor reflects iso/mono/epi ({morphisms} strict "
           "morphisms at bound 3); colimit comparison bijective on 20 chains")


def _random_chain(rng, stages=3):
    sig = Signature("C0", {f"c{i}": rng.randint(0, 2)
                           for i in range(rng.randint(1, 2))})
    maps = []
    current = sig
    for stage in range(1, stages):
        kind = rng.random()
        items = sorted(current.connectives.items())
        if kind < 0.4 and len(items) >= 2:
            # merge two same-arity connectives when possible
            by_arity = {}
            for c, a in items:
                by_arity.setdefault(a, []).append(c)
            mergeable = [cs for cs in by_arity.values() if len(cs) >= 2]
            if mergeable:
                keep = dict(items)
                a, b = mergeable[0][0], mergeable[0][1]
                del keep[b]
                nxt = Signature(f"C{stage}", keep)
                mapping = {c: (a if c == b else c) for c, _ in items}
                maps.append(StrictMorphism(current, nxt, mapping))
                current = nxt
                continue
        # otherwise extend with a fresh connective
        grown = dict(current.connectives)
        grown[f"d{stage}"] = rng.randint(0, 2)
        nxt = Signature(f"C{stage}", grown)
        maps.append(StrictMorphism(current, nxt,
                                   {c: c for c in current.connectives}))
        current = nxt
    return maps


def test_criterion_06_consequence_axioms():
    failures = 0
    # pinned examples
    v = derives(CPL1, [p("x0"), p("imp(x0, x1)")], p("x1"))
    if not (v.is_yes and len(v.proof) == 3
            and verify_proof(CPL1, {p("x0"), p("imp(x0, x1)")}, p("x1"), v.proof)):
        failures += 1
    v = derives(CPL1, [], p("imp(x0, x0)"))
    if not (v.is_yes and len(v.proof) <= 5):
        failures += 1
    # at least 200 corpus queries; every proof-backed Yes round-trips
    # through the structurality transformer, and calculus answers never
    # contradict the matrix
    rng = random.Random(606)
    logics = [CPL1, ENV.logic("IMP"), ENV.logic("IMPFRAG"),
              ENV.logic("NEGFRAG"), ENV.logic("BotCPL1")]
    substitution_pool = enumerate_formulas(SIG, 2, 2)
    queries = 0
    yeses = 0
    short = Budget(proof_length=5)
    while queries < 220:
        logic = logics[rng.randrange(len(logics))]
        pool = enumerate_formulas(logic.signature, 2, 2)
        gamma = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(0, 2))]
        phi = pool[rng.randrange(len(pool))]
        queries += 1
        v = derives(logic, gamma, phi, short)
        if v.is_yes and logic.matrix is not None:
            holds, _ = matrix_consequence(logic.matrix, gamma, phi)
            if not holds:
                failures += 1  # soundness breach
        if v.is_yes and v.proof is not None:
            yeses += 1
            sigma = Substitution({
                0: substitution_pool[rng.randrange(len(substitution_pool))],
                1: substitution_pool[rng.randrange(len(substitution_pool))],
            })
            if logic.signature != SIG:
                sigma = Substitution({0: Var(1), 1: Var(0)})
            moved = transform_proof(v.proof, sigma)
            new_gamma = {substitute(sigma, g) for g in gamma}
            if not verify_proof(logic, new_gamma, substitute(sigma, phi), moved):
                failures += 1
    report(6, failures == 0 and queries >= 200 and yeses >= 20,
           f"three-step detachment, identity within five steps, "
           f"structurality round trips on {yeses} proofs over {queries} queries, "
           "soundness unbroken")


def test_criterion_07_image_condition_equivalences():
    rng = random.Random(707)
    failures = 0
    sampled_pairs = 0
    pool = enumerate_formulas(SIG, 2, 2)
    short = Budget(proof_length=6)
    while sampled_pairs < 100:
        h = random_flexible(rng, SIG, CPL2.signature, 3)
        if h is None:
            continue
        verdict = check_translation(h, CPL1, CPL2)
        if verdict.status not in (VERIFIED, REFUTED):
            failures += 1
            sampled_pairs += 1
            continue
        if verdict.status == REFUTED:
            # the witness scheme itself is a source-derivable sequent whose
            # image fails: the three conditions agree on it
            w = verdict.witness
            ok = w is not None and w.get("counter")
            if not ok:
                failures += 1
            sampled_pairs += 5
            continue
        for _ in range(5):
            gamma = [pool[rng.randrange(len(pool))]
                     for _ in range(rng.randint(0, 2))]
            phi = pool[rng.randrange(len(pool))]
            sampled_pairs += 1
            v = derives(CPL1, gamma, phi, short)
            if v.is_yes:
                image = derives(CPL2, [translate_formula(h, g) for g in gamma],
                                translate_formula(h, phi))
                if not image.is_yes:
                    failures += 1
    report(7, failures == 0 and sampled_pairs >= 100,
           f"presentation, pullback and pushforward conditions agree on "
           f"{sampled_pairs} sampled morphism/sequent pairs")


def test_criterion_08_fibring():
    failures = 0
    impfrag = ENV.logic("IMPFRAG")
    negfrag = ENV.logic("NEGFRAG")
    combined, t1, t2 = fibring_unconstrained(impfrag, negfrag)
    if not (t1.verified and t2.verified):
        failures += 1
    goal = parse("imp_1(imp_1(neg_1(x0), neg_1(x1)), imp_1(x1, x0))",
                 combined.signature)
    v = derives(combined, [], goal, FAST)
    if not v.is_yes:
        failures += 1
    v = derives(combined, [], parse("imp_0(x0, x0)", combined.signature), FAST)
    if not (v.is_yes and verify_proof(combined, set(),
                                      parse("imp_0(x0, x0)", combined.signature),
                                      v.proof)):
        failures += 1
    # constrained fibring over the shared negation
    shared = bottom(ENV.signature("SigNeg"), name="sharedNeg")
    left = Translation(ENV.morphism("shareNegLeft"), shared,
                       ENV.logic("IMPFRAGN"), VERIFIED,
                       evidence=["membership preserved"])
    right = Translation(ENV.morphism("shareNegRight"), shared, negfrag,
                        VERIFIED, evidence=["membership preserved"])
    glued, g1, g2 = fibring_constrained(left, right)
    unary = [c for c, a in glued.signature.connectives.items() if a == 1]
    if len(unary) != 1:
        failures += 1
    goal = parse("imp_1(imp_1(neg_0(x0), neg_0(x1)), imp_1(x1, x0))",
                 glued.signature)
    v = derives(glued, [], goal, FAST)
    if not v.is_yes:
        failures += 1
    if not (g1.verified and g2.verified):
        failures += 1
    report(8, failures == 0, "fibring derives the negation axiom image and "
           "the implication identity; constrained fibring glues one negation")


def test_criterion_09_identity_problem():
    failures = 0
    H = ENV.morphism("h")
    K = ENV.morphism("k")
    forward = weak_equivalence(H, CPL1, CPL2, n_max=2, target_compl=4)
    backward = weak_equivalence(K, CPL2, CPL1, n_max=2, target_compl=4)
    for cert in (forward, backward):
        if not cert.holds or cert.conservativity != "connective-tables":
            failures += 1
        if len(cert.denseness[2]["classes"]) != 16:
            failures += 1
    back_forth = morphisms_equivalent(kleisli_compose(K, H),
                                      kleisli_identity(SIG), CPL1)
    forth_back = morphisms_equivalent(kleisli_compose(H, K),
                                      kleisli_identity(CPL2.signature), CPL2)
    if not (back_forth.equivalent and forth_back.equivalent):
        failures += 1
    if back_forth.scope != "generator-sufficient":
        failures += 1
    # no strict isomorphism of logics exists at the arity level
    from catlog.signatures import identity_morphism
    strict_pairs = 0
    for f in all_strict_morphisms(SIG, CPL2.signature):
        for g in all_strict_morphisms(CPL2.signature, SIG):
            if compose_strict(g, f) == identity_morphism(SIG) \
                    and check_translation(f, CPL1, CPL2).verified:
                strict_pairs += 1
    if strict_pairs != 0:
        failures += 1
    report(9, failures == 0, "the classical pair is conservative and dense "
           "both ways, round-trips to identity in the quotient, and no "
           "strict isomorphism of the logics exists")


def test_criterion_10_strong_rigidity():
    probe = rigidity_probe(CPL1, bound=3)
    ok = (probe["rigid"] and probe["identity_enumerated"]
          and probe["verified_translations"] >= 1
          and probe["endomorphisms"] > 1000)
    bot = ENV.logic("BotNeg")
    bot_probe = rigidity_probe(bot, bound=3)
    ok = ok and not bot_probe["rigid"]
    collapse = {"neg": "x0"}
    ok = ok and collapse in [w["morphism"]["map"]
                             for w in bot_probe["non_rigid_witnesses"]]
    report(10, ok,
           f"all {probe['verified_translations']} verified endo-translations "
           f"of the classical presentation (of {probe['endomorphisms']} "
           "candidates at bound 3) collapse to the identity; "
           "the least logic does not")


def test_criterion_11_lindenbaum_equivalence_set():
    delta = [p("imp(x0, x1)"), p("imp(x1, x0)")]
    full = lindenbaum_delta_check(CPL1, delta)
    ok = full["passed"]
    half = lindenbaum_delta_check(CPL1, [p("imp(x0, x1)")])
    sym = half["conditions"]["b_symmetric"]
    ok = ok and not half["passed"] and sym["status"] == "refuted"
    ok = ok and sym["witness"]["counter"] == {"x0": "0", "x1": "1"}
    report(11, ok, "the implication pair passes all five conditions; "
           "dropping one fails symmetry with an explicit valuation")


def test_criterion_12_congruentiality_and_closure():
    failures = 0
    for logic in (CPL1, CPL2):
        if is_congruential(logic, (4, 2)).status != CONFIRMED:
            failures += 1
    nc3 = is_congruential(ENV.logic("NC3"), (4, 2))
    if nc3.status != "refuted" or not nc3.witness:
        failures += 1
    fibred, _, _ = fibring_unconstrained(ENV.logic("IMPFRAG"),
                                         ENV.logic("NEGFRAG"))
    sig = fibred.signature
    hyp = parse("neg_1(x0)", sig)
    goal = parse("neg_1(imp_0(imp_0(x0, x0), x0))", sig)
    before = derives(fibred, [hyp], goal, FAST)
    closed = congruential_closure(fibred, (3, 1))
    after = derives(closed, [hyp], goal, FAST)
    if not (before.is_unknown and after.is_yes):
        failures += 1
    if not verify_proof(closed, {hyp}, goal, after.proof):
        failures += 1
    report(12, failures == 0, "classical matrices congruential at (4,2); "
           "the three-valued counterexample refuted with witness; closure "
           "strictly extends the fibred calculus on the exhibited sequent")
