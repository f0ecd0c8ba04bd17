import itertools
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from catlog import kleisli, signatures
from catlog.formulas import (
    App, StructuralError, Substitution, Var, check_formula, complexity,
    enumerate_slice, extend, fmt, parse, substitute, variables,
)
from catlog.kleisli import (
    FlexibleMorphism, all_flexible_morphisms, all_strict_morphisms,
    check_kleisli_theorem, counit, directed_colimit_signatures, flat,
    flexible_extension, is_regular, is_weak_terminal, kleisli_compose,
    kleisli_identity, lift_strict, minus_functor, random_composable_pair,
    random_composable_triple, random_flexible, random_formula_in_slice,
    random_signature, sharp, slice_colimit_comparison, slice_inhabitant,
    suite_adjunction,
    suite_category_laws, suite_kleisli_theorem, suite_monad_laws,
    suite_regularity, t_on_strict, truncate_slices, unit,
    weak_terminal_witness,
)
from catlog.signatures import (
    Signature, StrictMorphism, compose_strict, identity_morphism,
    strict_extension,
)

from strategies import CPL1_SIG, CPL2_SIG, formulas

H = FlexibleMorphism(CPL1_SIG, CPL2_SIG, {
    "neg": parse("negp(x0)", CPL2_SIG),
    "imp": parse("orp(negp(x0), x1)", CPL2_SIG),
})
K = FlexibleMorphism(CPL2_SIG, CPL1_SIG, {
    "negp": parse("neg(x0)", CPL1_SIG),
    "orp": parse("imp(neg(x0), x1)", CPL1_SIG),
})


def shape_catalog(max_connectives=3, arities=(0, 1, 2)):
    shapes = []
    for k in range(max_connectives + 1):
        for combo in itertools.combinations_with_replacement(arities, k):
            shapes.append(Signature(
                "G" + "".join(map(str, combo)),
                {f"g{i}": a for i, a in enumerate(combo)}))
    return shapes


def test_flexible_morphism_enforces_exact_variable_slice():
    with pytest.raises(ValueError):
        FlexibleMorphism(CPL1_SIG, CPL2_SIG, {
            "neg": parse("negp(x0)", CPL2_SIG),
            "imp": parse("orp(x0, x0)", CPL2_SIG),  # variable set {0}, not {0,1}
        })


def test_kleisli_identity_assignments():
    ident = kleisli_identity(CPL1_SIG)
    assert ident("neg") == parse("neg(x0)", CPL1_SIG)
    assert ident("imp") == parse("imp(x0, x1)", CPL1_SIG)


def test_identity_extension_is_identity():
    ident = kleisli_identity(CPL1_SIG)
    for n in range(3):
        for phi in enumerate_slice(CPL1_SIG, n, 3):
            assert flexible_extension(ident, phi) == phi


def test_flexible_extension_single_unfolding():
    assert flexible_extension(H, parse("imp(x0, x1)", CPL1_SIG)) == \
        parse("orp(negp(x0), x1)", CPL2_SIG)


def test_collapsing_unary_drops_complexity():
    collapse = FlexibleMorphism(
        Signature("N", {"neg": 1}), Signature("N", {"neg": 1}),
        {"neg": Var(0)})
    image = flexible_extension(collapse, parse("neg(neg(x0))", CPL1_SIG))
    assert image == Var(0)


def test_extension_determines_morphism():
    # if two morphisms agree on every generator application they are equal
    src = Signature("S", {"u": 1, "b": 2})
    pool = all_flexible_morphisms(src, CPL1_SIG, 2)
    for f, g in itertools.combinations(pool[:40], 2):
        agree = all(
            flexible_extension(f, App(c, tuple(Var(i) for i in range(a)))) ==
            flexible_extension(g, App(c, tuple(Var(i) for i in range(a))))
            for c, a in src.connectives.items())
        assert agree == (f == g)


def _extension_reference(h, phi):
    """Memo-free flexible extension, straight from the definition."""
    if isinstance(phi, Var):
        return phi
    sigma = Substitution({i: _extension_reference(h, a) for i, a in enumerate(phi.args)})
    return substitute(sigma, h.assignment[phi.connective])


@given(st.lists(formulas(CPL1_SIG), min_size=1, max_size=6))
def test_memoized_extension_matches_reference(phis):
    fresh = FlexibleMorphism(CPL1_SIG, CPL2_SIG, dict(H.assignment))
    round_trip = kleisli_compose(K, fresh)
    for phi in phis + phis:
        for h in (fresh, H, round_trip):
            assert flexible_extension(h, phi) is _extension_reference(h, phi)
        assert flexible_extension(round_trip, phi) is \
            flexible_extension(K, flexible_extension(fresh, phi))


def test_warm_memo_still_rejects_bad_formulas():
    h = FlexibleMorphism(CPL1_SIG, CPL2_SIG, dict(H.assignment))
    good = parse("imp(x0, neg(x1))", CPL1_SIG)
    image = parse("orp(negp(x0), negp(x1))", CPL2_SIG)
    # a composite whose shared memo an equal composite from another factor
    # pair has warmed
    warm = kleisli_compose(kleisli_identity(CPL2_SIG), h)
    assert flexible_extension(warm, good) == image
    shared = kleisli_compose(h, kleisli_identity(CPL1_SIG))
    assert shared._memo is warm._memo and good in shared._memo
    assert flexible_extension(h, good) == image
    bad_formulas = [
        App("conj", (Var(0),)),                  # unknown head
        App("conj", (good, Var(0))),             # unknown head over a good subterm
        App("neg", (Var(0), Var(1))),            # wrong arity
        App("neg", (good, good)),                # wrong arity over good subterms
        App("imp", (good,)),
        App("imp", (good, App("neg", (good, Var(1))))),  # bad node below the root
    ]
    for bad in bad_formulas:
        with pytest.raises(StructuralError) as expected:
            check_formula(CPL1_SIG, bad)
        for morphism in (h, shared):
            with pytest.raises(StructuralError) as got:
                flexible_extension(morphism, bad)
            assert str(got.value) == str(expected.value)
    # the failures left the memos consistent
    assert flexible_extension(h, good) == flexible_extension(shared, good) == image


def _sweep_pools():
    """The two pools of the benchmark's A2 -> A3 -> A2 associativity sweep,
    and the slice formulas it extends along each composite."""
    a2, a3 = Signature("A2", {"b": 2}), Signature("A3", {"n": 1, "b": 2})
    slices = [phi for n in range(3) for phi in enumerate_slice(a2, n, 2)]
    return all_flexible_morphisms(a2, a3, 2), all_flexible_morphisms(a3, a2, 2), slices


def test_equal_composites_share_one_memo():
    first, second, slices = _sweep_pools()
    by_value = {}
    for h2, h3 in itertools.product(first[:4], second):
        composite = kleisli_compose(h3, h2)
        by_value.setdefault(composite, []).append(composite)
    # groups of equal composites from different factor pairs
    shared = [group for group in by_value.values() if len(group) > 1]
    assert shared and len(by_value) > 1
    for group in by_value.values():
        assert all(comp._memo is group[0]._memo for comp in group)
    memos = [group[0]._memo for group in by_value.values()]
    assert len({id(memo) for memo in memos}) == len(memos)
    # a memo warmed through one composite serves the other
    one, other = shared[0][:2]
    flexible_extension(one, slices[-1])
    assert slices[-1] in other._memo
    # other morphisms, equal ones among them, keep a memo of their own
    again = FlexibleMorphism(one.source, one.target, dict(one.assignment))
    pooled = first[0]
    assert again == one and again._memo is not one._memo
    assert pooled._memo is not all_flexible_morphisms(pooled.source, pooled.target, 2)[0]._memo
    strict = StrictMorphism(CPL1_SIG, CPL2_SIG, {"neg": "negp", "imp": "orp"})
    assert strict._memo is not compose_strict(identity_morphism(CPL2_SIG), strict)._memo


def test_a_full_composite_memo_table_empties_itself(monkeypatch):
    monkeypatch.setattr(signatures, "_COMPOSITE_MEMOS", 5)
    monkeypatch.setattr(signatures, "_composite_memos", {})
    first, second, slices = _sweep_pools()
    sizes = []
    for h2, h3 in itertools.product(first[:3], second[:20]):
        composite = kleisli_compose(h3, h2)
        for phi in slices:
            assert flexible_extension(composite, phi) is _extension_reference(composite, phi)
            sizes.append(len(signatures._composite_memos))
    assert max(sizes) == 5
    # some composite found the table full and started it over
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))


def test_flexible_morphism_equality_ignores_memo():
    warm = FlexibleMorphism(CPL1_SIG, CPL2_SIG, dict(H.assignment))
    cold = FlexibleMorphism(CPL1_SIG, CPL2_SIG, dict(H.assignment))
    for n in range(3):
        for phi in enumerate_slice(CPL1_SIG, n, 3):
            flexible_extension(warm, phi)
    assert warm == cold == H and hash(warm) == hash(cold) == hash(H)
    assert len({warm, cold}) == 1


def test_kleisli_compose_frozen_example():
    composed = kleisli_compose(K, H)
    assert composed("neg") == parse("neg(x0)", CPL1_SIG)
    assert composed("imp") == parse("imp(neg(neg(x0)), x1)", CPL1_SIG)


def test_composites_pass_the_check_that_compose_skips():
    # kleisli_compose builds its result without FlexibleMorphism's check
    mixed = Signature("M", {"e": 0, "u": 1, "b": 2})
    other = Signature("N", {"z": 0, "i": 2})
    checked = 0
    for a, b, c in [(CPL1_SIG, mixed, other), (mixed, other, mixed)]:
        for h1 in all_flexible_morphisms(a, b, 2)[:25]:
            for h2 in all_flexible_morphisms(b, c, 2)[:25]:
                composite = kleisli_compose(h2, h1)
                assert FlexibleMorphism(a, c, composite.assignment) == composite
                checked += 1
    assert checked == 2 * 25 * 25


def test_unit_laws_small_exhaustive():
    for src in (Signature("N", {"n": 1}), Signature("B", {"b": 2})):
        for tgt in (CPL1_SIG, CPL2_SIG):
            for h in all_flexible_morphisms(src, tgt, 2):
                assert kleisli_compose(h, kleisli_identity(src)) == h
                assert kleisli_compose(kleisli_identity(tgt), h) == h


def test_associativity_literal_small_chain():
    n_sig = Signature("N", {"n": 1})
    pool = all_flexible_morphisms(n_sig, n_sig, 2)
    for h1, h2, h3 in itertools.product(pool, repeat=3):
        assert kleisli_compose(kleisli_compose(h3, h2), h1) == \
            kleisli_compose(h3, kleisli_compose(h2, h1))


def test_associativity_factored_over_slices():
    # extension of a composite equals composed extensions on every bounded
    # slice formula, which covers associativity against every first leg
    mid = Signature("M", {"u": 1, "b": 2})
    out = Signature("O", {"v": 1, "c": 2})
    pool2 = all_flexible_morphisms(mid, out, 1)
    pool3 = all_flexible_morphisms(out, mid, 1)
    slices = [phi for n in range(3) for phi in enumerate_slice(mid, n, 2)]
    for h2 in pool2:
        for h3 in pool3:
            composed = kleisli_compose(h3, h2)
            for phi in slices:
                assert flexible_extension(composed, phi) == \
                    flexible_extension(h3, flexible_extension(h2, phi))


def test_lift_strict_extension_agrees_with_hat():
    f = StrictMorphism(CPL1_SIG, CPL2_SIG, {"neg": "negp", "imp": "orp"})
    lifted = lift_strict(f)
    rng = random.Random(5)
    pool = [phi for n in range(3) for phi in enumerate_slice(CPL1_SIG, n, 4)]
    for _ in range(200):
        phi = pool[rng.randrange(len(pool))]
        assert flexible_extension(lifted, phi) == strict_extension(f, phi)


def test_lift_of_identity_is_kleisli_identity():
    assert lift_strict(identity_morphism(CPL1_SIG)) == kleisli_identity(CPL1_SIG)


# --- regularity -------------------------------------------------------------


def test_regularity_examples():
    collapse = FlexibleMorphism(
        Signature("N", {"neg": 1}), CPL1_SIG, {"neg": Var(0)})
    regular, witness = is_regular(collapse)
    assert not regular
    assert complexity(flexible_extension(collapse, witness)) < complexity(witness)
    lifted = lift_strict(StrictMorphism(CPL1_SIG, CPL2_SIG,
                                        {"neg": "negp", "imp": "orp"}))
    assert is_regular(lifted) == (True, None)


def test_regularity_suite_clean():
    report = suite_regularity(60, seed=3)
    assert report["failures"] == []


# --- weak terminals ---------------------------------------------------------


def test_weak_terminal_predicate_examples():
    assert is_weak_terminal(Signature("T", {"tt": 0, "conj": 2}))
    assert not is_weak_terminal(Signature("N", {"neg": 1}))
    assert not is_weak_terminal(Signature("C", {"tt": 0}))
    assert not is_weak_terminal(Signature("B", {"conj": 2}))


def test_weak_terminal_witness_construction():
    probe = Signature("P", {"e": 0, "u": 1, "b": 2, "t": 3})
    terminal = Signature("T", {"tt": 0, "conj": 2})
    witness = weak_terminal_witness(probe, terminal)
    assert witness is not None
    for c, arity in probe.connectives.items():
        assert variables(witness(c)) == frozenset(range(arity))
    # negative case: no constant, so arity-0 connectives cannot be mapped
    assert weak_terminal_witness(probe, Signature("B", {"conj": 2})) is None


def test_weak_terminal_predicate_matches_construction():
    rng = random.Random(17)
    probe = Signature("P", {"e": 0, "u": 1, "b": 2})
    shapes = shape_catalog()
    for _ in range(30):
        candidate = shapes[rng.randrange(len(shapes))]
        built = weak_terminal_witness(probe, candidate)
        assert is_weak_terminal(candidate) == (built is not None)


def test_slice_inhabitant_respects_exact_variables():
    terminal = Signature("T", {"tt": 0, "conj": 3})
    for n in range(5):
        phi = slice_inhabitant(terminal, n)
        assert phi is not None and variables(phi) == frozenset(range(n))


# --- the slice functor, unit, counit, multiplication ------------------------


def test_minus_functor_of_identity():
    ident = kleisli_identity(CPL1_SIG)
    strict, src, tgt = minus_functor(ident, 2, 2)
    for name in src.signature.connectives:
        assert strict(name) == name


def test_minus_functor_functoriality():
    rng = random.Random(23)
    for _ in range(10):
        h1, h2 = random_composable_pair(rng, 2)
        m12, src, _ = minus_functor(kleisli_compose(h2, h1), 2, 2)
        for name, phi in src.decode.items():
            assert m12(name) == fmt(
                flexible_extension(h2, flexible_extension(h1, phi)))


def test_minus_functor_mono_transfer():
    # injective on slices exactly when injective on connectives, levelwise
    small = shape_catalog(2, (1, 2))
    for a in small:
        for b in small:
            for f in all_strict_morphisms(a, b):
                h = lift_strict(f)
                strict, src, _ = minus_functor(h, 3, 2)
                slice_injective = all(
                    _injective_on(strict, [c for c, ar in
                                           src.signature.connectives.items()
                                           if ar == n])
                    for n in range(3))
                conn_injective = all(
                    _injective_map(f, a.level(n)) for n in range(3))
                assert slice_injective == conn_injective


def _injective_on(mapping, keys):
    images = [mapping(k) for k in keys]
    return len(images) == len(set(images))


def _injective_map(f, keys):
    images = [f(c) for c in keys]
    return len(images) == len(set(images))


def test_unit_assignment():
    eta, trunc = unit(CPL1_SIG)
    assert eta("neg") == fmt(parse("neg(x0)", CPL1_SIG))
    assert eta("imp") == fmt(parse("imp(x0, x1)", CPL1_SIG))


def test_counit_decodes():
    trunc = truncate_slices(CPL1_SIG, 2, 2)
    eps = counit(trunc)
    for ident, phi in trunc.decode.items():
        assert eps(ident) == phi


def test_monad_suite_clean():
    report = suite_monad_laws(300, seed=7)
    assert report["failures"] == []


def test_adjunction_suite_clean():
    report = suite_adjunction(25, seed=9)
    assert report["failures"] == []


def test_sharp_flat_round_trip_exhaustive_small():
    src = Signature("S", {"u": 1, "b": 2})
    for h in all_flexible_morphisms(src, CPL1_SIG, 2):
        f, trunc = sharp(h)
        assert flat(f, trunc) == h


def test_category_suite_clean():
    report = suite_category_laws(60, seed=1)
    assert report["failures"] == []


def test_kleisli_theorem_on_corpus_pair():
    report = check_kleisli_theorem([(H, K), (K, H)])
    assert report["failures"] == []


def test_kleisli_theorem_on_lifted_strict():
    f = lift_strict(StrictMorphism(CPL1_SIG, CPL2_SIG,
                                   {"neg": "negp", "imp": "orp"}))
    report = check_kleisli_theorem([(f, K)])
    assert report["failures"] == []


def test_kleisli_suite_clean():
    report = suite_kleisli_theorem(120, seed=2)
    assert report["failures"] == []


# --- the law suites report a broken kernel ------------------------------------


def _failing_cases(report):
    """The case numbers of a report's failures, each checked for the record
    keys."""
    assert report["failures"]
    assert all(set(f) == {"case", "inputs", "lhs", "rhs"} for f in report["failures"])
    return sorted({f["case"] for f in report["failures"]})


def test_category_suite_reports_a_broken_composition(monkeypatch):
    monkeypatch.setattr(kleisli, "kleisli_compose", lambda outer, inner: inner)
    assert _failing_cases(suite_category_laws(5, seed=1)) == [0, 1, 2, 3, 4]


def test_kleisli_suite_reports_a_broken_flatten(monkeypatch):
    # flattening nothing leaves encoded heads in place; cases 2, 3 and 5 send
    # each connective to a variable or to a constant, whose encoding is itself
    monkeypatch.setattr(kleisli, "flatten", lambda phi, decode: phi)
    assert _failing_cases(suite_kleisli_theorem(6, seed=2)) == [0, 1, 4]


def test_adjunction_suite_reports_a_broken_flatten(monkeypatch):
    monkeypatch.setattr(kleisli, "flatten", lambda phi, decode: phi)
    assert _failing_cases(suite_adjunction(4, seed=9)) == [1, 2, 3, 4]


def test_monad_suite_reports_a_broken_flatten(monkeypatch):
    monkeypatch.setattr(kleisli, "flatten", lambda phi, decode: phi)
    assert _failing_cases(suite_monad_laws(6, seed=7)) == [1, 2, 3, 4, 5, 6]


def test_regularity_suite_reports_a_criterion_that_always_says_regular(monkeypatch):
    # the suite fails exactly the cases that the true criterion calls irregular
    verdicts = []

    def always_regular(h):
        verdicts.append(is_regular(h)[0])
        return True, None

    monkeypatch.setattr(kleisli, "is_regular", always_regular)
    failing = _failing_cases(suite_regularity(20, seed=3))
    assert failing == [case for case, regular in enumerate(verdicts, 1) if not regular]


def test_adjunction_suite_reports_a_flat_that_does_not_decode(monkeypatch):
    # undecoded, flat(sharp(h)) lands on the slice heads; case 2's h sends
    # its one constant to a constant, which is its own slice head
    monkeypatch.setattr(kleisli, "flat", lambda f, trunc: lift_strict(f))
    report = suite_adjunction(4, seed=9)
    assert _failing_cases(report) == [1, 3, 4]
    assert {(f["lhs"], f["rhs"]) for f in report["failures"]} == {("flat(sharp(h))", "h")}


def test_adjunction_suite_reports_a_broken_first_triangle(monkeypatch):
    # a counit that does not decode leaves the lifted unit as the composite;
    # case 2's signature is one constant, its own slice truncation
    monkeypatch.setattr(kleisli, "counit", lambda trunc: kleisli_identity(trunc.signature))
    report = suite_adjunction(4, seed=9)
    assert _failing_cases(report) == [1, 3, 4]
    for failure in report["failures"]:
        sig = Signature("s", {c["id"]: c["arity"]
                              for c in failure["inputs"]["signature"]["connectives"]})
        eta, trunc = unit(sig)
        assert failure["lhs"] == repr(kleisli_compose(kleisli_identity(trunc.signature),
                                                      lift_strict(eta)))
        assert failure["rhs"] == "identity"


def test_regularity_suite_reports_a_witness_without_a_complexity_drop(monkeypatch):
    # x0 translates to itself, so it never witnesses irregularity
    monkeypatch.setattr(kleisli, "is_regular", lambda h: (False, Var(0)))
    report = suite_regularity(6, seed=3)
    assert _failing_cases(report) == [1, 2, 3, 4, 5, 6]
    assert {(f["lhs"], f["rhs"]) for f in report["failures"]} == {
        ("witness", "no complexity drop")}


def test_category_suite_reports_a_broken_associativity(monkeypatch):
    # a composite given as the inner leg comes back unchanged: both unit laws
    # still hold, and h3 . (h2 . h1) reads h2 . h1
    compose, composites = kleisli.kleisli_compose, []

    def forgetful(outer, inner):
        if any(inner is c for c in composites):
            return inner
        composites.append(compose(outer, inner))
        return composites[-1]

    monkeypatch.setattr(kleisli, "kleisli_compose", forgetful)
    report = suite_category_laws(5, seed=1)
    assert _failing_cases(report) == [0, 1, 2, 3, 4]
    rng = random.Random(1)  # the suite's draws, one triple per case
    for failure in report["failures"]:
        h1, h2, h3 = random_composable_triple(rng, 3)
        assert failure["inputs"] == {"h1": h1.to_json(), "h2": h2.to_json(),
                                     "h3": h3.to_json()}
        assert failure["lhs"] == repr(compose(compose(h3, h2), h1))
        assert failure["rhs"] == repr(compose(h2, h1))


def test_monad_suite_reports_a_flatten_that_keeps_its_memo(monkeypatch):
    # one memo across calls: every formula keeps its first image, so the
    # unit laws still hold, but the outer-first path meets the two-level
    # element psi again and gets it back flattened one level only.  Case 5's
    # psi is a constant, the same at every level
    memo, first = {}, {}

    def stale(phi, decode):
        image = extend(decode, phi, memo)
        first.setdefault(fmt(phi), fmt(image))
        return image

    monkeypatch.setattr(kleisli, "flatten", stale)
    report = suite_monad_laws(6, seed=7)
    assert _failing_cases(report) == [1, 2, 3, 4, 6]
    for failure in report["failures"]:
        assert failure["lhs"] == first[failure["inputs"]["formula"]]
        assert failure["rhs"] == first[failure["lhs"]]


# --- reflection of isomorphisms, monomorphisms, epimorphisms ----------------


def _slice_map_properties(f, bound=3, var_bound=2):
    strict, src, tgt = t_on_strict(f, bound, var_bound)
    out = []
    for n in range(var_bound + 1):
        src_level = [c for c, a in src.signature.connectives.items() if a == n]
        images = [strict(c) for c in src_level]
        injective = len(images) == len(set(images))
        tgt_compl1 = {fmt(phi) for phi in enumerate_slice(f.target, n, bound)
                      if complexity(phi) == 1}
        compl1_images = {strict(fmt(phi))
                         for phi in enumerate_slice(f.source, n, bound)
                         if complexity(phi) == 1}
        surjective_1 = tgt_compl1 <= compl1_images
        out.append((injective, surjective_1))
    return out


def test_t_reflects_mono_epi_iso_exhaustive():
    shapes = shape_catalog(2, (0, 1, 2))
    for a in shapes:
        for b in shapes:
            for f in all_strict_morphisms(a, b):
                props = _slice_map_properties(f)
                all_levels_inj = all(
                    _injective_map(f, a.level(n)) for n in range(3))
                for n, (injective, surjective_1) in enumerate(props):
                    conn_inj = _injective_map(f, a.level(n))
                    conn_surj = set(b.level(n)) <= {f(c) for c in a.level(n)}
                    if injective:
                        assert conn_inj
                    if surjective_1:
                        assert conn_surj
                    # preservation sanity: a morphism injective at every
                    # level has injective slice maps
                    if all_levels_inj:
                        assert injective


# --- isomorphisms, sections, and the strict-lift comparison -----------------


def _flexible_isos(sig):
    """All flexible endo-isomorphisms found by bounded search."""
    pool = all_flexible_morphisms(sig, sig, 2)
    ident = kleisli_identity(sig)
    isos = []
    for h in pool:
        for g in pool:
            if kleisli_compose(g, h) == ident and kleisli_compose(h, g) == ident:
                isos.append(h)
                break
    return isos


def test_isomorphisms_are_strict_up_to_variable_permutation():
    # every iso found by search has complexity-one assignments applying a
    # connective to a permutation of the variables; with arities at most one
    # the permutation is trivial and the iso is a lifted strict isomorphism
    sig = Signature("S", {"u": 1, "b": 2})
    for h in _flexible_isos(sig):
        for c, arity in sig.connectives.items():
            body = h(c)
            assert complexity(body) == 1
            assert sorted(v.index for v in body.args) == list(range(arity))
    unary = Signature("U", {"u": 1, "v": 1})
    lifted = {fmt_morphism(lift_strict(f))
              for f in all_strict_morphisms(unary, unary)}
    for h in _flexible_isos(unary):
        assert fmt_morphism(h) in lifted


def fmt_morphism(h):
    return tuple(sorted((c, fmt(phi)) for c, phi in h.assignment.items()))


def test_sections_are_regular():
    sig = Signature("S", {"u": 1, "b": 2})
    pool = all_flexible_morphisms(sig, sig, 2)
    ident = kleisli_identity(sig)
    for h in pool:
        if any(kleisli_compose(g, h) == ident for g in pool):
            assert is_regular(h)[0]


def test_complexity_preserving_morphisms_are_permuted_lifts():
    # lifts preserve complexity exactly; conversely a complexity-preserving
    # morphism applies a target connective to a permutation of the variables
    # (the order-preserving ones are exactly the strict lifts)
    src = Signature("S", {"u": 1, "b": 2})
    tgt = Signature("T", {"v": 1, "c": 2})
    lifted = {fmt_morphism(lift_strict(f)): f
              for f in all_strict_morphisms(src, tgt)}
    slices = [phi for n in range(3) for phi in enumerate_slice(src, n, 3)]
    for h in all_flexible_morphisms(src, tgt, 3):
        preserving = all(
            complexity(flexible_extension(h, phi)) == complexity(phi)
            for phi in slices)
        permuted = all(
            complexity(body) == 1 and
            all(isinstance(a, Var) for a in body.args) and
            sorted(v.index for v in body.args) == list(range(arity))
            for c, arity in src.connectives.items()
            for body in [h(c)])
        assert preserving == permuted
        if fmt_morphism(h) in lifted:
            assert preserving
        ordered = all(
            tuple(v.index for v in h(c).args) == tuple(range(arity))
            for c, arity in src.connectives.items()
            if complexity(h(c)) == 1 and all(isinstance(a, Var) for a in h(c).args))
        if preserving and ordered:
            assert fmt_morphism(h) in lifted


# --- directed colimits of signatures ----------------------------------------


def test_directed_colimit_of_inclusions():
    s0 = Signature("S0", {"n": 1})
    s1 = Signature("S1", {"n": 1, "b": 2})
    s2 = Signature("S2", {"n": 1, "b": 2, "e": 0})
    chain = [StrictMorphism(s0, s1, {"n": "n"}),
             StrictMorphism(s1, s2, {"n": "n", "b": "b"})]
    vertex, cocone = directed_colimit_signatures(chain)
    assert vertex.connectives == s2.connectives
    for n in range(3):
        report = slice_colimit_comparison(chain, n, 3)
        assert report["bijective"], report


def test_directed_colimit_with_merging_step():
    s0 = Signature("S0", {"p": 1, "q": 1})
    s1 = Signature("S1", {"r": 1})
    chain = [StrictMorphism(s0, s1, {"p": "r", "q": "r"})]
    vertex, cocone = directed_colimit_signatures(chain)
    assert len(vertex.connectives) == 1
    for n in range(2):
        report = slice_colimit_comparison(chain, n, 3)
        assert report["bijective"], report


def test_directed_colimit_single_stage():
    s0 = Signature("S0", {"n": 1})
    chain = [StrictMorphism(s0, s0, {"n": "n"})]
    vertex, cocone = directed_colimit_signatures(chain)
    assert vertex.connectives == s0.connectives
    report = slice_colimit_comparison(chain, 1, 3)
    assert report["bijective"]


MIXED = Signature("Mixed", {"e": 0, "n": 1, "b": 2})
MIXED_TARGET = Signature("MixedT", {"d": 0, "m": 1, "k": 1, "c": 2})
MIXED_MAP = {"e": "d", "n": "m", "b": "c"}


def test_strict_and_flexible_morphisms_print_alike():
    f = StrictMorphism(MIXED, MIXED_TARGET, MIXED_MAP, name="f")
    lifted = lift_strict(f)
    assert repr(f) == "StrictMorphism(b -> c, e -> d, n -> m)"
    assert repr(lifted) == "FlexibleMorphism(b -> c(x0, x1), e -> d, n -> m(x0))"
    assert f.to_json() == {"kind": "strict", "name": "f", "source": "Mixed",
                           "target": "MixedT", "map": {"b": "c", "e": "d", "n": "m"}}
    assert lifted.to_json() == {"kind": "flexible", "name": "f+", "source": "Mixed",
                                "target": "MixedT",
                                "map": {"b": "c(x0, x1)", "e": "d", "n": "m(x0)"}}
    assert list(lifted.to_json()["map"]) == ["b", "e", "n"]
    # constants print the same either way: only the kind tells them apart
    constants = Signature("E", {"e": 0})
    g = StrictMorphism(constants, MIXED_TARGET, {"e": "d"})
    assert repr(g)[len("Strict"):] == repr(lift_strict(g))[len("Flexible"):]
    assert {**g.to_json(), "kind": "flexible"} == {**lift_strict(g).to_json(), "name": ""}


def test_equal_images_give_equal_morphisms():
    f = StrictMorphism(MIXED, MIXED_TARGET, MIXED_MAP, name="one")
    same = StrictMorphism(MIXED, MIXED_TARGET, dict(MIXED_MAP), name="two")
    assert f == same and hash(f) == hash(same)
    assert f != StrictMorphism(MIXED, MIXED_TARGET, {**MIXED_MAP, "n": "k"})
    lifted = lift_strict(f)
    rebuilt = FlexibleMorphism(MIXED, MIXED_TARGET, dict(lifted.assignment), name="x")
    assert lifted == rebuilt and hash(lifted) == hash(rebuilt)
    assert f != lifted and lifted != f and len({f, lifted}) == 2
    assert f.mapping is f.images and lifted.assignment is lifted.images


def test_morphism_enumerations_keep_their_order():
    source = Signature("S", {"n": 1, "b": 2})
    assert [f.mapping for f in all_strict_morphisms(source, MIXED_TARGET)] == [
        {"b": "c", "n": "k"}, {"b": "c", "n": "m"}]
    unary, binary = enumerate_slice(MIXED_TARGET, 1, 2), enumerate_slice(MIXED_TARGET, 2, 2)
    assert [h.assignment for h in all_flexible_morphisms(source, MIXED_TARGET, 2)] == [
        {"b": phi, "n": psi} for phi in binary for psi in unary]


def test_flexible_enumeration_equals_the_checked_build():
    # all_flexible_morphisms skips the constructor's check on slice images
    endos = all_flexible_morphisms(CPL1_SIG, CPL1_SIG, 3)
    unary, binary = enumerate_slice(CPL1_SIG, 1, 3), enumerate_slice(CPL1_SIG, 2, 3)
    checked = [FlexibleMorphism(CPL1_SIG, CPL1_SIG, {"imp": phi, "neg": psi})
               for phi in binary for psi in unary]
    assert len(endos) == 5_022 and endos == checked
    assert all(type(h) is FlexibleMorphism and h.name == "" for h in endos)


@pytest.mark.parametrize("source", [
    Signature("C", {"e": 0, "n": 1}), Signature("C", {"a": 1, "z": 0})],
    ids=["empty-first", "empty-last"])
def test_morphism_enumerations_are_empty_without_candidates(source):
    no_constants = Signature("T", {"m": 1, "c": 2})
    assert all_strict_morphisms(source, no_constants) == []
    assert all_flexible_morphisms(source, no_constants, 3) == []


# --- seeded draws: counted and unranked, as if enumerated ------------------


def reference_formula_in_slice(rng, sig, n, max_compl):
    """A draw made by building the slice and indexing it."""
    pool = enumerate_slice(sig, n, max_compl)
    return pool[rng.randrange(len(pool))] if pool else None


def reference_flexible(rng, source, target, max_compl):
    assignment = {}
    for c, arity in source.connectives.items():
        phi = reference_formula_in_slice(rng, target, arity, max_compl)
        if phi is None:
            return None
        assignment[c] = phi
    return FlexibleMorphism(source, target, assignment)


def reference_composable_pair(rng, max_compl):
    while True:
        a, b, c = (random_signature(rng, name) for name in "abc")
        h1 = reference_flexible(rng, a, b, max_compl)
        if h1 is None:
            continue
        h2 = reference_flexible(rng, b, c, max_compl)
        if h2 is not None:
            return h1, h2


def reference_composable_triple(rng, max_compl):
    while True:
        h1, h2 = reference_composable_pair(rng, max_compl)
        h3 = reference_flexible(rng, h2.target, random_signature(rng, "d"), max_compl)
        if h3 is not None:
            return h1, h2, h3


def _same_morphisms(got, want):
    return len(got) == len(want) and all(
        g == w and g.name == w.name and g.source.name == w.source.name
        and g.target.name == w.target.name for g, w in zip(got, want))


# Seeds 1, 2 and 3 are the benchmark's suite seeds; each draws as its suite.
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_formula_draws_match_the_enumerating_reference(seed):
    shapes, rng, ref = random.Random(seed + 100), random.Random(seed), random.Random(seed)
    for _ in range(300):
        # at most one ternary head, which keeps the reference's slices small
        sig = Signature("s", {f"s{i}": shapes.randint(0, 3 if i == 0 else 2)
                              for i in range(shapes.randint(1, 3))})
        n, bound = shapes.randrange(4), shapes.randrange(4)
        got = random_formula_in_slice(rng, sig, n, bound)
        assert got is reference_formula_in_slice(ref, sig, n, bound)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_morphism_draws_match_the_enumerating_reference(seed):
    # the category suite's triples at bound 3
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(20):
        assert _same_morphisms(random_composable_triple(rng, 3),
                               reference_composable_triple(ref, 3))
        assert rng.getstate() == ref.getstate()
    # the Kleisli-theorem suite's pairs at bound 3
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(60):
        assert _same_morphisms(random_composable_pair(rng, 3),
                               reference_composable_pair(ref, 3))
        assert rng.getstate() == ref.getstate()
    # the regularity and adjunction suites' single morphisms at bound 2
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(60):
        src, tgt = random_signature(rng, "r"), random_signature(rng, "q")
        assert (src, tgt) == (random_signature(ref, "r"), random_signature(ref, "q"))
        got, want = random_flexible(rng, src, tgt, 2), reference_flexible(ref, src, tgt, 2)
        assert (got is None and want is None) or _same_morphisms([got], [want])
        assert rng.getstate() == ref.getstate()


# --- shared truncations ------------------------------------------------------


def reference_truncation(base, compl_bound, var_bound, extra=None):
    """The truncation's signature and decoding, built from scratch."""
    connectives, decode = {}, {}
    for n in range(var_bound + 1):
        for phi in enumerate_slice(base, n, compl_bound):
            connectives[fmt(phi)] = n
            decode[fmt(phi)] = phi
    for ident, phi in (extra or {}).items():
        if ident not in connectives:
            connectives[ident] = len(variables(phi))
            decode[ident] = phi
    return Signature(f"T({base.name})<= {compl_bound}", connectives), decode


def assert_built_from_scratch(trunc, base, compl_bound, var_bound, extra=None):
    sig, decode = reference_truncation(base, compl_bound, var_bound, extra)
    assert trunc.base is base
    assert (trunc.compl_bound, trunc.var_bound) == (compl_bound, var_bound)
    assert trunc.signature.name == sig.name
    assert list(trunc.signature.connectives.items()) == list(sig.connectives.items())
    assert list(trunc.decode.items()) == list(decode.items())


def test_truncations_of_equal_bases_keep_their_own_base_and_name():
    left = Signature("Left", {"u": 1, "b": 2})
    right = Signature("Right", {"b": 2, "u": 1})
    assert left == right
    for base in (left, right, left):
        trunc = truncate_slices(base, 2, 2)
        assert trunc.signature.name == f"T({base.name})<= 2"
        assert_built_from_scratch(trunc, base, 2, 2)


def test_changing_a_truncation_does_not_leak_into_the_next():
    base = Signature("Leak", {"u": 1, "b": 2})
    first = truncate_slices(base, 2, 2)
    first.decode.clear()
    first.decode["junk"] = Var(0)
    extra = {"u(u(u(x0)))": parse("u(u(u(x0)))", base)}
    grown = truncate_slices(base, 2, 2, extra=extra)
    assert_built_from_scratch(grown, base, 2, 2, extra)
    grown.signature.connectives.clear()
    again = truncate_slices(base, 2, 2)
    assert "u(u(u(x0)))" not in again.decode and "junk" not in again.decode
    assert_built_from_scratch(again, base, 2, 2)


def test_t_on_strict_pairs_equals_the_truncations_built_from_scratch():
    f1 = Signature("F1", {"n": 1, "b": 2})
    f2 = Signature("F2", {"n": 1, "m": 1, "b": 2, "c": 2})
    f3 = Signature("F3", {"u": 1, "v": 1, "b": 2})
    pairs = [(f, g) for f in all_strict_morphisms(f1, f2)
             for g in all_strict_morphisms(f2, f3)]
    assert len(pairs) == 16
    for f, g in pairs:
        for h in (f, g, compose_strict(g, f)):
            strict, src, tgt = minus_functor(h, 3, 2)
            assert_built_from_scratch(src, h.source, 3, 2)
            images = [strict_extension(h, phi) for phi in src.decode.values()]
            texts = [fmt(image) for image in images]
            assert_built_from_scratch(tgt, h.target, 3, 2, dict(zip(texts, images)))
            assert list(strict.images.items()) == list(zip(src.decode, texts))
            assert (strict.source, strict.target) == (src.signature, tgt.signature)


def test_sharp_equals_the_truncation_built_from_scratch():
    rng = random.Random(5)
    done = 0
    while done < 50:
        h = random_flexible(rng, random_signature(rng, "s"), random_signature(rng, "t"), 2)
        if h is None:
            continue
        done += 1
        f, trunc = sharp(h)
        mapping = {c: fmt(phi) for c, phi in h.assignment.items()}
        bound = max(max(map(complexity, h.assignment.values()), default=1), 1)
        var_bound = max(h.source.arities(), default=0)
        assert_built_from_scratch(trunc, h.target, bound, var_bound,
                                  dict(zip(mapping.values(), h.assignment.values())))
        assert f.images == mapping and f.target is trunc.signature
