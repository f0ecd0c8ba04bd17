import pytest
from hypothesis import given
import hypothesis.strategies as st

from catlog.formulas import (
    App, StructuralError, Substitution, Var, check_formula, complexity,
    enumerate_formulas, parse, substitute, variables,
)
from catlog.kleisli import FlexibleMorphism, directed_colimit_signatures
from catlog.signatures import (
    Partition, Signature, StrictMorphism, UnsupportedConstruction, compose_strict,
    coproduct_mediator, identity_morphism, product_pairing,
    signature_coproduct, signature_product, signature_pushout,
    strict_extension,
)

from strategies import CPL1_SIG, CPL2_SIG, formulas, substitutions

F = StrictMorphism(CPL1_SIG, CPL2_SIG, {"neg": "negp", "imp": "orp"})


def test_strict_morphism_validates_arity():
    with pytest.raises(ValueError):
        StrictMorphism(CPL1_SIG, CPL2_SIG, {"neg": "orp", "imp": "negp"})


def test_strict_morphism_requires_total_map():
    with pytest.raises(ValueError):
        StrictMorphism(CPL1_SIG, CPL2_SIG, {"neg": "negp"})


def test_extension_example():
    phi = parse("neg(imp(x0, x1))", CPL1_SIG)
    assert strict_extension(F, phi) == parse("negp(orp(x0, x1))", CPL2_SIG)


@given(formulas(CPL1_SIG))
def test_extension_of_identity(phi):
    ident = identity_morphism(CPL1_SIG)
    assert strict_extension(ident, phi) == phi


@given(formulas(CPL1_SIG))
def test_extension_preserves_complexity_and_variables(phi):
    image = strict_extension(F, phi)
    assert complexity(image) == complexity(phi)
    assert variables(image) == variables(phi)


@given(formulas(CPL1_SIG))
def test_extension_of_composite(phi):
    back = StrictMorphism(CPL2_SIG, CPL1_SIG, {"negp": "neg", "orp": "imp"})
    composite = compose_strict(back, F)
    assert strict_extension(composite, phi) == \
        strict_extension(back, strict_extension(F, phi))


@given(formulas(CPL1_SIG), substitutions(CPL1_SIG))
def test_extension_commutes_with_substitution(phi, sigma):
    # the pushed substitution sends each variable to the image of its value
    pushed = Substitution({v: strict_extension(F, sigma(v))
                           for v in sigma.mapping})
    assert strict_extension(F, substitute(sigma, phi)) == \
        substitute(pushed, strict_extension(F, phi))


def test_substitution_application_orders_agree():
    # both evaluation orders of theta[x|psi] under the extension coincide
    theta = parse("imp(x0, x1)", CPL1_SIG)
    psi = (parse("neg(x0)", CPL1_SIG), parse("imp(x0, x0)", CPL1_SIG))
    sigma = Substitution({0: psi[0], 1: psi[1]})
    lhs = strict_extension(F, substitute(sigma, theta))
    pushed = Substitution({0: strict_extension(F, psi[0]),
                           1: strict_extension(F, psi[1])})
    rhs = substitute(pushed, strict_extension(F, theta))
    assert lhs == rhs == parse("orp(negp(x0), orp(x0, x0))", CPL2_SIG)


# --- the extension memo -----------------------------------------------------


def _strict_reference(f, phi):
    """Memo-free extension: check the whole formula, then rename heads."""
    check_formula(f.source, phi)

    def walk(p):
        if isinstance(p, Var):
            return p
        return App(f(p.connective), tuple(walk(a) for a in p.args))
    return walk(phi)


@given(st.lists(formulas(CPL1_SIG), min_size=1, max_size=6))
def test_memoized_extension_matches_reference(phis):
    fresh = StrictMorphism(CPL1_SIG, CPL2_SIG, {"neg": "negp", "imp": "orp"})
    for phi in phis + phis:
        assert strict_extension(fresh, phi) is _strict_reference(fresh, phi)
        assert strict_extension(F, phi) is _strict_reference(F, phi)


def test_warm_memo_still_rejects_bad_formulas():
    f = StrictMorphism(CPL1_SIG, CPL2_SIG, {"neg": "negp", "imp": "orp"})
    good = parse("imp(x0, neg(x1))", CPL1_SIG)
    assert strict_extension(f, good) == parse("orp(x0, negp(x1))", CPL2_SIG)
    bad_formulas = [
        App("conj", (good, Var(0))),             # unknown head over a good subterm
        App("neg", (good, good)),                # wrong arity over good subterms
        App("imp", (good,)),
        App("imp", (good, App("neg", (good, Var(1))))),  # bad node below the root
    ]
    for bad in bad_formulas:
        with pytest.raises(StructuralError) as expected:
            _strict_reference(f, bad)
        with pytest.raises(StructuralError) as got:
            strict_extension(f, bad)
        assert str(got.value) == str(expected.value)
    # the failures left the memo consistent
    assert strict_extension(f, good) == parse("orp(x0, negp(x1))", CPL2_SIG)


def test_strict_morphism_equality_ignores_memo():
    warm = StrictMorphism(CPL1_SIG, CPL2_SIG, {"neg": "negp", "imp": "orp"})
    cold = StrictMorphism(CPL1_SIG, CPL2_SIG, {"neg": "negp", "imp": "orp"})
    for phi in enumerate_formulas(CPL1_SIG, 2, 2):
        strict_extension(warm, phi)
    assert warm == cold and hash(warm) == hash(cold)
    assert len({warm, cold}) == 1


# --- coproducts -------------------------------------------------------------


def test_coproduct_example():
    neg = Signature("A", {"neg": 1})
    disj = Signature("B", {"or_": 2})
    result, (i1, i2) = signature_coproduct([neg, disj])
    assert result.connectives == {"neg_0": 1, "or__1": 2}
    assert i1("neg") == "neg_0" and i2("or_") == "or__1"


def test_coproduct_with_empty_is_neutral():
    empty = Signature("E", {})
    result, (i1, i2) = signature_coproduct([empty, CPL1_SIG])
    assert set(result.connectives.values()) == {1, 2}
    assert len(result.connectives) == 2


def test_coproduct_mediator_is_case_split():
    a = Signature("A", {"n": 1})
    b = Signature("B", {"m": 1, "j": 2})
    c = Signature("C", {"negp": 1, "orp": 2})
    result, injections = signature_coproduct([a, b])
    f = StrictMorphism(a, c, {"n": "negp"})
    g = StrictMorphism(b, c, {"m": "negp", "j": "orp"})
    med = coproduct_mediator(injections, [f, g])
    for conn in a.connectives:
        assert med(injections[0](conn)) == f(conn)
    for conn in b.connectives:
        assert med(injections[1](conn)) == g(conn)


def test_coproduct_universal_property_exhaustive():
    # over all cocones into a small target, the mediator is the unique
    # morphism commuting with both injections
    a = Signature("A", {"n": 1})
    b = Signature("B", {"m": 1})
    c = Signature("C", {"p": 1, "q": 1})
    result, injections = signature_coproduct([a, b])
    from catlog.kleisli import all_strict_morphisms
    for f in all_strict_morphisms(a, c):
        for g in all_strict_morphisms(b, c):
            med = coproduct_mediator(injections, [f, g])
            assert compose_strict(med, injections[0]) == f
            assert compose_strict(med, injections[1]) == g
            others = [m for m in all_strict_morphisms(result, c)
                      if compose_strict(m, injections[0]) == f
                      and compose_strict(m, injections[1]) == g]
            assert others == [med]


# --- products ---------------------------------------------------------------


def test_product_example():
    left = Signature("L", {"neg": 1, "imp": 2})
    right = Signature("R", {"sim": 1})
    result, projections = signature_product([left, right])
    assert result.connectives == {"neg__sim": 1}


def test_product_rejects_colliding_names():
    # (a__b, c) and (a, b__c) would both be named a__b__c
    left = Signature("L", {"a__b": 0, "a": 0})
    right = Signature("R", {"c": 0, "b__c": 0})
    with pytest.raises(ValueError) as err:
        signature_product([left, right])
    assert "('a__b', 'c')" in str(err.value) and "('a', 'b__c')" in str(err.value)


def test_empty_product_is_unsupported():
    with pytest.raises(UnsupportedConstruction):
        signature_product([])


def test_product_pairing_recovers_components():
    shared = Signature("S", {"n": 1})
    left = Signature("L", {"p": 1, "q": 1})
    right = Signature("R", {"r": 1})
    product, projections = signature_product([left, right])
    from catlog.kleisli import all_strict_morphisms
    for f in all_strict_morphisms(shared, left):
        for g in all_strict_morphisms(shared, right):
            pairing = product_pairing(projections, [f, g])
            assert compose_strict(projections[0], pairing) == f
            assert compose_strict(projections[1], pairing) == g


def test_generated_legs_are_named_after_the_signature_they_build():
    # two constructions' legs must not share names, or a spec holding both
    # would declare one morphism twice
    left = Signature("L", {"neg": 1})
    right = Signature("R", {"sim": 1})
    shared = Signature("S", {"n": 1})
    _, injections = signature_coproduct([left, right])
    _, projections = signature_product([left, right])
    _, po_left, po_right = signature_pushout(StrictMorphism(shared, left, {"n": "neg"}),
                                             StrictMorphism(shared, right, {"n": "sim"}))
    _, cocone = directed_colimit_signatures([StrictMorphism(shared, left, {"n": "neg"})])
    # a second chain into L: its vertex is named after its own stages
    other, _ = directed_colimit_signatures([StrictMorphism(right, left, {"sim": "neg"})])
    assert [m.name for m in injections] == ["L+R_in0", "L+R_in1"]
    assert [m.name for m in projections] == ["LxR_proj0", "LxR_proj1"]
    assert [po_left.name, po_right.name] == ["L+[S]+R_po_left", "L+[S]+R_po_right"]
    assert [m.name for m in cocone] == ["colim(S,L)_stage0", "colim(S,L)_stage1"]
    assert other.name == "colim(R,L)"


# --- pushouts ---------------------------------------------------------------


def test_pushout_glues_shared_connective():
    shared = Signature("S", {"n": 1})
    left = Signature("L", {"neg": 1, "imp": 2})
    right = Signature("R", {"neg": 1, "disj": 2})
    f = StrictMorphism(shared, left, {"n": "neg"})
    g = StrictMorphism(shared, right, {"n": "neg"})
    result, lmap, rmap = signature_pushout(f, g)
    assert lmap("neg") == rmap("neg")
    assert len([a for a in result.connectives.values() if a == 1]) == 1
    assert len([a for a in result.connectives.values() if a == 2]) == 2


def test_pushout_of_empty_span_is_coproduct():
    empty = Signature("E", {})
    left = Signature("L", {"n": 1})
    right = Signature("R", {"m": 1})
    f = StrictMorphism(empty, left, {})
    g = StrictMorphism(empty, right, {})
    result, lmap, rmap = signature_pushout(f, g)
    assert len(result.connectives) == 2
    assert lmap("n") != rmap("m")


def test_pushout_transitive_collapse():
    # two identifications chain through a middle connective
    shared = Signature("S", {"a": 1, "b": 1})
    left = Signature("L", {"p": 1, "q": 1})
    right = Signature("R", {"r": 1})
    f = StrictMorphism(shared, left, {"a": "p", "b": "q"})
    g = StrictMorphism(shared, right, {"a": "r", "b": "r"})
    result, lmap, rmap = signature_pushout(f, g)
    # r ~ p and r ~ q, so all three collapse; verify against a naive closure
    assert lmap("p") == lmap("q") == rmap("r")
    assert len(result.connectives) == 1
    naive = _naive_pushout_classes(f, g)
    assert len(naive) == len(result.connectives)


def _naive_pushout_classes(f, g):
    items = [(c, 0) for c in f.target.connectives] + \
            [(c, 1) for c in g.target.connectives]
    relations = [((f(c), 0), (g(c), 1)) for c in f.source.connectives]
    classes = {item: {item} for item in items}
    changed = True
    while changed:
        changed = False
        for x, y in relations:
            if classes[x] is not classes[y]:
                merged = classes[x] | classes[y]
                for member in merged:
                    classes[member] = merged
                changed = True
    return {frozenset(c) for c in classes.values()}


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=10))
def test_partition_names_each_class_by_its_least_member(pairs):
    # under a key that reverses the order, the least member is the largest
    # integer; the names must not depend on the order of the unions
    forward, backward = Partition(range(8), key=lambda x: -x), Partition(range(8))
    for a, b in pairs:
        forward.union(a, b)
    for a, b in reversed(pairs):
        backward.union(b, a)
    for x in range(8):
        same = {y for y in range(8) if backward.find(y) == backward.find(x)}
        assert forward.find(x) == max(same) and backward.find(x) == min(same)
    assert not forward.union(0, 0)


def test_pushout_requires_shared_source():
    a = Signature("A", {"n": 1})
    b = Signature("B", {"m": 1})
    f = StrictMorphism(a, a, {"n": "n"})
    g = StrictMorphism(b, b, {"m": "m"})
    with pytest.raises(ValueError):
        signature_pushout(f, g)


def test_signature_json_is_sorted():
    sig = Signature("S", {"b": 2, "a": 1})
    assert [c["id"] for c in sig.to_json()["connectives"]] == ["a", "b"]


@pytest.mark.parametrize("morphism", [
    StrictMorphism(CPL1_SIG, CPL2_SIG, {"neg": "negp", "imp": "orp"}),
    FlexibleMorphism(CPL1_SIG, CPL2_SIG, {"neg": parse("orp(x0, negp(x0))", CPL2_SIG),
                                          "imp": parse("orp(negp(x0), x1)", CPL2_SIG)}),
], ids=["strict", "flexible"])
def test_extension_memo_keeps_applications_only(morphism):
    phi = parse("imp(neg(x0), imp(x1, neg(x0)))", CPL1_SIG)
    image = morphism.extension(phi)
    assert morphism.extension(phi) is image
    assert morphism.extension(phi.args[0]) is morphism._memo[phi.args[0]]
    assert morphism.extension(Var(2)) is Var(2)
    assert not any(type(key) is Var for key in morphism._memo)
