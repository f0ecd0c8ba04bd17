import gc
import weakref

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from catlog.formulas import (
    App, ParseError, StructuralError, Substitution, Var, app, check_formula,
    complexity, compose_substitutions, enumerate_formulas, enumerate_slice,
    fmt, parse, sort_key, substitute, var, variables,
)
from catlog.signatures import Signature

from strategies import CPL1_SIG, MIXED_SIG, formulas, substitutions


def test_parse_basic():
    sig = Signature("S", {"imp": 2})
    phi = parse("imp(x0, imp(x1, x0))", sig)
    assert phi == App("imp", (Var(0), App("imp", (Var(1), Var(0)))))


def test_parse_variable():
    assert parse("x7") == Var(7)


def test_parse_arity_mismatch():
    sig = Signature("S", {"neg": 1})
    with pytest.raises(ParseError):
        parse("neg(x0, x1)", sig)


def test_parse_unknown_connective():
    sig = Signature("S", {"neg": 1})
    with pytest.raises(ParseError):
        parse("conj(x0, x1)", sig)


def test_parse_zero_ary_bare():
    sig = Signature("S", {"tt": 0, "imp": 2})
    assert parse("imp(tt, x0)", sig) == App("imp", (App("tt", ()), Var(0)))


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("imp(x0,")
    assert "position" in str(err.value)


@given(formulas(CPL1_SIG))
def test_print_parse_round_trip(phi):
    assert parse(fmt(phi), CPL1_SIG) == phi


@given(formulas(MIXED_SIG))
def test_print_parse_round_trip_with_constants(phi):
    assert parse(fmt(phi), MIXED_SIG) == phi


def test_complexity_examples():
    sig = CPL1_SIG
    assert complexity(Var(3)) == 0
    assert complexity(parse("neg(imp(x0, x1))", sig)) == 2


def test_variables_examples():
    assert variables(parse("imp(x0, x0)", CPL1_SIG)) == frozenset((0,))
    assert variables(App("e", ())) == frozenset()


@given(formulas(CPL1_SIG), substitutions(CPL1_SIG))
def test_variables_of_substituted(phi, sigma):
    expected = set()
    for i in variables(phi):
        expected |= variables(sigma(i))
    assert variables(substitute(sigma, phi)) == frozenset(expected)


def test_substitute_example():
    sig = CPL1_SIG
    sigma = Substitution({0: parse("neg(x1)", sig)})
    assert substitute(sigma, parse("imp(x0, x0)", sig)) == \
        parse("imp(neg(x1), neg(x1))", sig)


@given(formulas(CPL1_SIG))
def test_identity_substitution(phi):
    assert substitute(Substitution(), phi) == phi


@given(formulas(CPL1_SIG), substitutions(CPL1_SIG), substitutions(CPL1_SIG))
def test_composition_substitution(phi, s1, s2):
    composed = compose_substitutions(s2, s1)
    assert substitute(composed, phi) == substitute(s2, substitute(s1, phi))


@given(substitutions(CPL1_SIG), substitutions(CPL1_SIG), substitutions(CPL1_SIG))
def test_substitution_composition_associative(s1, s2, s3):
    left = compose_substitutions(compose_substitutions(s3, s2), s1)
    right = compose_substitutions(s3, compose_substitutions(s2, s1))
    for i in range(4):
        assert left(i) == right(i)


def test_check_formula_rejects_bad_arity():
    sig = Signature("S", {"neg": 1})
    with pytest.raises(StructuralError):
        check_formula(sig, App("neg", (Var(0), Var(1))))


# --- bounded enumeration against a brute-force oracle ---------------------


def brute_force_slice(sig, n, max_compl):
    """Grow all formulas by repeatedly applying connectives, then filter."""
    pool = {Var(i) for i in range(n)}
    changed = True
    while changed:
        changed = False
        for c, arity in sig.connectives.items():
            for args in _tuples(sorted(pool, key=sort_key), arity):
                phi = App(c, args)
                if complexity(phi) <= max_compl and phi not in pool:
                    pool.add(phi)
                    changed = True
    exact = [phi for phi in pool
             if variables(phi) == frozenset(range(n)) and complexity(phi) <= max_compl]
    return sorted(exact, key=sort_key)


def _tuples(pool, arity):
    if arity == 0:
        return [()]
    out = [()]
    for _ in range(arity):
        out = [prefix + (phi,) for prefix in out for phi in pool]
    return out


@pytest.mark.parametrize("conn,n,bound", [
    ({"neg": 1}, 1, 2),
    ({"neg": 1}, 1, 4),
    ({"neg": 1}, 2, 3),
    ({"imp": 2}, 2, 3),
    ({"neg": 1, "imp": 2}, 1, 3),
    ({"e": 0, "u": 1, "b": 2}, 0, 3),
    ({"e": 0, "u": 1, "b": 2}, 2, 3),
])
def test_enumerate_slice_matches_brute_force(conn, n, bound):
    sig = Signature("S", conn)
    assert enumerate_slice(sig, n, bound) == brute_force_slice(sig, n, bound)


def test_enumerate_slice_examples():
    neg = Signature("N", {"neg": 1})
    assert enumerate_slice(neg, 1, 2) == [
        Var(0), parse("neg(x0)", neg), parse("neg(neg(x0))", neg)]
    assert enumerate_slice(neg, 1, 0) == [Var(0)]
    # a unary signature can never merge two variables
    for bound in range(5):
        assert enumerate_slice(neg, 2, bound) == []


def test_enumeration_is_sorted_and_duplicate_free():
    sig = MIXED_SIG
    out = enumerate_formulas(sig, 2, 3)
    assert out == sorted(out, key=sort_key)
    assert len(out) == len(set(out))


# --- hash-consed kernel ------------------------------------------------------


def _rebuild(phi):
    """A structurally equal copy built bottom-up through `var` and `app`."""
    if isinstance(phi, Var):
        return var(phi.index)
    return app(phi.connective, *map(_rebuild, phi.args))


def _str_from_scratch(phi):
    if isinstance(phi, Var):
        return f"x{phi.index}"
    if not phi.args:
        return phi.connective
    return f"{phi.connective}({', '.join(map(_str_from_scratch, phi.args))})"


def _sort_key_from_scratch(phi):
    if isinstance(phi, Var):
        return (0, 0, phi.index, ())
    return (complexity(phi), 1, phi.connective,
            tuple(_sort_key_from_scratch(a) for a in phi.args))


@given(formulas(MIXED_SIG))
def test_equal_formulas_are_identical(phi):
    assert parse(fmt(phi), MIXED_SIG) is phi
    assert _rebuild(phi) is phi
    assert substitute(Substitution(), phi) is phi
    assert substitute(Substitution({0: Var(0), 1: Var(1)}), phi) is phi


def test_equal_variables_are_identical():
    assert Var(4) is Var(4) is var(4) is parse("x4")
    assert Var(4) is not Var(5)
    sigma = Substitution({0: parse("neg(x1)", CPL1_SIG)})
    assert substitute(sigma, parse("imp(x0, x2)", CPL1_SIG)) is \
        app("imp", app("neg", Var(1)), Var(2))


@given(formulas(MIXED_SIG))
def test_hash_values_are_pinned(phi):
    if isinstance(phi, Var):
        assert hash(phi) == hash((1, phi.index))
    else:
        assert hash(phi) == hash((phi.connective, phi.args))
    assert hash(App("b", (Var(0), Var(1)))) == hash(("b", (Var(0), Var(1))))
    assert hash(Var(3)) == hash((1, 3))


@given(formulas(MIXED_SIG))
def test_cached_str_and_sort_key_match_recomputation(phi):
    assert str(phi) == _str_from_scratch(phi)
    assert sort_key(phi) == _sort_key_from_scratch(phi)
    # a second call answers from the cache with the same value
    assert str(phi) == _str_from_scratch(phi)
    assert sort_key(phi) == _sort_key_from_scratch(phi)


def test_formulas_reject_attribute_assignment():
    phi = parse("imp(x0, neg(x1))", CPL1_SIG)
    for node, attr in ((phi, "connective"), (phi, "_str"), (phi, "other"),
                       (Var(0), "index"), (Var(0), "_key")):
        with pytest.raises(AttributeError):
            setattr(node, attr, None)
    assert str(phi) == "imp(x0, neg(x1))" and Var(0).index == 0


def test_unreferenced_formulas_are_freed():
    phi = parse("imp(neg(x40), imp(x41, neg(neg(x40))))", CPL1_SIG)
    ref = weakref.ref(phi)
    text = fmt(phi)
    del phi
    gc.collect()
    assert ref() is None
    again = parse(text, CPL1_SIG)
    assert fmt(again) == text and again is parse(text, CPL1_SIG)


def test_variable_sets_are_shared():
    x0, x1 = Var(0), Var(1)
    neg = App("neg", (x0,))
    assert variables(neg) is variables(x0)
    assert variables(App("e", ())) is variables(App("f", ()))
    assert variables(App("imp", (x0, x1))) is variables(App("imp", (x1, neg)))
