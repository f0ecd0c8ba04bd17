import gc
import weakref

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from catlog.formulas import (
    _APPS, _VARS, _VARSETS, App, InputError, ParseError, StructuralError,
    Substitution, Var, _Building, app, check_formula, complexity,
    compose_substitutions, enumerate_formulas, enumerate_slice, extend, fmt,
    match, parse, slice_formula, slice_size, sort_key, substitute, var,
    variables,
)
from catlog.signatures import Signature

from strategies import CPL1_SIG, MIXED_SIG, formulas, subformulas, substitutions


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


# Shapes for the counting kernel: every single head of arity 0-3, every pair
# of heads of arity 0-2, a ternary head beside a unary one, and names that
# sort differently from their insertion order.
KERNEL_SHAPES = (
    [{"g": a} for a in range(4)]
    + [{"g0": a, "g1": b} for a in range(3) for b in range(a, 3)]
    + [{"u": 1, "t": 3}, {"zz": 2, "a": 1, "m": 0}, {"e": 0, "u": 1, "b": 2}]
)


@pytest.mark.parametrize("conn", KERNEL_SHAPES, ids=lambda c: ",".join(
    f"{name}/{arity}" for name, arity in c.items()))
def test_counting_kernel_matches_enumeration_at_every_index(conn):
    sig = Signature("S", conn)
    for n in range(4):
        for bound in range(4):
            reference = enumerate_slice(sig, n, bound)
            assert slice_size(sig, n, bound) == len(reference), (n, bound)
            for index, phi in enumerate(reference):
                assert slice_formula(sig, n, bound, index) is phi, (n, bound, index)


def test_counting_kernel_rejects_an_index_outside_the_slice():
    sig = Signature("S", {"zz": 2, "a": 1, "m": 0})
    size = slice_size(sig, 2, 2)
    assert size == len(enumerate_slice(sig, 2, 2)) > 0
    for index in (-1, size):
        with pytest.raises(InputError):
            slice_formula(sig, 2, 2, index)
    assert slice_size(Signature("U", {"u": 1}), 2, 3) == 0


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


# --- the constructor, arity by arity -------------------------------------------

# MIXED_SIG stops at arity 2; the constructor has its own path for wider nodes
TERNARY_SIG = Signature("Tern", {"e": 0, "u": 1, "b": 2, "t": 3})


def _vars_from_scratch(phi):
    if isinstance(phi, Var):
        return frozenset((phi.index,))
    return frozenset().union(*map(_vars_from_scratch, phi.args))


def _compl_from_scratch(phi):
    if isinstance(phi, Var):
        return 0
    return 1 + sum(map(_compl_from_scratch, phi.args))


def _assert_built_right(phi):
    """Every node of phi is a finished node whose slots match a recomputation."""
    for node in subformulas(phi):
        assert type(node) in (Var, App)
        assert complexity(node) == _compl_from_scratch(node)
        assert variables(node) == _vars_from_scratch(node)
        assert variables(node) is _VARSETS[variables(node)]
        if isinstance(node, App):
            assert hash(node) == hash((node.connective, node.args))
        assert str(node) == _str_from_scratch(node)
        assert sort_key(node) == _sort_key_from_scratch(node)


@given(formulas(TERNARY_SIG, max_vars=4))
def test_constructed_nodes_match_recomputation(phi):
    _assert_built_right(phi)


def test_every_arity_builds_a_finished_immutable_node():
    # variables x80.. are used nowhere else and no node below is built twice,
    # so every node that holds a variable is a table miss
    x = [Var(i) for i in range(80, 95)]
    e = App("e", ())
    nodes = [
        e, App("u", (x[0],)),
        App("b", (App("b", (x[1], x[2])), x[2])),  # right set inside left
        App("b", (x[3], App("b", (x[4], x[3])))),  # left set inside right
        App("b", (App("u", (x[5],)), App("b", (x[5], x[5])))),  # equal sets
        App("b", (x[6], x[7])),                    # disjoint sets
        App("b", (App("b", (x[8], x[9])), App("b", (x[9], x[10])))),  # overlapping
        App("t", (x[11], App("u", (x[12],)), e)),
        App("t", (x[13], x[13], App("t", (e, x[14], e)))),
    ]
    for phi in nodes:
        _assert_built_right(phi)
        for attr in ("connective", "args", "_hash", "_vars", "_str", "other"):
            with pytest.raises(AttributeError):
                setattr(phi, attr, None)
    assert variables(nodes[1]) is variables(x[0])
    assert variables(nodes[2]) is variables(nodes[2].args[0])
    assert variables(nodes[3]) is variables(nodes[3].args[1])
    assert variables(nodes[4]) is variables(x[5])


def test_unreferenced_ternary_formula_is_freed():
    key = (Var(70), App("u", (Var(71),)), App("e", ()))
    phi = App("t", key)
    ref = weakref.ref(phi)
    assert _APPS["t"][key]() is phi
    del phi
    gc.collect()
    assert ref() is None
    assert key not in _APPS["t"]
    assert App("t", key).args is key


def test_intern_tables_hold_only_finished_nodes():
    sig = TERNARY_SIG
    phi = parse("t(b(x0, x1), u(x2), t(e, x0, u(u(x1))))", sig)
    sigma = Substitution({0: parse("t(x3, x3, e)", sig), 2: parse("b(x4, x0)", sig)})
    heads = {"e": parse("u(e)", sig), "u": parse("b(x0, x0)", sig),
             "b": parse("t(x1, e, x0)", sig), "t": parse("b(x2, b(x0, x1))", sig)}
    # held while the tables are read, so that they hold these nodes too
    built = [phi, substitute(sigma, phi), extend(heads, phi, {}),
             extend(heads, substitute(sigma, phi), {}),
             *enumerate_formulas(sig, 2, 2), *enumerate_slice(sig, 3, 3)]
    # a build that fails half way publishes nothing
    bad = (Var(0), "not a formula", Var(1))
    with pytest.raises(AttributeError):
        App("t", bad)
    assert bad not in _APPS["t"]
    gc.collect()
    assert all(type(v) is Var for v in _VARS.values())
    live = [entry() for table in _APPS.values() for entry in table.values()]
    assert not any(isinstance(node, _Building) for node in live)
    assert all(variables(node) is _VARSETS[variables(node)]
               for node in live if node is not None)
    assert {phi for phi in built if isinstance(phi, App)} <= set(live)


def test_enumerate_slice_returns_a_list_the_caller_owns():
    sig = TERNARY_SIG
    first = enumerate_slice(sig, 2, 2)
    expected = list(first)
    first.clear()
    second = enumerate_slice(sig, 2, 2)
    assert second == expected and second is not first
    assert second == [phi for phi in enumerate_formulas(sig, 2, 2)
                      if variables(phi) == frozenset((0, 1))]


def test_match_hands_back_its_binding():
    binding = {}
    sigma = match(parse("u(x0)", TERNARY_SIG), parse("u(e)", TERNARY_SIG), binding)
    assert sigma.mapping is binding
    assert binding == {0: App("e", ())}


# ---------------------------------------------------------------------------
# The translation kernel against from-scratch references

# each connective's templates: the slice of its arity over TERNARY_SIG, so
# that a unary head may be sent to the bare variable x0
_TEMPLATES = {k: enumerate_slice(TERNARY_SIG, k, 2) for k in range(4)}


def _heads():
    return st.fixed_dictionaries({c: st.sampled_from(_TEMPLATES[k])
                                  for c, k in TERNARY_SIG.connectives.items()})


def _substitute_reference(sigma, phi):
    if isinstance(phi, Var):
        return sigma(phi.index)
    return App(phi.connective, tuple(_substitute_reference(sigma, a) for a in phi.args))


def _extend_reference(heads, phi):
    """extend from scratch: recursive, with no memo, through substitute."""
    if isinstance(phi, Var):
        return phi
    args = [_extend_reference(heads, a) for a in phi.args]
    return substitute(Substitution(dict(enumerate(args))), heads[phi.connective])


def _head_message(heads, phi):
    """The message for the first node of phi, in pre-order, that heads
    does not fit, or None."""
    if isinstance(phi, Var):
        return None
    c, k = phi.connective, len(phi.args)
    if c not in heads:
        return f"unknown connective {c!r} in {phi}"
    arity = len(variables(heads[c]))
    if arity != k:
        return f"connective {c!r} has arity {arity}, applied to {k} in {phi}"
    for a in phi.args:
        message = _head_message(heads, a)
        if message is not None:
            return message
    return None


# nodes of arity 0 to 3, with variable and compound arguments at each arity
_EVERY_ARITY = ["e", "u(x0)", "u(b(x1, e))", "b(x0, x1)", "b(u(x0), x1)",
                "t(x0, x1, x2)", "t(b(x0, e), u(x1), t(x2, x0, e))"]


@settings(max_examples=300)
@given(formulas(TERNARY_SIG, max_vars=4), _heads())
def test_extend_matches_a_reference_without_memo(phi, heads):
    memo = {}
    image = extend(heads, phi, memo)
    assert image is _extend_reference(heads, phi)
    assert extend(heads, phi, memo) is image
    assert all(type(node) is App for node in memo)
    for node, node_image in memo.items():
        assert node_image is _extend_reference(heads, node)


@pytest.mark.parametrize("text", _EVERY_ARITY)
def test_extend_passes_bare_variable_templates_through(text):
    phi = parse(text, TERNARY_SIG)
    heads = {"e": parse("u(e)", TERNARY_SIG), "u": Var(0),
             "b": parse("b(x1, x0)", TERNARY_SIG), "t": parse("t(x2, u(x0), x1)", TERNARY_SIG)}
    memo = {}
    assert extend(heads, phi, memo) is _extend_reference(heads, phi)
    assert extend(heads, parse("u(u(x3))", TERNARY_SIG), memo) is Var(3)
    assert extend(heads, parse("u(e)", TERNARY_SIG), memo) is heads["e"]


@settings(max_examples=300)
@given(formulas(TERNARY_SIG, max_vars=4), _heads(),
       st.sampled_from(sorted(TERNARY_SIG.connectives)), st.booleans())
def test_extend_raises_the_reference_message_on_a_cold_and_a_warm_memo(phi, heads, bad, drop):
    if drop:
        del heads[bad]
    else:
        heads[bad] = _TEMPLATES[(TERNARY_SIG.connectives[bad] + 1) % 4][0]
    message = _head_message(heads, phi)
    if message is None:
        assert extend(heads, phi, {}) is _extend_reference(heads, phi)
        return
    with pytest.raises(StructuralError) as cold:
        extend(heads, phi, {})
    assert str(cold.value) == message
    # warm: every subformula that heads fits is translated first
    memo = {}
    for node in subformulas(phi):
        if _head_message(heads, node) is None:
            extend(heads, node, memo)
    with pytest.raises(StructuralError) as warm:
        extend(heads, phi, memo)
    assert str(warm.value) == message


@settings(max_examples=300)
@given(formulas(TERNARY_SIG, max_vars=4), substitutions(TERNARY_SIG, max_vars=4))
def test_substitute_matches_a_reference(phi, sigma):
    mixed = (lambda i: sigma(i) if i % 2 else Var(i + 5))
    table = tuple(sigma(i) for i in range(4))
    for images in (sigma, mixed, table.__getitem__):
        assert substitute(images, phi) is _substitute_reference(images, phi)


@pytest.mark.parametrize("text", _EVERY_ARITY)
def test_substitute_handles_every_arity(text):
    phi = parse(text, TERNARY_SIG)
    sigma = Substitution({0: parse("t(x3, x3, e)", TERNARY_SIG), 2: Var(0)})
    for images in (sigma, lambda i: Var(i + 1), (Var(2), App("e", ()), Var(0)).__getitem__):
        assert substitute(images, phi) is _substitute_reference(images, phi)
