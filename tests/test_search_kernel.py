"""The proof-search kernel (`match`, `unify`, `_ground`) against reference
copies of its earlier closure-based versions; the check that ends a search
with no tree within its length bound, against the search it ends; pinned
searched proofs, and pinned proofs that `derives` decides before search.

The references are kept here on purpose: the kernel may get faster, but the
bindings it returns, including the order of their keys, decide which
instantiations the search tries and so which proofs it finds.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from catlog import consequence, corpus
from catlog.consequence import (
    _FREE_OFFSET, _RENAME_OFFSET, Budget, Calculus, Verdict, _ground, _Searcher,
    _SearchBudget, _Skeletons, derives, interderivable, search_proof, unify,
)
from catlog.formulas import (
    App, Substitution, Var, enumerate_formulas, match, parse, sort_key, substitute,
    variables,
)
from catlog.logic_cat import fibring_unconstrained

OBJECT = [0, 1, 2]
RENAMED = [_RENAME_OFFSET, _RENAME_OFFSET + 1]
FREE = [_FREE_OFFSET, _FREE_OFFSET + 1]


# --- reference copies of the closure-based kernel ----------------------------


def reference_match(pattern, concrete, binding=None, bindable=None):
    binding = {} if binding is None else binding

    def walk(p, c):
        if isinstance(p, Var):
            if bindable is not None and not bindable(p.index):
                return p == c
            seen = binding.get(p.index)
            if seen is None:
                binding[p.index] = c
                return True
            return seen == c
        if not isinstance(c, App) or c.connective != p.connective:
            return False
        if len(c.args) != len(p.args):
            return False
        return all(walk(pa, ca) for pa, ca in zip(p.args, c.args))

    if walk(pattern, concrete):
        return Substitution(binding)
    return None


def reference_unify(a, b, binding):

    def resolve(phi):
        while isinstance(phi, Var) and phi.index in binding:
            phi = binding[phi.index]
        return phi

    def occurs(idx, phi):
        phi = resolve(phi)
        if isinstance(phi, Var):
            return phi.index == idx
        vs = variables(phi)
        if idx not in vs and not (vs & binding.keys()):
            return False
        return any(occurs(idx, arg) for arg in phi.args)

    stack = [(a, b)]
    while stack:
        left, right = stack.pop()
        left, right = resolve(left), resolve(right)
        if left == right:
            continue
        if isinstance(left, Var) and isinstance(right, Var):
            if left.index >= _RENAME_OFFSET:
                binding[left.index] = right
            else:
                binding[right.index] = left
            continue
        if isinstance(left, Var):
            if occurs(left.index, right):
                return None
            binding[left.index] = right
            continue
        if isinstance(right, Var):
            if occurs(right.index, left):
                return None
            binding[right.index] = left
            continue
        if left.connective != right.connective or len(left.args) != len(right.args):
            return None
        stack.extend(zip(left.args, right.args))
    return binding


def reference_ground(phi, binding):
    """The full rebuild: every node is built again."""
    if isinstance(phi, Var):
        if phi.index in binding:
            return reference_ground(binding[phi.index], binding)
        if phi.index >= _RENAME_OFFSET:
            return None
        return phi
    args = []
    for a in phi.args:
        g = reference_ground(a, binding)
        if g is None:
            return None
        args.append(g)
    return App(phi.connective, tuple(args))


# --- strategies --------------------------------------------------------------


def terms(indices, max_leaves=8):
    """Formulas over the given variables and a constant, where `f` comes
    with arity 1 and 2, so equal heads may differ in arity."""
    leaves = st.sampled_from([Var(i) for i in indices] + [App("c", ())])

    def extend(children):
        pairs = st.tuples(children, children)
        return st.one_of(children.map(lambda a: App("f", (a,))),
                         pairs.map(lambda ab: App("f", ab)),
                         pairs.map(lambda ab: App("g", ab)))

    return st.recursive(leaves, extend, max_leaves=max_leaves)


@st.composite
def acyclic_bindings(draw, keys, values=OBJECT + RENAMED + FREE):
    """A binding whose chains end: a key's value only holds variables of
    smaller index."""
    binding = {}
    for k in draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys))):
        binding[k] = draw(terms([i for i in values if i < k], 4))
    return binding


bindables = st.one_of(
    st.none(),
    st.frozensets(st.sampled_from(OBJECT)).map(lambda s: s.__contains__),
    st.just(_FREE_OFFSET.__le__),
)


@st.composite
def match_cases(draw):
    """A pattern and a concrete formula; half the time an instance of the
    pattern, so that matches succeed often."""
    pattern = draw(terms(OBJECT + FREE))
    if draw(st.booleans()):
        images = draw(st.dictionaries(st.sampled_from(OBJECT + FREE), terms(OBJECT, 4)))
        return pattern, substitute(Substitution(images), pattern)
    return pattern, draw(terms(OBJECT + FREE))


@st.composite
def unify_cases(draw):
    """Two formulas, often instances of one template: one side with free
    variables, the other with renamed ones, or both over any variables so
    that the occurs check fires."""
    if draw(st.booleans()):
        template = draw(terms(OBJECT))
        left = draw(st.dictionaries(st.sampled_from(OBJECT), terms(OBJECT + FREE, 4)))
        right = draw(st.dictionaries(st.sampled_from(OBJECT), terms(OBJECT + RENAMED, 4)))
        return (substitute(Substitution(left), template),
                substitute(Substitution(right), template))
    everything = terms(OBJECT + RENAMED + FREE)
    return draw(everything), draw(everything)


# --- match -------------------------------------------------------------------


@given(match_cases(), acyclic_bindings(OBJECT + FREE), bindables)
def test_match_agrees_with_reference(case, seed, bindable):
    pattern, concrete = case
    got_binding, want_binding = dict(seed), dict(seed)
    got = match(pattern, concrete, got_binding, bindable)
    want = reference_match(pattern, concrete, want_binding, bindable)
    assert (got is None) == (want is None)
    # same keys in the same order, also what a failed match leaves behind
    assert list(got_binding.items()) == list(want_binding.items())
    if got is not None:
        assert list(got.mapping.items()) == list(want.mapping.items())
        if bindable is None:
            assert substitute(got, pattern) is concrete


def test_match_binds_in_order_of_first_occurrence():
    pattern = parse("g(f(x2, x0), g(x1, x0))")
    concrete = parse("g(f(c, x1), g(f(x0), x1))")
    assert list(match(pattern, concrete).mapping.items()) == [
        (2, App("c", ())), (0, Var(1)), (1, App("f", (Var(0),)))]


def test_match_rejects_repeated_variables_with_different_images():
    assert match(parse("g(x0, x0)"), parse("g(x1, x2)")) is None
    assert match(parse("g(x0, x0)"), parse("g(x1, x1)")).mapping == {0: Var(1)}


def test_match_rejects_an_arity_mismatch_under_one_head():
    assert match(App("f", (Var(0),)), App("f", (Var(0), Var(1)))) is None
    assert match(App("f", (Var(0), Var(1))), App("f", (Var(0),))) is None


def test_match_keeps_unbindable_variables_fixed():
    only_free = _FREE_OFFSET.__le__
    pattern = App("g", (Var(_FREE_OFFSET), Var(0)))
    assert match(pattern, parse("g(x1, x0)"), None, only_free).mapping == {
        _FREE_OFFSET: Var(1)}
    assert match(pattern, parse("g(x1, x1)"), None, only_free) is None


# --- unify and _ground -------------------------------------------------------


@given(unify_cases(), acyclic_bindings(OBJECT + RENAMED + FREE))
def test_unify_agrees_with_reference(case, seed):
    left, right = case
    got = unify(left, right, dict(seed))
    want = reference_unify(left, right, dict(seed))
    assert (got is None) == (want is None)
    if got is not None:
        assert list(got.items()) == list(want.items())


def test_unify_prefers_binding_template_variables():
    renamed = Var(_RENAME_OFFSET)
    assert unify(Var(0), renamed, {}) == {_RENAME_OFFSET: Var(0)}
    assert unify(renamed, Var(0), {}) == {_RENAME_OFFSET: Var(0)}
    # two object variables: the right one is bound
    assert unify(Var(0), Var(1), {}) == {1: Var(0)}


def test_unify_runs_the_occurs_check_through_the_binding():
    renamed = Var(_RENAME_OFFSET)
    assert unify(renamed, App("f", (renamed,)), {}) is None
    # x0 is already bound to renamed, so renamed occurs in f(x0)
    assert unify(renamed, App("f", (Var(0),)), {0: renamed}) is None
    assert unify(renamed, App("f", (Var(1),)), {0: renamed}) == {
        0: renamed, _RENAME_OFFSET: App("f", (Var(1),))}


@given(terms(OBJECT + RENAMED + FREE), acyclic_bindings(OBJECT + RENAMED + FREE))
def test_ground_agrees_with_a_full_rebuild(phi, binding):
    assert _ground(phi, binding) is reference_ground(phi, binding)


@given(unify_cases())
def test_ground_of_a_unifier_agrees_with_a_full_rebuild(case):
    binding = unify(*case, {})
    if binding is not None:
        for v in sorted(binding):
            assert _ground(Var(v), binding) is reference_ground(Var(v), binding)


# --- the size-bounded check before search ------------------------------------

ENV = corpus.standard_env()

CHECKED = {name: ENV.logic(name) for name in ("CPL1", "IMPFRAG", "NEGFRAG")}
CHECKED["IMPFRAG+NEGFRAG"] = fibring_unconstrained(CHECKED["IMPFRAG"], CHECKED["NEGFRAG"])[0]
# formulas of complexity <= 2 in x0, x1
CHECKED_POOLS = {name: enumerate_formulas(logic.signature, 2, 2)
                 for name, logic in CHECKED.items()}


def reference_search(calculus, hypotheses, goal, budget, node_cap):
    """`search_proof` without the check: `_Searcher` through the deepening
    schedule, with its node cap set to `node_cap`.  The proof tree's root,
    or None; `_SearchBudget` passes the cap on to the caller."""
    searcher = _Searcher(calculus, hypotheses, goal, budget)
    searcher.node_cap = node_cap
    schedule = [1, 2, 3, 5, 8, 13, 21, 34]
    limits = [s for s in schedule if s < budget.proof_length] + [budget.proof_length]
    for limit in limits:
        node, _ = searcher.prove(goal, limit, frozenset())
        if node is not None:
            return node
    return None


@st.composite
def checked_sequents(draw):
    name = draw(st.sampled_from(sorted(CHECKED)))
    pool = st.sampled_from(CHECKED_POOLS[name])
    return (name, frozenset(draw(st.lists(pool, max_size=2))), draw(pool),
            draw(st.integers(min_value=3, max_value=8)))


@settings(max_examples=100, deadline=None)
@given(checked_sequents())
def test_check_rules_out_only_sequents_that_search_cannot_prove(sequent):
    name, gamma, phi, length = sequent
    calculus = CHECKED[name].calculus
    if _Skeletons(calculus, gamma).reach(phi, length):
        return
    # run to its end, the search of a ruled-out sequent takes seconds at
    # length 7 or 8; iterative deepening finds a short proof early, so a
    # search that passes 5,000 nodes says nothing either way
    try:
        found = reference_search(calculus, gamma, phi, Budget(length, 2, 1, 2), 5_000)
    except _SearchBudget:
        return
    assert found is None


def forward_derivation(calculus, hypotheses, rng, steps):
    """(formula, size of its proof tree) pairs, drawn by `steps` random
    forward steps from the hypotheses: a rule applied to derived formulas
    that match its premises, or else an axiom instance whose images are
    derived formulas or variables."""
    derived = [(h, 1) for h in sorted(hypotheses, key=sort_key)]
    for _ in range(steps):
        rule = rng.choice(calculus.rules) if rng.random() < 0.7 else None
        fits = [] if rule is None else list(_fits(rule.premises, derived, {}, 1))
        if fits:
            binding, size = rng.choice(fits)
            derived.append((substitute(Substitution(binding), rule.conclusion), size))
        else:
            axiom = rng.choice(calculus.axioms)
            images = [f for f, _ in derived] + [Var(0), Var(1)]
            sigma = {v: rng.choice(images) for v in sorted(variables(axiom))}
            derived.append((substitute(Substitution(sigma), axiom), 1))
    return derived


def _fits(premises, derived, binding, size):
    """Each way to match `premises` with derived formulas that extends
    `binding`, with the size of the tree it makes."""
    if not premises:
        yield binding, size
        return
    for f, n in derived:
        found = match(premises[0], f, dict(binding))
        if found is not None:
            yield from _fits(premises[1:], derived, found.mapping, size + n)


@settings(max_examples=150, deadline=None)
@given(checked_sequents(), st.randoms(use_true_random=False),
       st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=2))
def test_check_never_rules_out_a_derived_goal(sequent, rng, steps, slack):
    name, gamma, _, _ = sequent
    calculus = CHECKED[name].calculus
    derived = forward_derivation(calculus, gamma, rng, steps)
    # the largest tree drawn: the one most likely to need rules
    goal, size = max(derived, key=lambda entry: entry[1])
    assert _Skeletons(calculus, gamma).reach(goal, size + slack)


def _no_search(*_):
    raise AssertionError("the check should have ended this search")


@pytest.mark.parametrize("hyps, goal", [
    (["x0"], "neg(neg(x0))"),
    ([], "imp(neg(neg(x0)), x0)"),
    (["neg(neg(x0))"], "x0"),
], ids=["dni_cpl1", "dne_thm_cpl1", "dne_cpl1"])
def test_check_ends_searches_with_no_tree_within_the_bound(monkeypatch, hyps, goal):
    monkeypatch.setattr(consequence, "_Searcher", _no_search)
    sig = CHECKED["CPL1"].signature
    assert search_proof(CHECKED["CPL1"].calculus, frozenset(parse(h, sig) for h in hyps),
                        parse(goal, sig), Budget.parse("5,6,4,2")) is None


def test_check_ends_a_search_in_an_empty_calculus(monkeypatch):
    monkeypatch.setattr(consequence, "_Searcher", _no_search)
    empty = Calculus(CHECKED["CPL1"].signature, [], [])
    assert search_proof(empty, frozenset([Var(0)]), Var(1)) is None
    assert _Skeletons(empty, frozenset([Var(0)])).reach(Var(0), 1)


# --- searched proofs, pinned -------------------------------------------------

# sha256 of each verdict's JSON (sorted keys); a change to the search order
# or to the shape of a proof changes them
PINNED = [
    pytest.param("CPL1", ["imp(x0, x0)"], None,
                 "de2606caae1aa35d039306987e5afcf2399956117fdfac64fd29eb131ec3a5b3",
                 id="id_cpl1"),
    pytest.param("IMP", ["x0", "imp(x0, x1)", "x1"], None,
                 "861beaad2a73c70c94d92454f816a4b4b25c055b6be7b383a11259da3ffac07c",
                 id="mp_imp"),
    pytest.param("CPL1", ["neg(neg(x0))", "x0"], "40,8,2,1",
                 "7cb236576d340439797ab1f193273aebbba6b19610f80fc34801230708c117ae",
                 id="dne_cpl1_wide"),
    pytest.param("IMPFRAG", ["imp(x0, x1)", "imp(x1, x2)", "imp(x0, x2)"], "7,4,2,3",
                 "045aa4f1ed97d49567053aab2af69087bba886e42de94b7dba2917134688f39a",
                 id="hyp_syllogism"),
]


def _searched(logic, hyps, goal, budget=Budget()) -> Verdict:
    """The verdict `derives` gives for a proof that search finds."""
    found = search_proof(logic.calculus, frozenset(hyps), goal, budget)
    assert found is not None
    return Verdict.yes(proof=found, used=found.used_hypotheses())


@pytest.mark.parametrize("logic, texts, budget, digest", PINNED)
def test_searched_proof_is_pinned(logic, texts, budget, digest):
    # the last text is the goal, the others are hypotheses
    logic = ENV.logic(logic)
    *hyps, goal = [parse(t, logic.signature) for t in texts]
    verdict = _searched(logic, hyps, goal, Budget.parse(budget) if budget else Budget())
    assert _digest(verdict) == digest


def test_searched_interderivability_is_pinned():
    logic = ENV.logic("IMPFRAG")
    phi, psi = parse("x0", logic.signature), parse("imp(imp(x0, x0), x0)", logic.signature)
    verdict = Verdict.yes(detail={"forward": _searched(logic, [phi], psi).to_json(),
                                  "backward": _searched(logic, [psi], phi).to_json()})
    assert _digest(verdict) == (
        "871801ea30d5bc9b79aef925291202116111795d95a798892adbd28b8b1b045d")


# `derives` answers these with G4ip's proofs, compiled to K, S and modus
# ponens, before search runs; they are the proofs search finds, step for step
DECIDED = [
    pytest.param("CPL1", ["imp(x0, x0)"], None, 5,
                 "de2606caae1aa35d039306987e5afcf2399956117fdfac64fd29eb131ec3a5b3",
                 id="id_cpl1"),
    pytest.param("IMP", ["x0", "imp(x0, x1)", "x1"], None, 3,
                 "861beaad2a73c70c94d92454f816a4b4b25c055b6be7b383a11259da3ffac07c",
                 id="mp_imp"),
    pytest.param("IMPFRAG", ["imp(x0, x1)", "imp(x1, x2)", "imp(x0, x2)"], "7,4,2,3", 7,
                 "045aa4f1ed97d49567053aab2af69087bba886e42de94b7dba2917134688f39a",
                 id="hyp_syllogism"),
]


@pytest.mark.parametrize("logic, texts, budget, length, digest", DECIDED)
def test_decided_proof_is_pinned(logic, texts, budget, length, digest):
    logic = ENV.logic(logic)
    *hyps, goal = [parse(t, logic.signature) for t in texts]
    verdict = derives(logic, hyps, goal, Budget.parse(budget) if budget else Budget())
    assert verdict.is_yes and len(verdict.proof) == length
    assert _digest(verdict) == digest


def test_decided_interderivability_is_pinned():
    logic = ENV.logic("IMPFRAG")
    verdict = interderivable(logic, parse("x0", logic.signature),
                             parse("imp(imp(x0, x0), x0)", logic.signature))
    assert verdict.is_yes
    assert [verdict.detail[way]["proof"]["length"] for way in ("forward", "backward")] == [3, 7]
    assert _digest(verdict) == (
        "871801ea30d5bc9b79aef925291202116111795d95a798892adbd28b8b1b045d")


def _digest(verdict) -> str:
    return hashlib.sha256(json.dumps(verdict.to_json(), sort_keys=True).encode()).hexdigest()
