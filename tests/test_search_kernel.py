"""The unification kernel (`match`, `unify`) against reference copies of
its earlier closure-based versions; the backward prover (condensed
detachment, `search_proof`) against `_Searcher`, the backward search it
replaced, kept here as the reference; pinned searched proofs, and pinned
proofs that `derives` decides before the prover runs.

The references are kept here on purpose: the kernel may get faster, but the
bindings it returns, including the order of their keys, decide which
unifiers the prover keeps and so which proofs it finds.
"""

import hashlib
import itertools
import json
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from catlog import corpus, dsl
from catlog.consequence import (
    _UNIFY_CAP, AxiomInstance, Budget, Calculus, Hypothesis, Logic, Rule, RuleInstance,
    Verdict, _Skeletons, derives, interderivable, search_proof, unify, verify_proof,
)
from catlog.formulas import (
    App, Formula, ParseError, StructuralError, Substitution, Var, check_formula,
    complexity, enumerate_formulas, match, parse, sort_key, subformulas, substitute,
    variables,
)
from catlog.logic_cat import fibring_unconstrained
from strategies import UT_SPEC

# the offsets `_Searcher` shifts axiom and rule variables by: negative, so
# that `unify` binds them first, as it does the prover's schematic variables
_AXIOM_OFFSET = -10_000
_FREE_OFFSET = -20_000

OBJECT = [0, 1, 2]
RENAMED = [-1, -2]
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
            if left.index < 0:
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


@given(match_cases(), acyclic_bindings(OBJECT + FREE))
def test_match_agrees_with_reference(case, seed):
    pattern, concrete = case
    got_binding, want_binding = dict(seed), dict(seed)
    got = match(pattern, concrete, got_binding)
    want = reference_match(pattern, concrete, want_binding)
    assert (got is None) == (want is None)
    # same keys in the same order, also what a failed match leaves behind
    assert list(got_binding.items()) == list(want_binding.items())
    if got is not None:
        assert list(got.mapping.items()) == list(want.mapping.items())
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


# --- unify -------------------------------------------------------------------


@given(unify_cases(), acyclic_bindings(OBJECT + RENAMED + FREE))
def test_unify_agrees_with_reference(case, seed):
    left, right = case
    got = unify(left, right, dict(seed))
    want = reference_unify(left, right, dict(seed))
    assert (got is None) == (want is None)
    if got is not None:
        assert list(got.items()) == list(want.items())


def test_unify_prefers_binding_template_variables():
    renamed = Var(-1)
    assert unify(Var(0), renamed, {}) == {-1: Var(0)}
    assert unify(renamed, Var(0), {}) == {-1: Var(0)}
    # two object variables: the right one is bound
    assert unify(Var(0), Var(1), {}) == {1: Var(0)}


def test_unify_runs_the_occurs_check_through_the_binding():
    renamed = Var(-1)
    assert unify(renamed, App("f", (renamed,)), {}) is None
    # x0 is already bound to renamed, so renamed occurs in f(x0)
    assert unify(renamed, App("f", (Var(0),)), {0: renamed}) is None
    assert unify(renamed, App("f", (Var(1),)), {0: renamed}) == {
        0: renamed, -1: App("f", (Var(1),))}


# --- the reference: the backward search the prover replaced ------------------


@dataclass(frozen=True)
class SearchBounds:
    """`_Searcher`'s bounds: proof-tree nodes, substitution-image
    complexity, candidate enumeration complexity, candidate variable count."""

    proof_length: int
    instance_complexity: int
    enumeration_complexity: int
    variable_count: int


def _ground(phi: Formula, binding: dict[int, Formula]) -> Formula | None:
    """Fully resolve a unification result; None if foreign variables remain."""
    vs = variables(phi)
    if vs.isdisjoint(binding):
        # nothing to replace: phi itself, unless a shifted variable remains
        for i in vs:
            if i < 0:
                return None
        return phi
    if type(phi) is Var:
        return _ground(binding[phi.index], binding)
    args = []
    for a in phi.args:
        g = _ground(a, binding)
        if g is None:
            return None
        args.append(g)
    return App(phi.connective, tuple(args))


class _Node:
    __slots__ = ("formula", "justification", "children", "size")

    def __init__(self, formula, justification, children):
        self.formula = formula
        self.justification = justification
        self.children = children
        self.size = 1 + sum(c.size for c in children)


# hard cap on search-tree nodes per query; exceeding it means Unknown
_NODE_CAP = 300_000


class _SearchBudget(Exception):
    pass


class _Searcher:
    """Backward search for one goal, bounded by proof size and node count.

    `prove` tries, in order: a memoized proof, a hypothesis, the first
    axiom that matches, then each rule whose conclusion matches, premises
    proved under every instantiation `_instantiations` yields.  `rules`
    holds per rule, computed once: its premise variables in sorted order
    and the order its premises are proved in.  `axioms` pairs each axiom
    with its head connective (None for a variable), so an axiom whose head
    differs from the goal's is passed over without a match.

    While harvesting, axiom variables are shifted by `_AXIOM_OFFSET` and
    rule variables by `_FREE_OFFSET`.
    """

    def __init__(self, calculus: Calculus, hypotheses: frozenset[Formula],
                 goal: Formula, budget: SearchBounds):
        self.calculus = calculus
        self.hypotheses = hypotheses
        self.budget = budget
        self.success: dict[Formula, _Node] = {}
        self.failed_at: dict[Formula, int] = {}
        self.sub_pool = self._subformula_pool(goal)
        self.pool = self._candidate_pool(goal)
        self.shallow_pool = [f for f in self.pool if complexity(f) <= 2]
        self.max_depth = min(16, budget.proof_length)
        self.axioms = [(a, a.connective if type(a) is App else None)
                       for a in calculus.axioms]
        self.shifted_axioms = [substitute(lambda i: Var(i + _AXIOM_OFFSET), a)
                               for a in calculus.axioms]
        self.ground_axioms = [a for a in calculus.axioms if not variables(a)]
        self.nodes = 0
        # keep the total work roughly constant: rich rule sets get fewer nodes
        self.node_cap = max(8_000, _NODE_CAP // max(1, len(calculus.rules)))
        # per rule: its premise variables, sorted, and its premises in the
        # order they are proved: structurally richer patterns first, as
        # they prune harder
        self.rules = [(rule, sorted(set().union(*map(variables, rule.premises))),
                       sorted(range(len(rule.premises)),
                              key=lambda i: -complexity(rule.premises[i])))
                      for rule in calculus.rules]
        self.fewest_premises = min((len(r.premises) for r in calculus.rules), default=1)
        # rules indexed by the head of their conclusion; variable-headed
        # conclusions apply to every goal
        self.rules_by_head: dict[str, list[int]] = {}
        self.var_conclusion_rules: list[int] = []
        for ridx, rule in enumerate(calculus.rules):
            if isinstance(rule.conclusion, Var):
                self.var_conclusion_rules.append(ridx)
            else:
                self.rules_by_head.setdefault(
                    rule.conclusion.connective, []).append(ridx)

    def _subformula_pool(self, goal: Formula) -> list[Formula]:
        base = subformulas(goal)
        for f in self.hypotheses:
            base |= subformulas(f)
        return sorted((f for f in base
                       if complexity(f) <= self.budget.instance_complexity),
                      key=complexity)

    def _candidate_pool(self, goal: Formula) -> list[Formula]:
        occurring = variables(goal)
        for f in self.hypotheses:
            occurring |= variables(f)
        indices = sorted(occurring)[: self.budget.variable_count]
        if not indices:
            indices = [0]
        span = min(max(indices) + 1, max(self.budget.variable_count, 1))
        enumerated = enumerate_formulas(
            self.calculus.signature, span, self.budget.enumeration_complexity)
        pool = list(self.sub_pool)
        seen = set(pool)
        for phi in enumerated:
            if phi not in seen and variables(phi) <= set(indices):
                pool.append(phi)
                seen.add(phi)
        return pool

    def prove(self, goal: Formula, allowed: int, stack: frozenset[Formula]
              ) -> tuple[_Node | None, bool]:
        """Returns (proof tree, cycle_flag); cycle failures are not memoized."""
        self.nodes += 1
        if self.nodes > self.node_cap:
            raise _SearchBudget
        cached = self.success.get(goal)
        if cached is not None and cached.size <= allowed:
            return cached, False
        if allowed <= 0:
            return None, False
        if goal in stack:
            return None, True
        if len(stack) >= self.max_depth:
            # depth-pruned, so the failure is path-dependent: no memo entry
            return None, True
        if self.failed_at.get(goal, -1) >= allowed:
            return None, False
        if goal in self.hypotheses:
            node = _Node(goal, Hypothesis(), [])
            self.success[goal] = node
            return node, False
        head = goal.connective if type(goal) is App else None
        for idx, (axiom, axiom_head) in enumerate(self.axioms):
            if axiom_head is not None and axiom_head != head:
                continue
            sigma = match(axiom, goal)
            if sigma is not None:
                node = _Node(goal, AxiomInstance(idx, sigma), [])
                self.success[goal] = node
                return node, False
        cycle_seen = False
        # a rule step takes a node for each premise and one for itself
        if allowed > self.fewest_premises:
            inner = stack | {goal}
            depth = len(stack)
            applicable = self.rules_by_head.get(head, [])
            for ridx in itertools.chain(applicable, self.var_conclusion_rules):
                made, cyc = self._try_rule(ridx, goal, allowed, inner, depth)
                cycle_seen = cycle_seen or cyc
                if made is not None:
                    self.success[goal] = made
                    return made, cycle_seen
        if not cycle_seen:
            # no call below records a failure for goal, which is on its stack
            self.failed_at[goal] = allowed
        return None, cycle_seen

    def _try_rule(self, ridx: int, goal: Formula, allowed: int,
                  stack: frozenset[Formula], depth: int) -> tuple[_Node | None, bool]:
        rule, rule_vars, order = self.rules[ridx]
        if allowed < 1 + len(rule.premises):
            return None, False
        base = match(rule.conclusion, goal)
        if base is None:
            return None, False
        free = [v for v in rule_vars if v not in base.mapping]
        cycle_seen = False
        for sigma in self._instantiations(rule, base, free, depth):
            # prove returns only nodes that fit their allowance, so this one fits
            children: list[_Node | None] = [None] * len(rule.premises)
            remaining = allowed - 1
            for i in order:
                node, cyc = self.prove(substitute(sigma, rule.premises[i]),
                                       remaining, stack)
                cycle_seen = cycle_seen or cyc
                if node is None:
                    break
                children[i] = node
                remaining -= node.size
            else:  # indices set later
                return _Node(goal, RuleInstance(ridx, sigma, ()), children), cycle_seen
        return None, cycle_seen

    def _instantiations(self, rule: Rule, base: Substitution, free: list[int],
                        depth: int):
        if not free:
            yield base
            return
        harvested = self._harvest(rule, base, free)
        seen = {tuple(sigma(v) for v in free) for sigma in harvested}
        yield from harvested
        # fall back to bounded enumeration for anything not harvested; blind
        # candidates branch too widely to allow at depth, so the pool shrinks
        # from full enumeration (root) to small formulas to subformulas only,
        # and the number of blind attempts per node is capped
        if depth == 0:
            pool, cap = self.pool, 160
        elif depth == 1:
            pool, cap = self.shallow_pool, 40
        else:
            pool, cap = self.sub_pool, len(self.sub_pool)
        tried = 0
        pools = [pool] * len(free)
        for combo in itertools.product(*pools):
            key = tuple(combo)
            if key in seen:
                continue
            tried += 1
            if tried > cap:
                return
            mapping = dict(base.mapping)
            mapping.update(zip(free, combo))
            yield Substitution(mapping)

    def _harvest(self, rule: Rule, base: Substitution, free: list[int]
                 ) -> list[Substitution]:
        """Ground candidates read off hypotheses and axiom unifiers."""
        harvested: list[Substitution] = []
        seen: set[tuple] = set()
        bound = self.budget.instance_complexity

        def consider(binding: dict[int, Formula]):
            images = []
            for v in free:
                img = binding.get(v + _FREE_OFFSET)
                if img is None:
                    return
                img = _ground(img, binding)
                if img is None or complexity(img) > bound:
                    return
                images.append(img)
            key = tuple(images)
            if key in seen:
                return
            seen.add(key)
            mapping = dict(base.mapping)
            mapping.update(zip(free, images))
            harvested.append(Substitution(mapping))

        shifted = Substitution({**base.mapping,
                                **{v: Var(v + _FREE_OFFSET) for v in free}})
        wanted = {v + _FREE_OFFSET for v in free}
        for premise in rule.premises:
            pattern = substitute(shifted, premise)
            if not wanted <= variables(pattern):
                continue  # `consider` needs every free variable bound
            for hyp in self.hypotheses:
                # bindable: the shifted rule variables
                m = reference_match(pattern, hyp, None, bindable=lambda i: i < 0)
                if m is not None:
                    consider(m.mapping)
            # a bare variable unifies with the whole axiom, a ground image
            # only when the axiom has no variables
            axioms = self.ground_axioms if type(pattern) is Var else self.shifted_axioms
            for axiom in axioms:
                binding = unify(pattern, axiom, {})
                if binding is not None:
                    consider(binding)
        return harvested


def reference_search(calculus, hypotheses, goal, bounds, node_cap):
    """The backward search as `search_proof` ran it: `_Searcher` through the
    deepening schedule, with its node cap set to `node_cap`.  The proof
    tree's root, or None; `_SearchBudget` passes the cap on to the caller."""
    searcher = _Searcher(calculus, hypotheses, goal, bounds)
    searcher.node_cap = node_cap
    schedule = [1, 2, 3, 5, 8, 13, 21, 34]
    limits = [s for s in schedule if s < bounds.proof_length] + [bounds.proof_length]
    for limit in limits:
        node, _ = searcher.prove(goal, limit, frozenset())
        if node is not None:
            return node
    return None


# --- the prover against the reference ----------------------------------------

ENV = corpus.standard_env()

CHECKED = {name: ENV.logic(name) for name in ("CPL1", "IMPFRAG", "NEGFRAG")}
CHECKED["IMPFRAG+NEGFRAG"] = fibring_unconstrained(CHECKED["IMPFRAG"], CHECKED["NEGFRAG"])[0]
# formulas of complexity <= 2 in x0, x1
CHECKED_POOLS = {name: enumerate_formulas(logic.signature, 2, 2)
                 for name, logic in CHECKED.items()}


@st.composite
def checked_sequents(draw):
    name = draw(st.sampled_from(sorted(CHECKED)))
    pool = st.sampled_from(CHECKED_POOLS[name])
    return (name, frozenset(draw(st.lists(pool, max_size=2))), draw(pool),
            draw(st.integers(min_value=3, max_value=8)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(checked_sequents())
def test_the_prover_proves_every_sequent_the_reference_search_proves(sequent):
    name, gamma, phi, length = sequent
    logic = CHECKED[name]
    verdict = search_proof(logic.calculus, gamma, phi, Budget(length))
    # run to its end, the reference's search of an underivable sequent takes
    # seconds at length 7 or 8; iterative deepening finds a short proof
    # early, so a search that passes 5,000 nodes says nothing either way
    try:
        found = reference_search(logic.calculus, gamma, phi,
                                 SearchBounds(length, 2, 1, 2), 5_000)
    except _SearchBudget:
        found = None
    if found is not None:
        # the prover's tree is a smallest one
        assert verdict.is_yes and len(verdict.proof) <= found.size
    if verdict.is_yes:
        assert verify_proof(logic, gamma, phi, verdict.proof)
        assert len(verdict.proof) <= length
    else:
        # every tree within the bound was tried, and none concludes phi
        assert verdict.reason == f"no proof tree within {length} nodes"


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
    logic = CHECKED[name]
    derived = forward_derivation(logic.calculus, gamma, rng, steps)
    # the largest tree drawn: the one most likely to need rules
    goal, size = max(derived, key=lambda entry: entry[1])
    verdict = search_proof(logic.calculus, gamma, goal, Budget(size + slack))
    # the prover finds a smallest tree, and the drawn one has `size` nodes
    assert verdict.is_yes and len(verdict.proof) <= size
    assert verify_proof(logic, gamma, goal, verdict.proof)


@pytest.mark.parametrize("hyps, goal", [
    (["x0"], "neg(neg(x0))"),
    ([], "imp(neg(neg(x0)), x0)"),
    (["neg(neg(x0))"], "x0"),
], ids=["dni_cpl1", "dne_thm_cpl1", "dne_cpl1"])
def test_check_ends_searches_with_no_tree_within_the_bound(hyps, goal):
    cpl1 = CHECKED["CPL1"]
    verdict = derives(cpl1, [parse(h, cpl1.signature) for h in hyps],
                      parse(goal, cpl1.signature), Budget.parse("5,6,4,2"))
    assert verdict == Verdict.unknown(reason="no proof tree within 5 nodes")


def test_check_ends_a_search_in_an_empty_calculus():
    empty = Calculus(CHECKED["CPL1"].signature, [], [])
    assert search_proof(empty, frozenset([Var(0)]), Var(1)) == Verdict.unknown(
        reason="no proof tree within 40 nodes")
    assert search_proof(empty, frozenset([Var(0)]), Var(0), Budget(1)).is_yes


def test_the_goal_test_keeps_the_sequents_variables_fixed():
    # a conclusion proves the goal only through a unifier that binds
    # schematic variables alone, so a hypothesis is not instantiated
    negfrag = CHECKED["NEGFRAG"]
    empty = Logic("E", negfrag.signature, Calculus(negfrag.signature, [], []))
    hyp = parse("imp(x0, x1)", negfrag.signature)
    verdict = search_proof(empty.calculus, frozenset([hyp]), hyp)
    assert verdict.is_yes and len(verdict.proof) == 1
    assert verify_proof(empty, [hyp], hyp, verdict.proof)
    for text in ("imp(x1, x1)", "imp(x0, x2)", "imp(x0, x0)"):
        goal = parse(text, negfrag.signature)
        assert search_proof(empty.calculus, frozenset([hyp]), goal) == Verdict.unknown(
            reason="no proof tree within 40 nodes")


UT = dsl.loads(UT_SPEC).logic("UT")


@pytest.mark.parametrize("hyps, goal, answer", [
    ([], "t(x0, x1, x0)", 3),
    ([], "t(u(x0), x1, t(x0, x0, x0))", 4),
    (["p(x0, x1)", "p(x1, x2)", "p(x2, x0)"], "q(x0)", 5),
    (["p(x0, x1)", "p(x1, x0)"], "q(x0)", "no proof tree within 12 nodes"),
], ids=["t_3", "t_nested", "q_cycle_3", "q_cycle_2"])
def test_rules_of_three_and_four_premises(hyps, goal, answer):
    # premise positions 0-3 each unify with their own copies of the levels
    hyps = [parse(h, UT.signature) for h in hyps]
    goal = parse(goal, UT.signature)
    verdict = derives(UT, hyps, goal, Budget(12))
    if isinstance(answer, str):
        assert verdict == Verdict.unknown(reason=answer)
    else:
        assert verdict.is_yes and len(verdict.proof) == answer
        assert verify_proof(UT, hyps, goal, verdict.proof)


def test_negative_variable_indices_are_refused():
    # the prover's schematic variables are the negative ones, so no formula
    # of a sequent, an axiom or a rule may hold one
    negfrag = CHECKED["NEGFRAG"]
    with pytest.raises(StructuralError):
        check_formula(negfrag.signature, Var(-1))
    with pytest.raises(StructuralError):
        Calculus(negfrag.signature, [Var(-1)], [])
    with pytest.raises(StructuralError):
        derives(negfrag, [Var(-1)], Var(5))
    # nor can formula text name one
    with pytest.raises(ParseError):
        parse("x-1")


def test_variables_at_the_rename_offset_stay_fixed():
    # the prover's schematic variables once started at 10,000; a sequent's
    # variables up there are fixed symbols all the same
    negfrag = CHECKED["NEGFRAG"]
    x10000, x5 = Var(10_000), Var(5)
    assert not derives(negfrag, [x10000], x5).is_yes
    assert search_proof(negfrag.calculus, frozenset([x10000]), x5) == Verdict.unknown(
        reason="no proof tree within 40 nodes")
    for texts in (["x10000", "imp(x10000, x5)", "x5"],
                  ["imp(neg(x0), neg(x10000))", "imp(x10000, x0)"],
                  ["x10000", "imp(neg(x10001), neg(x10000))", "x10001"],
                  ["imp(imp(neg(x3), neg(x20000)), imp(x20000, x3))"]):
        *hyps, goal = [parse(t, negfrag.signature) for t in texts]
        verdict = derives(negfrag, hyps, goal)
        assert verdict.is_yes and verdict.proof.conclusion() == goal
        assert verify_proof(negfrag, hyps, goal, verdict.proof)


def test_a_tree_rebuilt_against_another_goal_gives_no_proof():
    negfrag = CHECKED["NEGFRAG"]
    hyps = frozenset([Var(0), parse("imp(x0, x1)", negfrag.signature)])
    prover = _Skeletons(negfrag.calculus, hyps)
    assert prover.prove(Var(1), 3).is_yes
    index = prover.levels[3].index(Var(1))
    assert prover._proof(3, index, Var(1)).conclusion() == Var(1)
    assert prover._proof(3, index, Var(2)) is None


@pytest.mark.parametrize("logic, imp, links, length", [
    ("NEGFRAG", "imp", 6, 13),
    ("IMPFRAG+NEGFRAG", "imp_1", 5, 11),
], ids=["negfrag_6", "fibred_5"])
def test_a_chain_of_hypotheses_is_proved_at_the_default_budget(logic, imp, links, length):
    # x0, imp(x0, x1), ..., imp(x_{n-1}, x_n) |- x_n, with no G4ip step to
    # take it; the reference search passes its node cap on both
    logic = CHECKED[logic]
    hyps = [Var(0)] + [App(imp, (Var(i), Var(i + 1))) for i in range(links)]
    verdict = derives(logic, hyps, Var(links))
    assert verdict.is_yes and len(verdict.proof) == length
    assert verify_proof(logic, hyps, Var(links), verdict.proof)


def test_the_unification_cap_ends_a_deep_goal():
    # a 100-deep right-nested implication over x0 -> x0: a theorem whose
    # smallest proof has far more than 40 steps
    impfrag = ENV.logic("IMPFRAG")
    goal = parse("imp(x0, x0)", impfrag.signature)
    for depth in range(100):
        goal = App("imp", (Var(depth % 3), goal))
    cap = Verdict.unknown(reason=f"unification cap ({_UNIFY_CAP:,}) reached")
    assert derives(impfrag, [], goal) == cap
    prover = _Skeletons(impfrag.calculus, frozenset())
    assert prover.prove(goal, Budget().proof_length) == cap
    assert prover.attempts <= _UNIFY_CAP


def test_every_tree_of_a_fibred_query_is_ruled_out_below_the_cap():
    # criterion 12's query before its congruential closure
    fibred = fibring_unconstrained(ENV.logic("IMPFRAG"), ENV.logic("NEGFRAG"))[0]
    hyp = parse("neg_1(x0)", fibred.signature)
    goal = parse("neg_1(imp_0(imp_0(x0, x0), x0))", fibred.signature)
    prover = _Skeletons(fibred.calculus, frozenset([hyp]))
    assert prover.prove(goal, 10) == Verdict.unknown(reason="no proof tree within 10 nodes")
    assert prover.attempts == 913


# --- searched proofs, pinned -------------------------------------------------

# sha256 of each verdict's JSON (sorted keys); a change to the order in
# which the prover builds its levels, or to the shape of a proof, changes them
PINNED = [
    pytest.param("CPL1", ["imp(x0, x0)"], None,
                 "de2606caae1aa35d039306987e5afcf2399956117fdfac64fd29eb131ec3a5b3",
                 id="id_cpl1"),
    pytest.param("IMP", ["x0", "imp(x0, x1)", "x1"], None,
                 "861beaad2a73c70c94d92454f816a4b4b25c055b6be7b383a11259da3ffac07c",
                 id="mp_imp"),
    pytest.param("CPL1", ["neg(neg(x0))", "x0"], "40,8,2,1",
                 "29975f136969fcd9caa4c6ebd92090fe10405500c42738e845a999b4e2d9550b",
                 id="dne_cpl1_wide"),
    pytest.param("IMPFRAG", ["imp(x0, x1)", "imp(x1, x2)", "imp(x0, x2)"], "7,4,2,3",
                 "045aa4f1ed97d49567053aab2af69087bba886e42de94b7dba2917134688f39a",
                 id="hyp_syllogism"),
]


def _searched(logic, hyps, goal, budget=Budget()) -> Verdict:
    """The verdict of a proof that the prover finds."""
    verdict = search_proof(logic.calculus, frozenset(hyps), goal, budget)
    assert verdict.is_yes
    return verdict


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
# ponens, before the prover runs; they are the proofs it finds, step for step
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
