"""Interderivability quotients: morphism equivalence, congruential logics,
weak equivalences, rigidity probes and Lindenbaum equivalence sets.

Two parallel translations are identified when their extensions agree up to
mutual derivability.  For congruential targets the check at connective
generators settles the whole quotient map; otherwise verdicts are bounded
and say so.

Every check here that is a conjunction of derivability queries (morphism
equivalence, the replacement sweep of congruentiality over all its candidate
pairs, the Lindenbaum conditions) is one `consequence.refutation_sweep`, and
reports in `consequence`'s status words: confirmed, refuted or unknown.  An
unknown query never counts as a pass.  The certificates share one JSON
writer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields

from .consequence import (
    Budget, CONFIRMED, DEFAULT_BUDGET, Logic, Matrix, REFUTED, Rule, Saturation,
    SignatureMismatch, UNKNOWN, VERIFIED, Verdict, can_refute, derives, exact_matrix,
    interderivable, refutation_sweep,
)
from .formulas import (
    App, Formula, InputError, Substitution, Var, complexity, enumerate_formulas,
    enumerate_slice, extend, fmt, json_value, sort_key, substitute, variables,
)
from .kleisli import (
    FlexibleMorphism, flexible_extension, kleisli_compose, kleisli_identity,
)
from .logic_cat import (
    Translation, as_flexible, check_chain, check_translation, matrix_inclusion, reduct,
)
from .signatures import Partition, Signature, identity_morphism, signature_coproduct


class _Certificate:
    """JSON for the certificate dataclasses: fields that are None are left
    out, and the rest are written by `formulas.json_value`."""

    def to_json(self) -> dict:
        return {f.name: json_value(getattr(self, f.name)) for f in fields(self)
                if getattr(self, f.name) is not None}


@dataclass
class EquivalenceCertificate(_Certificate):
    """Interderivability of two parallel morphisms, connective by connective."""

    left: FlexibleMorphism
    right: FlexibleMorphism
    status: str
    scope: str = ""  # "generator-sufficient" | "bounded-enumeration"
    per_connective: dict = field(default_factory=dict)
    witness: dict | None = None
    bounds: tuple | None = None

    @property
    def equivalent(self) -> bool:
        return self.status == CONFIRMED


def morphisms_equivalent(f, g, target: Logic,
                         budget: Budget = DEFAULT_BUDGET,
                         bounds: tuple[int, int] = (3, 2),
                         target_congruential: bool | None = None
                         ) -> EquivalenceCertificate:
    """Do f and g induce the same map into the interderivability quotient
    of `target`?"""
    hf, hg = as_flexible(f), as_flexible(g)
    if hf.source != hg.source or hf.target != hg.target:
        raise InputError("morphisms are not parallel")
    if hf.target != target.signature:
        raise SignatureMismatch("morphisms do not land in the target logic's signature")
    per_connective = {}

    def generators():
        for c in sorted(hf.source.connectives):
            v = interderivable(target, hf(c), hg(c), budget)
            per_connective[c] = v.status
            yield c, v

    c, at_generators = refutation_sweep(generators())
    if at_generators.is_no:
        return EquivalenceCertificate(
            hf, hg, REFUTED, scope="generator", per_connective=per_connective,
            witness={"connective": c, "left": fmt(hf(c)), "right": fmt(hg(c)),
                     "counter": at_generators.counter_json()})
    if target_congruential is None:
        target_congruential = _known_congruential(target, bounds, budget)
    if target_congruential:
        return EquivalenceCertificate(hf, hg, at_generators.outcome(CONFIRMED),
                                      scope="generator-sufficient",
                                      per_connective=per_connective)
    # codomain not known congruential: sweep whole formulas up to the bound
    compl_bound, var_bound = bounds
    theta, v = refutation_sweep(
        (theta, interderivable(target, flexible_extension(hf, theta),
                               flexible_extension(hg, theta), budget))
        for theta in enumerate_formulas(hf.source, var_bound, compl_bound))
    if v.is_no:
        return EquivalenceCertificate(
            hf, hg, REFUTED, scope="bounded-enumeration",
            per_connective=per_connective, bounds=bounds,
            witness={"formula": fmt(theta), "counter": v.counter_json()})
    status = UNKNOWN if at_generators.is_unknown else v.outcome(CONFIRMED)
    return EquivalenceCertificate(hf, hg, status, scope="bounded-enumeration",
                                  per_connective=per_connective, bounds=bounds)


# ---------------------------------------------------------------------------
# Congruentiality


@dataclass
class CongruentialityVerdict(_Certificate):
    status: str
    bounds: tuple[int, int]
    witness: dict | None = None
    pairs_checked: int = 0


def is_congruential(logic: Logic, bounds: tuple[int, int] = (4, 2),
                    budget: Budget = DEFAULT_BUDGET) -> CongruentialityVerdict:
    """Replacement compatibility of interderivability, tested at the bounds.

    The candidate pairs are interderivable pairs of the bounded pool.  With
    an exact matrix they are read off the columns: representatives of the
    value functions in each designation class, since only pairs whose value
    functions differ can refute.  Otherwise they are searched, and a logic
    that cannot refute stops at its first unknown pair: nothing after it
    could turn the answer into a yes or a no.  One sweep then puts every
    pair into every one-connective context.  A no refutes; an unknown
    interderivability or replacement query leaves the answer unknown.
    """
    compl_bound, var_bound = bounds
    sig = logic.signature
    pool = enumerate_formulas(sig, var_bound, compl_bound)
    matrix = exact_matrix(logic)
    pairs: list[tuple[Formula, Formula]] = []
    unknown = False
    if matrix is not None:
        by_designation: dict[tuple, dict[tuple, Formula]] = {}
        for phi, col in zip(pool, matrix.columns(pool, range(var_bound))):
            by_designation.setdefault(matrix.designation(col), {}).setdefault(col, phi)
        for des_class in by_designation.values():
            pairs += itertools.combinations(sorted(des_class.values(), key=fmt), 2)
    else:
        for a, b in itertools.combinations(pool, 2):
            v = interderivable(logic, a, b, budget)
            if v.is_yes:
                pairs.append((a, b))
            elif v.is_unknown:
                if not can_refute(logic):
                    return CongruentialityVerdict(UNKNOWN, bounds)
                unknown = True
    item, v = refutation_sweep(
        ((checked, a, b, context), interderivable(logic, context[2], context[3], budget))
        for checked, (a, b) in enumerate(pairs, 1)
        for context in _contexts(sig, a, b, var_bound))
    if v.is_no:
        checked, a, b, (c, position, ctx_a, ctx_b) = item
        return CongruentialityVerdict(
            REFUTED, bounds, pairs_checked=checked,
            witness={"connective": c, "position": position,
                     "left": fmt(a), "right": fmt(b),
                     "context_left": fmt(ctx_a), "context_right": fmt(ctx_b),
                     "counter": v.counter_json()})
    status = UNKNOWN if unknown or v.is_unknown else CONFIRMED
    return CongruentialityVerdict(status, bounds, pairs_checked=len(pairs))


def _known_congruential(logic: Logic, bounds: tuple[int, int], budget: Budget) -> bool:
    """Whether the generator check settles equivalence into `logic`: only
    exactly decided logics are tested, and only a confirmed test counts."""
    if exact_matrix(logic) is None and not logic.decides:
        return False
    return is_congruential(logic, bounds, budget).status == CONFIRMED


def _contexts(sig: Signature, a: Formula, b: Formula, n: int):
    """One-connective contexts around a pair: for every connective c and
    argument position, (c, position, c(.., a, ..), c(.., b, ..)), with the
    same fresh variables in the other positions.  The fresh variables count
    up from x_n, or from just above the pair's variables if that is higher.
    """
    n = max([n] + [i + 1 for i in variables(a) | variables(b)])
    for c, arity in sorted(sig.connectives.items()):
        fresh = [Var(i) for i in range(n, n + arity - 1)]
        for position in range(arity):
            before, after = fresh[:position], fresh[position:]
            yield (c, position, App(c, (*before, a, *after)),
                   App(c, (*before, b, *after)))


def congruential_closure(logic: Logic, bounds: tuple[int, int] = (3, 1)) -> Logic:
    """Extend a presented logic with replacement-derived two-way rules.

    One forward-saturation sweep discovers the interderivable pairs of the
    bounded pool; the induced partition is then closed symbolically under
    one-layer connective contexts and transitivity until it stabilizes.
    Each class contributes member-to-representative rule schemes, and
    context pairs that leave the pool contribute their own rules.  The
    result is a sound under-approximation of the congruential closure and
    keeps the signature unchanged.
    """
    if exact_matrix(logic) is not None:
        verdict = is_congruential(logic, (max(bounds[0], 3), max(bounds[1], 1)))
        if verdict.status == CONFIRMED:
            return logic  # already a fixpoint at the tested bounds
    if logic.calculus is None:
        raise InputError("congruential closure needs a presented calculus")
    compl_bound, var_bound = bounds
    sig = logic.signature
    pool = enumerate_formulas(sig, var_bound, compl_bound)
    pool_set = set(pool)
    seed_pool = enumerate_formulas(sig, var_bound, 2)
    sat = Saturation(logic.calculus, seed_pool)
    theorems = [phi for phi in pool if phi in sat]
    # world worlds[i] holds pool[i] alone, and a formula holds there when
    # that bit of its label is set
    worlds = sat.extend([[phi] for phi in pool])
    # two base theorems are interderivable, a base theorem and another
    # formula never, two other formulas when each holds in the other's
    # world; a class is named by its sort_key minimum
    classes = Partition(pool, key=sort_key)
    for a, b in zip(theorems, theorems[1:]):
        classes.union(a, b)
    for world, b in zip(worlds, pool):
        label = sat.bits.get(b, 0)
        while label > 0:  # a base theorem's label is -1
            low = label & -label
            a = pool[worlds.index(low.bit_length() - 1)]
            if sat.bits[a] >> world & 1:
                classes.union(a, b)
            label ^= low
    # context fixpoint inside the pool: equivalent arguments make contexts
    # equivalent, which can merge further classes
    changed = True
    while changed:
        changed = False
        for a in pool:
            r = classes.find(a)
            if r == a:
                continue
            for _, _, ca, cb in _contexts(sig, a, r, 0):
                if ca in pool_set and cb in pool_set:
                    if classes.union(ca, cb):
                        changed = True
    # glue each member to its class's name, and the one-layer contexts of
    # the two that leave the pool; the dict keeps each pair once, in order
    glued: dict[tuple[Formula, Formula], None] = {}
    for a in pool:
        r = classes.find(a)
        if r == a:
            continue
        glued[a, r] = None
        for _, _, ca, cb in _contexts(sig, a, r, 0):
            if ca not in pool_set or cb not in pool_set:  # else identified in the pool
                glued[ca, cb] = None
    if not glued:
        return logic
    rules = [rule for a, b in glued for rule in (Rule((a,), b), Rule((b,), a))]
    calc = logic.calculus.extended(rules=rules)
    return Logic(f"closure({logic.name})", sig, calculus=calc)


# ---------------------------------------------------------------------------
# Weak equivalence (conservative + dense translations)


@dataclass
class WeakEquivalenceCertificate(_Certificate):
    morphism: FlexibleMorphism
    status: str
    conservativity: str = ""   # "connective-tables" | "unchecked"
    denseness: dict = field(default_factory=dict)  # n -> {class: witness}
    witness: dict | None = None
    bounds: tuple | None = None

    @property
    def holds(self) -> bool:
        return self.status == CONFIRMED


# the most complex source formula the denseness search builds
_SOURCE_COMPLEXITY = 10


def weak_equivalence(h, source: Logic, target: Logic,
                     n_max: int = 2, target_compl: int = 4,
                     budget: Budget = DEFAULT_BUDGET) -> WeakEquivalenceCertificate:
    """Certify that h is a conservative and dense translation, or refute it.

    With a matrix on both sides, translation-hood is `check_translation`
    and conservativity the converse `matrix_inclusion`, both with
    `semantic=True` ("connective-tables"): `consequence.exact_matrix` reads
    each matrix as its logic's whole consequence, an assumption, not a
    check, and false for a matrix that is only sound, such as IMP's.
    Without two matrices both are "unchecked" and the certificate is at best
    unknown.  Denseness searches source formulas breadth-first over their
    columns in the target matrix's reduct along h, so every realizable class
    is found regardless of formula size.
    """
    hf = as_flexible(h)
    if hf.source != source.signature or hf.target != target.signature:
        raise SignatureMismatch("morphism endpoints do not match the logics")
    bounds = (n_max, target_compl, _SOURCE_COMPLEXITY)
    status, conservativity = UNKNOWN, "unchecked"
    if exact_matrix(source) is not None and exact_matrix(target) is not None:
        conservativity = "connective-tables"
        forward = check_translation(hf, source, target, budget, semantic=True)
        if forward.status == REFUTED:
            return WeakEquivalenceCertificate(
                hf, REFUTED, conservativity=conservativity, bounds=bounds,
                witness={"direction": "forward", **forward.witness})
        v, sequent = matrix_inclusion(hf, source, target, semantic=True, converse=True)
        if v.is_no:
            return WeakEquivalenceCertificate(
                hf, REFUTED, conservativity=conservativity, bounds=bounds,
                witness={"direction": "backward", "counter": v.counter_json(),
                         "sequent": [*map(fmt, sequent[0]), "|-", fmt(sequent[1])]})
        status = CONFIRMED if forward.verified and v.is_yes else UNKNOWN
    denseness: dict[int, dict] = {}
    for n in range(n_max + 1):
        found, missing, classes = _denseness_search(hf, target, n, target_compl, budget)
        if missing is not None:
            return WeakEquivalenceCertificate(
                hf, REFUTED, conservativity=conservativity,
                denseness=denseness, witness=missing, bounds=bounds)
        denseness[n] = {"targets": found, "classes": classes}
    return WeakEquivalenceCertificate(
        hf, status, conservativity=conservativity, denseness=denseness,
        bounds=bounds)


def _denseness_search(hf, target: Logic, n: int, target_compl: int, budget: Budget):
    """Find a source preimage (up to interderivability) for every bounded
    target slice formula; also report every interderivability class the
    images realize."""
    targets = enumerate_slice(target.signature, n, target_compl)
    matrix = exact_matrix(target)
    if matrix is not None:
        return _denseness_by_functions(hf, matrix, n, targets)
    if not targets:
        return {}, None, {}
    # fall back to direct bounded search with derivability queries
    found: dict[str, str] = {}
    candidates = enumerate_slice(hf.source, n, min(_SOURCE_COMPLEXITY, 4))
    images = [(theta, flexible_extension(hf, theta)) for theta in candidates]
    for tprime in targets:
        hit = None
        for theta, image in images:
            v = interderivable(target, tprime, image, budget)
            if v.is_yes:
                hit = theta
                break
        if hit is None:
            return found, {"missing": fmt(tprime), "mode": "bounded-search"}, {}
        found[fmt(tprime)] = fmt(hit)
    return found, None, {}


def _denseness_by_functions(hf, matrix: Matrix, n: int, targets):
    """Breadth-first over image truth functions of source slice formulas,
    their columns in the target matrix's reduct along h, each state a
    variable set and column kept with the first formula found for it.
    A round combines only state tuples holding a state the last round
    added (semi-naive): older tuples were combined a round before, into the
    same formula, giving a known state or a formula over the cap.
    """
    pulled = reduct(matrix, hf)
    rows = len(matrix.values) ** n
    # state: (frozen varset, image column over n variables)
    best: dict[tuple, Formula] = {}
    seeds = [Var(i) for i in range(n)] + [
        App(c, ()) for c, arity in sorted(hf.source.connectives.items()) if arity == 0]
    for phi, col in zip(seeds, pulled.columns(seeds, range(n))):
        best.setdefault((variables(phi), col), phi)
    old = 0  # states known before the last round
    for _ in range(_SOURCE_COMPLEXITY):
        states = list(best.items())
        for c, arity in sorted(hf.source.connectives.items()):
            for combo in _touching(states, old, arity):
                varset = frozenset().union(*[s[0][0] for s in combo])
                func = pulled.apply(c, [s[0][1] for s in combo], rows)
                state = (varset, func)
                if state not in best:
                    formula = App(c, tuple(s[1] for s in combo))
                    if complexity(formula) <= _SOURCE_COMPLEXITY:
                        best[state] = formula
        if len(best) == len(states):
            break
        old = len(states)
    full = frozenset(range(n))
    by_designation: dict[tuple, Formula] = {}
    for (varset, func), formula in best.items():
        if varset == full:
            by_designation.setdefault(matrix.designation(func), formula)
    classes = {
        "".join("1" if d else "0" for d in des): fmt(theta)
        for des, theta in sorted(by_designation.items())
    }
    found = {}
    for tprime, col in zip(targets, matrix.columns(targets, range(n))):
        des = matrix.designation(col)
        theta = by_designation.get(des)
        if theta is None:
            return found, {"missing": fmt(tprime),
                           "class": "".join("1" if d else "0" for d in des),
                           "mode": "function-search"}, classes
        found[fmt(tprime)] = fmt(theta)
    return found, None, classes


def _touching(states: list, old: int, arity: int):
    """The `arity`-tuples of `states` that hold a state past the first
    `old`, in `itertools.product` order."""
    for i, state in enumerate(states if arity else ()):
        tails = (itertools.product(states, repeat=arity - 1) if i >= old
                 else _touching(states, old, arity - 1))
        yield from ((state, *tail) for tail in tails)


def compose_weak_equivalences(outer: WeakEquivalenceCertificate,
                              inner: WeakEquivalenceCertificate,
                              ) -> WeakEquivalenceCertificate:
    """Certificates compose; bounds intersect, denseness witnesses chain."""
    if not (outer.holds and inner.holds):
        raise InputError("can only compose confirmed certificates")
    composite = kleisli_compose(outer.morphism, inner.morphism)
    bounds = tuple(min(a, b) for a, b in zip(inner.bounds, outer.bounds)) \
        if inner.bounds and outer.bounds else None
    return WeakEquivalenceCertificate(
        composite, CONFIRMED,
        conservativity=f"composed({inner.conservativity},{outer.conservativity})",
        denseness={}, bounds=bounds)


# ---------------------------------------------------------------------------
# Rigidity, Lindenbaum sets, directed colimits in the quotient


def rigidity_probe(logic: Logic, bound: int = 3,
                   budget: Budget = DEFAULT_BUDGET) -> dict:
    """Enumerate verified endo-translations and test each against identity.

    Not rigid on a refutation; otherwise rigid, or None (undecided) when a
    translation or equivalence check stayed unknown or the bound leaves out
    the identity itself.  Every comparison has the logic itself as target,
    so whether it is congruential is tested once, at the first verified
    endo-translation.

    The endomorphisms are those of `all_flexible_morphisms(sig, sig, bound)`:
    each sorted source connective takes an image from its arity's slice.
    They are walked by class, not one by one.  When `exact_matrix(logic,
    proof=False)` gives a matrix M, each slice is grouped by the images'
    columns in M, and a class picks one group per connective.  M is the
    provider that `check_translation(semantic=True)` consults, through
    `derives` and `matrix_inclusion` alike, and M |= h(G) |- h(p) exactly
    when the reduct M^h |= G |- p; `morphisms_equivalent` asks M too, on
    the images themselves at the generators and on their extensions in the
    bounded sweep, and an extension's column is fixed by the images'
    columns.  Slice images keep each formula's variables, so equal columns
    agree row for row, and every member of a class has the same statuses.
    Each check thus runs once per class, on its first member, and a
    verified class adds its size to the verified count.  A refuted class is
    walked member by member all the same: a generator witness names the
    member's own image text.  Witnesses are listed in enumeration order.
    Without a matrix every group is one formula, every class one
    endomorphism, and each is checked on its own.

    Groups are ordered by their first formula, so classes come up in the
    order in which enumeration first meets a member of each, and a class's
    first member is the one met: `check_translation` sees the same
    endomorphisms in the same order as when each is checked, and an
    exception surfaces at the same one.
    """
    sig = logic.signature
    ident = kleisli_identity(sig)
    matrix = exact_matrix(logic, proof=False)
    connectives = sorted(sig.connectives.items())
    pools: dict[int, list[Formula]] = {}  # arity -> slice
    groups: dict[int, list[list[int]]] = {}  # arity -> slice positions by column
    for arity in sig.arities():
        pool = pools[arity] = enumerate_slice(sig, arity, bound)
        keys = pool if matrix is None else matrix.columns(pool, range(arity))
        by_key: dict = {}
        for position, key in enumerate(keys):
            by_key.setdefault(key, []).append(position)
        groups[arity] = list(by_key.values())

    def endomorphism(positions) -> FlexibleMorphism:
        # slice images are well formed with exactly the right variables
        return FlexibleMorphism._unchecked(sig, sig, {
            c: pools[arity][i] for (c, arity), i in zip(connectives, positions)})

    verified = 0
    undecided = False
    non_rigid = {}  # slice positions -> witness entry; sorted, in enumeration order
    bounds = (3, 2)  # morphisms_equivalent's default
    congruential = None
    for cls in itertools.product(*(groups[arity] for _, arity in connectives)):
        first = tuple(group[0] for group in cls)
        h = endomorphism(first)
        status = check_translation(h, logic, logic, budget, semantic=True).status
        if status == VERIFIED:
            verified += math.prod(map(len, cls))
            if congruential is None:
                congruential = _known_congruential(logic, bounds, budget)
            cert = morphisms_equivalent(h, ident, logic, budget, bounds,
                                        target_congruential=congruential)
            status = cert.status
            if status == REFUTED:
                for positions in itertools.product(*cls):
                    member = endomorphism(positions)
                    if positions != first:
                        cert = morphisms_equivalent(member, ident, logic, budget, bounds,
                                                    target_congruential=congruential)
                    non_rigid[positions] = {"morphism": member.to_json(),
                                            "witness": cert.witness}
        undecided = undecided or status == UNKNOWN
    identity_enumerated = all(ident(c) in pools[arity] for c, arity in connectives)
    undecided = undecided or not identity_enumerated
    return {
        "endomorphisms": math.prod(len(pools[arity]) for _, arity in connectives),
        "verified_translations": verified,
        "identity_enumerated": identity_enumerated,
        "rigid": False if non_rigid else None if undecided else True,
        "non_rigid_witnesses": [non_rigid[positions] for positions in sorted(non_rigid)],
        "bound": bound,
    }


def lindenbaum_delta_check(logic: Logic, delta: list[Formula],
                           budget: Budget = DEFAULT_BUDGET,
                           bounds: tuple[int, int] = (2, 2)) -> dict:
    """Check the five conditions on a candidate equivalence set of binary
    formulas: reflexivity, symmetry, transitivity, replacement, and the
    biconditional tying provable equivalence to interderivability.

    (e) sweeps the bounded pool's pairs.  An exact matrix answers from the
    pool's columns: interderivable when their designations agree, delta
    provable when each head of the reduct along delta, applied to the two
    columns, is designated on every row.  Otherwise each pair is queried.
    """
    sig = logic.signature
    full = frozenset((0, 1))
    for d in delta:
        if variables(d) != full:
            raise InputError(f"{fmt(d)} is not in the binary slice")

    def inst(d: Formula, left: Formula, right: Formula) -> Formula:
        return substitute(Substitution({0: left, 1: right}), d)

    def run(premises, conclusion):
        return derives(logic, premises, conclusion, budget, proof=False)

    verdicts: dict[str, dict] = {}

    def condition(key: str, checks) -> None:
        """Record one condition: a sweep of (witness, verdict) pairs."""
        witness, v = refutation_sweep(checks)
        verdicts[key] = {"status": v.outcome(CONFIRMED)}
        if v.is_no:
            verdicts[key]["witness"] = {**witness, "counter": v.counter_json()}

    x0, x1, x2 = Var(0), Var(1), Var(2)
    # (a) reflexivity
    condition("a_reflexive", (({"formula": fmt(inst(d, x0, x0))}, run([], inst(d, x0, x0)))
                              for d in delta))
    # (b) symmetry
    premises = [inst(d, x0, x1) for d in delta]
    condition("b_symmetric", (({"conclusion": fmt(inst(d, x1, x0))},
                               run(premises, inst(d, x1, x0))) for d in delta))
    # (c) transitivity
    chained = [inst(d, x0, x1) for d in delta] + [inst(d, x1, x2) for d in delta]
    condition("c_transitive", (({"conclusion": fmt(inst(d, x0, x2))},
                                run(chained, inst(d, x0, x2))) for d in delta))

    # (d) replacement under every connective
    def replacements():
        for c, arity in sorted(sig.connectives.items()):
            if arity == 0:
                continue
            hyps = [inst(d, Var(i), Var(arity + i)) for i in range(arity) for d in delta]
            left = App(c, tuple(Var(i) for i in range(arity)))
            right = App(c, tuple(Var(arity + i) for i in range(arity)))
            for d in delta:
                yield {"connective": c}, run(hyps, inst(d, left, right))

    condition("d_replacement", replacements())
    # (e) interderivable iff the equivalence set is provable, on a bounded
    # sweep; a pair refutes when the two disagree, with no one counter
    compl_bound, var_bound = bounds
    pool = enumerate_formulas(sig, var_bound, compl_bound)
    matrix = exact_matrix(logic)
    if matrix is None:
        def answers(phi, psi) -> list[bool | None]:
            """Interderivable, and delta provable, as queries; None for unknown."""
            inter = interderivable(logic, phi, psi, budget)
            _, provable = refutation_sweep((None, run([], inst(d, phi, psi))) for d in delta)
            return [None if v.is_unknown else v.is_yes for v in (inter, provable)]
    else:
        heads = {fmt(d): d for d in delta}
        pulled = reduct(matrix, FlexibleMorphism(
            Signature("delta", dict.fromkeys(heads, 2)), sig, heads))
        columns = dict(zip(pool, matrix.columns(pool, range(var_bound))))

        def answers(phi, psi) -> list[bool | None]:
            a, b = columns[phi], columns[psi]
            return [matrix.designation(a) == matrix.designation(b),
                    all(all(matrix.designation(pulled.apply(head, [a, b], len(a))))
                        for head in heads)]

    def agreements():
        for phi, psi in itertools.combinations(pool, 2):
            inter, provable = answers(phi, psi)
            if inter is None or provable is None:
                yield None, Verdict.unknown()
            elif inter != provable:
                yield {"pair": [fmt(phi), fmt(psi)], "direction": "inter->delta"
                       if inter else "delta->inter"}, Verdict.no()
            else:
                yield None, Verdict.yes()

    witness, v = refutation_sweep(agreements())
    verdicts["e_lindenbaum"] = {"status": v.outcome(CONFIRMED)}
    if v.is_no:
        verdicts["e_lindenbaum"]["witness"] = witness
    passed = all(v["status"] == CONFIRMED for v in verdicts.values())
    return {"delta": [fmt(d) for d in delta], "conditions": verdicts,
            "passed": passed}


def qfc_directed_colimit(stages: list[Logic], maps: list[Translation]
                         ) -> tuple[Logic, list[Translation]]:
    """Directed colimit in the congruential-quotient setting, for chains.

    The vertex signature is the tagged coproduct of all stage signatures,
    named, like the vertex, after the stage logics; a sequent holds when
    some late enough stage derives its stage translation, where tagged
    connectives unfold through the chain's extensions.  Only the stages
    answer: a sequent no stage settles is unknown.
    """
    check_chain(stages, maps)
    sigs = [l.signature for l in stages]
    name = "qfc_colim(" + ",".join(l.name for l in stages) + ")"
    vertex_sig, injections = signature_coproduct(sigs, name=name)
    n = len(stages)
    stage_of = {inj(c): i for i, inj in enumerate(injections)
                for c in sigs[i].connectives}
    # stage j reads a tagged connective of stage i <= j as its template pushed
    # along the chain: stage j-1's heads pushed along map j-1, and its own
    stage_heads: list[dict[str, Formula]] = []
    for j, inj in enumerate(injections):
        pushed = {} if j == 0 else {c: maps[j - 1].morphism.extension(head)
                                    for c, head in stage_heads[-1].items()}
        stage_heads.append(pushed | {inj(c): head for c, head
                                     in identity_morphism(sigs[j]).assignment.items()})
    stage_memos: list[dict[Formula, Formula]] = [{} for _ in range(n)]

    def to_stage(phi: Formula, j: int) -> Formula:
        return extend(stage_heads[j], phi, stage_memos[j])

    def min_stage(phi: Formula) -> int:
        if isinstance(phi, Var):
            return 0
        return max([stage_of[phi.connective]] + [min_stage(a) for a in phi.args])

    def oracle(gamma, phi, budget):
        start = max([min_stage(phi)] + [min_stage(g) for g in gamma])
        unknown = False
        for j in range(start, n):
            v = derives(stages[j], [to_stage(g, j) for g in gamma],
                        to_stage(phi, j), budget)
            if v.is_yes:
                return Verdict.yes(proof=v.proof, stage=j,
                                   reason=f"derived at stage {j}")
            if v.is_unknown:
                unknown = True
        if not unknown and stages[-1].decides:
            # v is the top stage's refutation
            return Verdict.no(counter=v.counter,
                              reason="refuted at the top stage")
        return Verdict.unknown(reason="no stage settled the translation")

    vertex = Logic(name, vertex_sig, oracle=oracle, decides=all(l.decides for l in stages))
    cocone = []
    for i, inj in enumerate(injections):
        cocone.append(Translation(inj, stages[i], vertex, VERIFIED,
                                  evidence=["stage translation is the identity "
                                            "on injected formulas"]))
    return vertex, cocone
