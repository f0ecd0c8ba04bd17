"""Flexible signature morphisms and the slice monad they generate.

A flexible morphism sends an n-ary connective to a formula over the target
whose variable set is exactly {x0..x_{n-1}}.  Composition substitutes one
assignment into the other (Kleisli composition for the monad that sends a
signature to its family of formula slices).  The monad itself is handled
through finite truncations: slices are materialized only up to a complexity
bound, which is enough to check every law pointwise.

Every translation here -- the extension of a flexible morphism, flattening
through a truncation's decoding, the staged flattenings of the law suites --
is `formulas.extend` with the right head assignment and memo.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .formulas import (
    App, Formula, InputError, Var, check_formula, complexity, enumerate_slice,
    extend, fmt, slice_formula, slice_size, variables,
)
from .signatures import (
    Morphism, Signature, StrictMorphism, identity_morphism, strict_extension,
)


class FlexibleMorphism(Morphism):
    """Assignment of a target slice formula to each source connective."""

    kind = "flexible"

    def __init__(self, source: Signature, target: Signature,
                 assignment: dict[str, Formula], name: str = ""):
        for c, arity in source.connectives.items():
            phi = assignment.get(c)
            if phi is None:
                raise InputError(f"assignment misses source connective {c!r}")
            check_formula(target, phi)
            if variables(phi) != frozenset(range(arity)):
                raise InputError(
                    f"{c!r}/{arity} must map into the arity-{arity} slice, "
                    f"got {fmt(phi)} with variables {sorted(variables(phi))}")
        super().__init__(source, target, assignment, name)

    @property
    def assignment(self) -> dict[str, Formula]:
        """The images c -> h(c), each a slice formula over the target."""
        return self.images


def kleisli_identity(sig: Signature) -> FlexibleMorphism:
    """c maps to c(x0..x_{n-1}); neutral for Kleisli composition."""
    return FlexibleMorphism(sig, sig, identity_morphism(sig).assignment,
                            name=f"id_{sig.name}")


def lift_strict(f: StrictMorphism) -> FlexibleMorphism:
    """View a strict morphism as a flexible one via c -> f(c)(x0..x_{n-1})."""
    return FlexibleMorphism(f.source, f.target, f.assignment, name=f"{f.name}+")


flexible_extension = Morphism.extension


def kleisli_compose(h2: FlexibleMorphism, h1: FlexibleMorphism) -> FlexibleMorphism:
    """h2 after h1: each assignment of h1 is pushed through h2's extension.

    The composite translates through the memo that every composite with its
    head assignment shares (`signatures.composite_memo`), so factor pairs
    with one composite translate each formula once.  That is exact because
    an extension depends on the assignment alone.
    """
    if h1.target != h2.source:
        raise InputError("flexible morphisms not composable")
    assignment = {c: flexible_extension(h2, h1(c)) for c in h1.source.connectives}
    # every template of h2 is a slice formula over h2's target, so each image
    # is well formed there and keeps exactly h1(c)'s variables: no re-check
    return FlexibleMorphism._composite(h1.source, h2.target, assignment)


def is_regular(h: FlexibleMorphism) -> tuple[bool, Formula | None]:
    """True iff the extension never decreases complexity.

    Equivalent criterion: no unary connective is assigned the bare variable
    x0.  When false, returns a witness whose translation is strictly simpler.
    """
    for c, arity in h.source.connectives.items():
        if arity == 1 and h(c) == Var(0):
            return False, App(c, (Var(0),))
    return True, None


def is_weak_terminal(sig: Signature) -> bool:
    """True iff every signature admits some flexible morphism into sig."""
    return bool(sig.level(0)) and any(a >= 2 for a in sig.arities())


def weak_terminal_witness(source: Signature, candidate: Signature
                          ) -> FlexibleMorphism | None:
    """Search a flexible morphism source -> candidate, one slice at a time."""
    assignment: dict[str, Formula] = {}
    for c, arity in source.connectives.items():
        phi = slice_inhabitant(candidate, arity)
        if phi is None:
            return None
        assignment[c] = phi
    return FlexibleMorphism(source, candidate, assignment)


def slice_inhabitant(sig: Signature, n: int) -> Formula | None:
    """Some formula with variable set exactly {x0..x_{n-1}}, if one exists."""
    if n == 1:
        return Var(0)
    constants = sig.level(0)
    if n == 0:
        return App(constants[0], ()) if constants else None
    wide = [c for c in sorted(sig.connectives) if sig.connectives[c] >= 2]
    if not wide:
        return None
    head = wide[0]
    arity = sig.connectives[head]
    # chain the merging connective over all required variables, repeating the
    # last variable to fill extra argument positions
    acc: Formula = Var(n - 1)
    for i in range(n - 2, -1, -1):
        args = [Var(i), acc] + [acc] * (arity - 2)
        acc = App(head, tuple(args))
    return acc


# ---------------------------------------------------------------------------
# Truncated slice signatures: the monad T, materialized up to a bound


@dataclass
class SliceTruncation:
    """The signature of slice formulas of a base signature, up to bounds."""

    base: Signature
    compl_bound: int
    var_bound: int
    signature: Signature
    decode: dict[str, Formula]


def truncate_slices(base: Signature, compl_bound: int, var_bound: int,
                    extra: dict[str, Formula] | None = None) -> SliceTruncation:
    """Build the T-signature restricted to bounded complexity and variables.

    `extra` forces additional slice formulas (e.g. images under a morphism),
    keyed by their text, into the truncation so that morphisms out of a
    truncation stay total.  The plain truncation is built once per
    (connectives, bounds) and shared; each call copies it, adds the extras
    it lacks, and takes the base and the signature's name from `base`.
    """
    connectives, decode = (
        proxy.copy() for proxy in _plain_truncation(base, compl_bound, var_bound))
    for ident, phi in (extra or {}).items():
        if ident not in connectives:
            check_formula(base, phi)
            connectives[ident] = len(variables(phi))
            decode[ident] = phi
    sig = Signature(f"T({base.name})<= {compl_bound}", connectives)
    return SliceTruncation(base, compl_bound, var_bound, sig, decode)


@lru_cache(maxsize=256)
def _plain_truncation(base: Signature, compl_bound: int, var_bound: int
                      ) -> tuple[Mapping[str, int], Mapping[str, Formula]]:
    """The arity and the formula of each slice head of the truncation,
    read-only: every caller shares them.

    Signatures compare by their connectives alone, so the cache may hand
    this to a base of another name: it holds nothing of `base` but its
    connectives.
    """
    connectives: dict[str, int] = {}
    decode: dict[str, Formula] = {}
    for n in range(var_bound + 1):
        for phi in enumerate_slice(base, n, compl_bound):
            ident = fmt(phi)
            connectives[ident] = n
            decode[ident] = phi
    return MappingProxyType(connectives), MappingProxyType(decode)


def minus_functor(h: Morphism, compl_bound: int, var_bound: int
                  ) -> tuple[StrictMorphism, SliceTruncation, SliceTruncation]:
    """Materialize the action of h on slices as a strict morphism.

    The target truncation is enlarged with the images so that the arity
    levels stay aligned (translation preserves variable sets).  A strict
    image keeps its formula's complexity, so for a strict h nothing is
    added, and this is the slice functor T on h: the Kleisli extension of
    h's lift, restricted to slices.
    """
    src = truncate_slices(h.source, compl_bound, var_bound)
    images = [flexible_extension(h, phi) for phi in src.decode.values()]
    texts = [fmt(image) for image in images]
    tgt = truncate_slices(h.target, compl_bound, var_bound, extra=dict(zip(texts, images)))
    mapping = dict(zip(src.decode, texts))
    # each image is a head of the target truncation, and translation keeps a
    # slice formula's variables, so the arities agree: no re-check
    return StrictMorphism._unchecked(src.signature, tgt.signature, mapping), src, tgt


t_on_strict = minus_functor


def unit(sig: Signature) -> tuple[StrictMorphism, SliceTruncation]:
    """Strict morphism into the truncated slice signature: c -> c(x0..)."""
    var_bound = max(sig.arities(), default=0)
    trunc = truncate_slices(sig, 1, var_bound)
    mapping = {c: fmt(phi) for c, phi in identity_morphism(sig).assignment.items()}
    return StrictMorphism(sig, trunc.signature, mapping, name="unit"), trunc


def counit(trunc: SliceTruncation) -> FlexibleMorphism:
    """Flexible morphism from the slice signature back to the base: decode."""
    return FlexibleMorphism(trunc.signature, trunc.base, dict(trunc.decode), name="counit")


def flatten(phi: Formula, decode: dict[str, Formula]) -> Formula:
    """Substitute decoded slice formulas for slice-signature connectives."""
    return extend(decode, phi, {})


def check_kleisli_theorem(pairs: list[tuple[FlexibleMorphism, FlexibleMorphism]],
                          seed: int | None = None) -> dict:
    """Compare Kleisli composition against unit/multiplication plumbing.

    For each composable pair (h1: A->B, h2: B->C) and each connective c of A,
    the direct composite assignment must equal the assignment obtained by
    rewriting h1(c) with the slice encodings of h2 and flattening.
    """
    failures = []
    for case, (h1, h2) in enumerate(pairs):
        composite = kleisli_compose(h2, h1)
        # strict extension of c -> fmt(h2(c)), landing in encoded slice heads
        encode = {c: App(fmt(phi), tuple(Var(i) for i in range(len(variables(phi)))))
                  for c, phi in h2.assignment.items()}
        decode = {fmt(phi): phi for phi in h2.assignment.values()}
        for c in h1.source.connectives:
            lhs = composite(c)
            rhs = flatten(extend(encode, h1(c), {}), decode)
            if lhs != rhs:
                failures.append({
                    "case": case,
                    "inputs": {"h1": h1.to_json(), "h2": h2.to_json(), "connective": c},
                    "lhs": fmt(lhs),
                    "rhs": fmt(rhs),
                })
    report = {"suite": "kleisli", "cases": len(pairs), "failures": failures}
    if seed is not None:
        report["seed"] = seed
    return report


def sharp(h: FlexibleMorphism) -> tuple[StrictMorphism, SliceTruncation]:
    """Present a flexible morphism as a strict morphism into slice formulas."""
    bound = max([complexity(phi) for phi in h.assignment.values()] or [1])
    var_bound = max(h.source.arities(), default=0)
    mapping = {c: fmt(phi) for c, phi in h.assignment.items()}
    trunc = truncate_slices(h.target, max(bound, 1), var_bound,
                            extra=dict(zip(mapping.values(), h.assignment.values())))
    return StrictMorphism(h.source, trunc.signature, mapping, name=f"{h.name}#"), trunc


def flat(f: StrictMorphism, trunc: SliceTruncation) -> FlexibleMorphism:
    """Inverse of sharp: decode slice heads back into an assignment."""
    assignment = {c: trunc.decode[f(c)] for c in f.source.connectives}
    return FlexibleMorphism(f.source, trunc.base, assignment, name=f"{f.name}b")


def suite_adjunction(cases: int, seed: int, compl_bound: int = 3) -> dict:
    """Sharp/flat round trips and both triangle identities, pointwise."""
    rng = random.Random(seed)
    failures = []
    done = 0
    while done < cases:
        sig = random_signature(rng, "s")
        tgt = random_signature(rng, "t")
        h = random_flexible(rng, sig, tgt, 2)
        if h is None:
            continue
        done += 1
        f_sharp, trunc = sharp(h)
        if flat(f_sharp, trunc) != h:
            failures.append({"case": done, "inputs": {"h": h.to_json()},
                             "lhs": "flat(sharp(h))", "rhs": "h"})
        # first triangle: counit after lifted unit is the identity
        eta, unit_trunc = unit(sig)
        composite = kleisli_compose(counit(unit_trunc), lift_strict(eta))
        if composite != kleisli_identity(sig):
            failures.append({"case": done, "inputs": {"signature": sig.to_json()},
                             "lhs": repr(composite), "rhs": "identity"})
        # second triangle: wrapping a slice formula through the unit of the
        # slice signature and flattening gives the formula back
        trunc3 = truncate_slices(sig, compl_bound, 2)
        for phi in trunc3.decode.values():
            n = len(variables(phi))
            wrapped = App(fmt(phi), tuple(Var(i) for i in range(n)))
            if flatten(wrapped, trunc3.decode) != phi:
                failures.append({"case": done, "inputs": {"formula": fmt(phi)},
                                 "lhs": fmt(flatten(wrapped, trunc3.decode)),
                                 "rhs": fmt(phi)})
                break
    return {"suite": "adjunction", "seed": seed, "cases": cases, "failures": failures}


def suite_regularity(cases: int, seed: int, compl_bound: int = 4) -> dict:
    """Syntactic regularity criterion against brute-force complexity checks."""
    rng = random.Random(seed)
    failures = []
    done = 0
    while done < cases:
        src = random_signature(rng, "r")
        tgt = random_signature(rng, "q")
        h = random_flexible(rng, src, tgt, 2)
        if h is None:
            continue
        done += 1
        regular, witness = is_regular(h)
        drop = None
        for n in range(3):
            for theta in enumerate_slice(src, n, compl_bound):
                image = flexible_extension(h, theta)
                if complexity(image) < complexity(theta):
                    drop = theta
                    break
            if drop is not None:
                break
        if regular and drop is not None:
            failures.append({"case": done, "inputs": {"h": h.to_json()},
                             "lhs": "regular", "rhs": f"drop at {fmt(drop)}"})
        if not regular:
            if witness is None or not (
                    complexity(flexible_extension(h, witness)) < complexity(witness)):
                failures.append({"case": done, "inputs": {"h": h.to_json()},
                                 "lhs": "witness", "rhs": "no complexity drop"})
    return {"suite": "regularity", "seed": seed, "cases": cases, "failures": failures}


# ---------------------------------------------------------------------------
# Directed colimits of signatures along a chain


def directed_colimit_signatures(chain: list[StrictMorphism]
                                ) -> tuple[Signature, list[StrictMorphism]]:
    """Colimit of a finite chain of strict morphisms, with its cocone.

    Connectives are identified when some chain map merges them; the vertex
    keeps one representative per class, named after the class member at the
    last stage.  The vertex is named after every stage, so two chains that
    end in one signature build two vertices of different names.
    """
    if not chain:
        raise InputError("empty chain")
    stages = [chain[0].source] + [f.target for f in chain]
    # push every connective to the final stage; classes are fibers of that map
    to_top: list[dict[str, str]] = []
    for i in range(len(stages)):
        mapping = {c: c for c in stages[i].connectives}
        for f in chain[i:]:
            mapping = {c: f(d) for c, d in mapping.items()}
        to_top.append(mapping)
    top = stages[-1]
    vertex = Signature("colim(" + ",".join(s.name for s in stages) + ")",
                       dict(top.connectives))
    cocone = [
        StrictMorphism(stages[i], vertex, dict(to_top[i]), name=f"{vertex.name}_stage{i}")
        for i in range(len(stages))
    ]
    return vertex, cocone


def slice_colimit_comparison(chain: list[StrictMorphism], n: int, compl_bound: int
                             ) -> dict:
    """Check that taking bounded slices commutes with the chain colimit.

    Classes of (stage, formula) pairs under pushing along the chain must map
    bijectively onto the bounded slice of the colimit signature.
    """
    vertex, cocone = directed_colimit_signatures(chain)
    stages = [chain[0].source] + [f.target for f in chain]
    classes: dict[str, list[tuple[int, Formula]]] = {}
    for i, sig in enumerate(stages):
        for phi in enumerate_slice(sig, n, compl_bound):
            image = strict_extension(cocone[i], phi)
            classes.setdefault(fmt(image), []).append((i, phi))
    vertex_slice = {fmt(phi) for phi in enumerate_slice(vertex, n, compl_bound)}
    injective_onto = set(classes) == vertex_slice
    return {
        "bijective": injective_onto,
        "classes": len(classes),
        "vertex_slice": len(vertex_slice),
        "missing": sorted(vertex_slice - set(classes)),
        "spurious": sorted(set(classes) - vertex_slice),
    }


# ---------------------------------------------------------------------------
# Seeded random generators for the law suites


def random_signature(rng: random.Random, name: str) -> Signature:
    """One to three connectives of arity at most two."""
    count = rng.randint(1, 3)
    connectives = {f"{name}{i}": rng.randint(0, 2) for i in range(count)}
    return Signature(name, connectives)


def random_formula_in_slice(rng: random.Random, sig: Signature, n: int,
                            max_compl: int) -> Formula | None:
    """A uniform draw from `enumerate_slice(sig, n, max_compl)`, or None when
    the slice is empty.

    The draw makes exactly one `rng.randrange(size)` call and takes the
    formula at that index of the slice in `enumerate_slice` order; the
    formula is unranked from counts, so no slice is built or kept.
    """
    size = slice_size(sig, n, max_compl)
    if not size:
        return None
    return slice_formula(sig, n, max_compl, rng.randrange(size))


def random_flexible(rng: random.Random, source: Signature, target: Signature,
                    max_compl: int) -> FlexibleMorphism | None:
    assignment = {}
    for c, arity in source.connectives.items():
        phi = random_formula_in_slice(rng, target, arity, max_compl)
        if phi is None:
            return None
        assignment[c] = phi
    return FlexibleMorphism(source, target, assignment)


def random_composable_pair(rng: random.Random, max_compl: int
                           ) -> tuple[FlexibleMorphism, FlexibleMorphism]:
    while True:
        a = random_signature(rng, "a")
        b = random_signature(rng, "b")
        c = random_signature(rng, "c")
        h1 = random_flexible(rng, a, b, max_compl)
        if h1 is None:
            continue
        h2 = random_flexible(rng, b, c, max_compl)
        if h2 is None:
            continue
        return h1, h2


def random_composable_triple(rng: random.Random, max_compl: int
                             ) -> tuple[FlexibleMorphism, FlexibleMorphism, FlexibleMorphism]:
    while True:
        h1, h2 = random_composable_pair(rng, max_compl)
        d = random_signature(rng, "d")
        h3 = random_flexible(rng, h2.target, d, max_compl)
        if h3 is not None:
            return h1, h2, h3


def _all_morphisms(make, source: Signature, target: Signature, candidates) -> list:
    """Every morphism `make` builds from one of `candidates(arity)` for each
    source connective, in the order of the sorted connectives."""
    items = sorted(source.connectives.items())
    pools = [candidates(arity) for _, arity in items]
    return [make(source, target, {c: image for (c, _), image in zip(items, combo)})
            for combo in itertools.product(*pools)]


def all_flexible_morphisms(source: Signature, target: Signature, max_compl: int
                           ) -> list[FlexibleMorphism]:
    """Every flexible morphism whose assignments stay within the bound."""
    # each image is drawn from the target's arity slice, so it is well formed
    # there with exactly the right variables: no re-check
    return _all_morphisms(FlexibleMorphism._unchecked, source, target,
                          lambda arity: enumerate_slice(target, arity, max_compl))


def all_strict_morphisms(source: Signature, target: Signature) -> list[StrictMorphism]:
    return _all_morphisms(StrictMorphism, source, target, target.level)


# ---------------------------------------------------------------------------
# Law suites (report dicts shared by tests and the CLI)


def suite_category_laws(cases: int, seed: int, max_compl: int = 3) -> dict:
    """Unit and associativity of Kleisli composition on random triples."""
    rng = random.Random(seed)
    failures = []
    for case in range(cases):
        h1, h2, h3 = random_composable_triple(rng, max_compl)
        ident_s = kleisli_identity(h1.source)
        ident_t = kleisli_identity(h1.target)
        if kleisli_compose(h1, ident_s) != h1 or kleisli_compose(ident_t, h1) != h1:
            failures.append({"case": case, "inputs": {"h1": h1.to_json()},
                             "lhs": "h1 . id", "rhs": "h1"})
        left = kleisli_compose(kleisli_compose(h3, h2), h1)
        right = kleisli_compose(h3, kleisli_compose(h2, h1))
        if left != right:
            failures.append({
                "case": case,
                "inputs": {"h1": h1.to_json(), "h2": h2.to_json(), "h3": h3.to_json()},
                "lhs": repr(left), "rhs": repr(right),
            })
    return {"suite": "category", "seed": seed, "cases": cases, "failures": failures}


def suite_kleisli_theorem(cases: int, seed: int, max_compl: int = 3) -> dict:
    rng = random.Random(seed)
    pairs = [random_composable_pair(rng, max_compl) for _ in range(cases)]
    report = check_kleisli_theorem(pairs, seed=seed)
    return report


def suite_monad_laws(cases: int, seed: int) -> dict:
    """Pointwise unit and associativity of flattening on sampled elements."""
    rng = random.Random(seed)
    failures = []
    bases = [
        Signature("m1", {"u": 1}),
        Signature("m2", {"b": 2}),
        Signature("m3", {"u": 1, "b": 2}),
        Signature("m4", {"e": 0, "b": 2}),
        Signature("m5", {"e": 0, "u": 1, "b": 2}),
    ]
    truncs = [truncate_slices(base, 2, 2) for base in bases]
    units = [unit(base)[0] for base in bases]
    done = 0
    while done < cases:
        k = rng.randrange(len(truncs))
        t1 = truncs[k]
        idents = sorted(t1.decode)
        phi = t1.decode[idents[rng.randrange(len(idents))]]
        done += 1
        n = len(variables(phi))
        # left unit: wrap phi as an application of its own encoding, flatten
        applied = App(fmt(phi), tuple(Var(i) for i in range(n)))
        left = flatten(applied, t1.decode)
        if left != phi:
            failures.append({"case": done, "inputs": {"formula": fmt(phi)},
                             "lhs": fmt(left), "rhs": fmt(phi)})
        # right unit: re-encode every base head c as the slice head c(x0..)
        right = flatten(strict_extension(units[k], phi), t1.decode)
        if right != phi:
            failures.append({"case": done, "inputs": {"formula": fmt(phi)},
                             "lhs": fmt(right), "rhs": fmt(phi)})
        # associativity: a two-level element whose heads encode slice formulas
        phi_outer = _sample_over_slices(rng, t1)
        t2_decode = {fmt(phi_outer): phi_outer}
        args: list[Formula] = []
        for i in range(len(variables(phi_outer))):
            if rng.random() < 0.5:
                inner = _sample_over_slices(rng, t1)
                t2_decode[fmt(inner)] = inner
                args.append(App(fmt(inner),
                                tuple(Var(j) for j in range(len(variables(inner))))))
            else:
                args.append(Var(i))
        psi = App(fmt(phi_outer), tuple(args))
        path_b = flatten(flatten(psi, t2_decode), t1.decode)
        # outer first: flatten each head down to the base, then substitute
        path_a = flatten(psi, {ident: flatten(over_t1, t1.decode)
                               for ident, over_t1 in t2_decode.items()})
        if path_a != path_b:
            failures.append({"case": done, "inputs": {"formula": fmt(psi)},
                             "lhs": fmt(path_a), "rhs": fmt(path_b)})
    return {"suite": "monad", "seed": seed, "cases": cases, "failures": failures}


def _sample_over_slices(rng: random.Random, t1: SliceTruncation) -> Formula:
    """A small formula whose heads are slice-signature connectives."""
    heads = sorted(t1.signature.connectives)
    outer = rng.choice(heads)
    arity = t1.signature.connectives[outer]
    args: list[Formula] = []
    next_var = 0
    for _ in range(arity):
        if rng.random() < 0.5:
            inner_pool = [h for h in heads if t1.signature.connectives[h] <= 1]
            if inner_pool:
                inner = rng.choice(inner_pool)
                in_arity = t1.signature.connectives[inner]
                inner_args = tuple(Var(next_var + i) for i in range(in_arity))
                next_var += in_arity
                args.append(App(inner, inner_args))
                continue
        args.append(Var(next_var))
        next_var += 1
    return App(outer, tuple(args))
