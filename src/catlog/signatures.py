"""Signatures, strict (arity-preserving) morphisms and their (co)limits.

A signature is a finite map from connective names to arities.  Strict
morphisms send connectives to same-arity connectives; their extension to
formula trees replaces heads and fixes variables.  `Morphism` holds what
strict and flexible morphisms (`kleisli`) share.  Coproducts, products and
pushouts are computed levelwise on arities.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .formulas import App, Formula, InputError, Var, extend


class UnsupportedConstruction(InputError):
    """Construction needs infinite support (e.g. a terminal signature)."""


class Signature:
    """Finite family of connectives with arities; immutable after creation."""

    def __init__(self, name: str, connectives: dict[str, int]):
        for ident, arity in connectives.items():
            if not ident:
                raise InputError("empty connective identifier")
            if arity < 0:
                raise InputError(f"negative arity for {ident!r}")
        self.name = name
        self.connectives = dict(connectives)

    def level(self, n: int) -> list[str]:
        return sorted(c for c, a in self.connectives.items() if a == n)

    def arities(self) -> set[int]:
        return set(self.connectives.values())

    def __eq__(self, other):
        if not isinstance(other, Signature):
            return NotImplemented
        return self.connectives == other.connectives

    def __hash__(self):
        return hash(frozenset(self.connectives.items()))

    def __repr__(self):
        inner = ", ".join(f"{c}/{a}" for c, a in sorted(self.connectives.items()))
        return f"Signature({self.name!r}: {inner})"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "connectives": [
                {"id": c, "arity": a} for c, a in sorted(self.connectives.items())
            ],
        }


class Morphism:
    """A signature morphism: an image for each source connective.

    The images are connectives for a strict morphism and slice formulas for
    a flexible one.  Either kind acts on formulas by `extension`, which puts
    each head's template (`assignment`) in place of the head.  `_memo` maps
    each formula already translated to its image and is made on the first
    `extension`.  A morphism's memo is its own and lives and dies with it,
    except a composite's (`_composite`): equal composites share one memo
    from `composite_memo`.  The memo takes no part in equality or hashing.
    """

    kind = ""
    _shares_memo = False

    def __init__(self, source: Signature, target: Signature, images: dict,
                 name: str = ""):
        self.source = source
        self.target = target
        self.images = {c: images[c] for c in source.connectives}
        self.name = name

    @classmethod
    def _unchecked(cls, source: Signature, target: Signature, images: dict):
        """Build without checking images known to be well formed."""
        morphism = cls.__new__(cls)
        Morphism.__init__(morphism, source, target, images)
        return morphism

    @classmethod
    def _composite(cls, source: Signature, target: Signature, images: dict):
        """`_unchecked`, for a composite: it translates through the memo
        that every composite with its head assignment shares."""
        morphism = cls._unchecked(source, target, images)
        morphism._shares_memo = True
        return morphism

    @cached_property
    def _memo(self) -> dict[Formula, Formula]:
        return composite_memo(self.assignment) if self._shares_memo else {}

    def __call__(self, connective: str):
        return self.images[connective]

    def extension(self, phi: Formula) -> Formula:
        """Apply the morphism to every connective occurrence of phi;
        variables are fixed.

        Raises StructuralError unless phi is well-formed over the source.
        """
        return extend(self.assignment, phi, self._memo)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.images == other.images)

    def __hash__(self):
        return hash((self.source, self.target, frozenset(self.images.items())))

    def __repr__(self):
        inner = ", ".join(f"{c} -> {d}" for c, d in sorted(self.images.items()))
        return f"{type(self).__name__}({inner})"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "source": self.source.name,
            "target": self.target.name,
            "map": {c: str(d) for c, d in sorted(self.images.items())},
        }


class StrictMorphism(Morphism):
    """Connective map preserving arities between two signatures."""

    kind = "strict"

    def __init__(self, source: Signature, target: Signature, mapping: dict[str, str],
                 name: str = ""):
        for c, arity in source.connectives.items():
            image = mapping.get(c)
            if image is None:
                raise InputError(f"morphism misses source connective {c!r}")
            if image not in target.connectives:
                raise InputError(f"image {image!r} of {c!r} not in target signature")
            if target.connectives[image] != arity:
                raise InputError(
                    f"arity mismatch: {c!r}/{arity} mapped to "
                    f"{image!r}/{target.connectives[image]}")
        super().__init__(source, target, mapping, name)

    @property
    def mapping(self) -> dict[str, str]:
        """The connective map c -> f(c)."""
        return self.images

    @cached_property
    def assignment(self) -> dict[str, Formula]:
        """The flexible view c -> f(c)(x0..x_{n-1}), built on first use.

        Slice truncations give strict morphisms thousands of connectives
        that are never extended along, so the templates are not built
        eagerly.
        """
        return {c: App(d, tuple(Var(i) for i in range(self.source.connectives[c])))
                for c, d in self.images.items()}


def identity_morphism(sig: Signature) -> StrictMorphism:
    return StrictMorphism(sig, sig, {c: c for c in sig.connectives}, name=f"id_{sig.name}")


def compose_strict(g: StrictMorphism, f: StrictMorphism) -> StrictMorphism:
    """g after f.  The composite translates through the memo shared by every
    composite with its head assignment (`composite_memo`), which is exact
    because an extension depends on the assignment alone."""
    if f.target != g.source:
        raise InputError("strict morphisms not composable")
    # g(f(c)) is a connective of g's target with f(c)'s arity, which is c's:
    # no re-check
    return StrictMorphism._composite(f.source, g.target,
                                     {c: g(f(c)) for c in f.source.connectives})


# Most memos that `composite_memo` hands out; a request for a new one when
# the table holds this many empties it first.  The associativity sweep of
# the benchmark's `laws` workload builds 136 distinct composites.
_COMPOSITE_MEMOS = 256
_composite_memos: dict[frozenset, dict[Formula, Formula]] = {}


def composite_memo(assignment: dict[str, Formula]) -> dict[Formula, Formula]:
    """The extension memo shared by every composite with this head
    assignment.

    Sharing is exact: `extend` reads nothing of a morphism but its head
    assignment, and equal assignments have the same heads and arities, so
    a memo warmed by one composite holds only formulas checked under the
    other's heads.  Templates are hash-consed, so the key compares them by
    identity.
    """
    key = frozenset(assignment.items())
    memo = _composite_memos.get(key)
    if memo is None:
        if len(_composite_memos) >= _COMPOSITE_MEMOS:
            _composite_memos.clear()
        memo = _composite_memos[key] = {}
    return memo


strict_extension = Morphism.extension


# ---------------------------------------------------------------------------
# Levelwise (co)limits


def _tag(ident: str, index: int) -> str:
    return f"{ident}_{index}"


def signature_coproduct(summands: list[Signature], name: str = ""
                        ) -> tuple[Signature, list[StrictMorphism]]:
    """Disjoint union; connectives are tagged by summand index."""
    connectives: dict[str, int] = {}
    maps: list[dict[str, str]] = []
    for i, sig in enumerate(summands):
        maps.append({c: _tag(c, i) for c in sig.connectives})
        for c, arity in sig.connectives.items():
            connectives[_tag(c, i)] = arity
    result = Signature(name or "+".join(s.name for s in summands) or "empty", connectives)
    injections = [StrictMorphism(sig, result, maps[i], name=f"{result.name}_in{i}")
                  for i, sig in enumerate(summands)]
    return result, injections


def coproduct_mediator(injections: list[StrictMorphism],
                       cocone: list[StrictMorphism]) -> StrictMorphism:
    """Case-split map out of a coproduct agreeing with a strict cocone."""
    if not cocone:
        raise InputError("empty cocone")
    target = cocone[0].target
    if any(leg.target != target for leg in cocone):
        raise InputError("cocone legs disagree on target")
    coproduct = injections[0].target
    mapping: dict[str, str] = {}
    for inj, leg in zip(injections, cocone):
        if inj.source != leg.source:
            raise InputError("cocone leg does not match injection source")
        for c in inj.source.connectives:
            mapping[inj(c)] = leg(c)
    return StrictMorphism(coproduct, target, mapping, name="mediator")


def signature_product(factors: list[Signature]) -> tuple[Signature, list[StrictMorphism]]:
    """Levelwise cartesian product; a connective is a tuple of same-arity ones.

    The tuple (c1, ..., ck) is named c1__...__ck.  Raises InputError when
    two tuples get the same name, which would merge two connectives.
    """
    if not factors:
        raise UnsupportedConstruction(
            "empty product is the terminal signature, which has infinite support")
    arities = set().union(*[sig.arities() for sig in factors])
    connectives: dict[str, int] = {}
    components: dict[str, tuple[str, ...]] = {}
    for arity in sorted(arities):
        pools = [sig.level(arity) for sig in factors]
        if any(not pool for pool in pools):
            continue
        for combo in itertools.product(*pools):
            ident = "__".join(combo)
            if ident in components:
                raise InputError(f"product connectives {components[ident]} and {combo} "
                                 f"would both be named {ident!r}")
            connectives[ident] = arity
            components[ident] = combo
    result = Signature("x".join(s.name for s in factors), connectives)
    projections = [StrictMorphism(result, sig,
                                  {ident: components[ident][i] for ident in connectives},
                                  name=f"{result.name}_proj{i}")
                   for i, sig in enumerate(factors)]
    return result, projections


def product_pairing(projections: list[StrictMorphism],
                    cone: list[StrictMorphism]) -> StrictMorphism:
    """Tupling map into a product agreeing with a strict cone."""
    if not cone:
        raise InputError("empty cone")
    source = cone[0].source
    if any(leg.source != source for leg in cone):
        raise InputError("cone legs disagree on source")
    product = projections[0].source
    reverse = {tuple(pi(ident) for pi in projections): ident for ident in product.connectives}
    mapping = {}
    for c in source.connectives:
        images = tuple(leg(c) for leg in cone)
        if images not in reverse:
            raise InputError(f"no product connective for images {images}")
        mapping[c] = reverse[images]
    return StrictMorphism(source, product, mapping, name="pairing")


class Partition:
    """Union-find over a fixed member set.  Each class is named by its least
    member under `key`, so the names do not depend on the order of unions."""

    def __init__(self, members, key=None):
        self.parent = {m: m for m in members}
        self.key = key

    def find(self, x):
        """The name of x's class."""
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> bool:
        """Merge the classes of a and b; whether they were apart."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        least, other = sorted((ra, rb), key=self.key)
        self.parent[other] = least
        return True


def signature_pushout(f: StrictMorphism, g: StrictMorphism
                      ) -> tuple[Signature, StrictMorphism, StrictMorphism]:
    """Coproduct of the targets with f(c) and g(c) glued, for shared source c."""
    if f.source != g.source:
        raise InputError("pushout legs must share their source")
    left, right = f.target, g.target
    tagged: dict[str, int] = {}
    for i, sig in enumerate((left, right)):
        for c, arity in sig.connectives.items():
            tagged[_tag(c, i)] = arity
    classes = Partition(tagged)
    for c in f.source.connectives:
        classes.union(_tag(f(c), 0), _tag(g(c), 1))

    connectives = {}
    for t, arity in tagged.items():
        connectives.setdefault(classes.find(t), arity)
    result = Signature(f"{left.name}+[{f.source.name}]+{right.name}", connectives)
    left_map = StrictMorphism(left, result,
                              {c: classes.find(_tag(c, 0)) for c in left.connectives},
                              name=f"{result.name}_po_left")
    right_map = StrictMorphism(right, result,
                               {c: classes.find(_tag(c, 1)) for c in right.connectives},
                               name=f"{result.name}_po_right")
    return result, left_map, right_map
