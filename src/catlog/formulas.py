"""Propositional formula trees, substitution, parsing, and bounded
enumeration, counting and unranking.

Formulas are built from variables x0, x1, ... and prefix applications of
named connectives.  The slice of all formulas whose variable set is exactly
{x0, ..., x_{n-1}} plays the role of an arity-n "derived connective" and is
the raw material for flexible signature morphisms.  A slice can be listed
(`enumerate_slice`), or counted and indexed without being built
(`slice_size`, `slice_formula`).

Formulas are hash-consed (Filliatre & Conchon, "Type-Safe Modular
Hash-Consing", 2006): `Var` and `App` look each new node up in a
module-level table, keyed by its index or by its connective and argument
tuple, so two equal formulas are the same object, and formulas compare and
hash by identity with `object`'s methods: no value hash is needed.
Translations and law checks rebuild the same subterms many times over;
interning turns each rebuild into a table lookup and stores each distinct
formula once.  The `App` table holds its nodes weakly, as in the paper, so
a formula that nothing else refers to is freed and leaves the table;
variables stay.  A live entry's key holds its arguments, so their
identities are not reused while the entry exists.

Proof search builds many formulas that are new and soon dropped, so a table
miss is made cheap: `App.__new__` builds the node in one pass, setting each
slot once with a plain store before the node is entered in the table, and
reads the new node's complexity and variable set off its arguments by
arity.  Once published, a node is immutable; only its cached `str` and
`sort_key` are filled in later, on first use.

Every morphism, composite and law check translates through `extend`, which
puts the translated arguments into its head's template with `substitute`.
Its memo is the morphism's own, except that equal composites share one
(`signatures.composite_memo`): hash-consed templates make a head
assignment an exact key, so a composite reached from many factor pairs
translates each formula once.  This hot path pays for each interpreter
frame: `extend` and `substitute` spell out arities 1 and 2 with no
per-node comprehension, and handle a variable argument or leaf in the
parent's frame instead of a recursive call.  Most template leaves are
variables, so most of `substitute`'s work is then a direct `sigma` call.
"""

from __future__ import annotations

import itertools
import re
import weakref
from functools import lru_cache


class InputError(ValueError):
    """Bad input: the CLI reports it and exits 3; any other exception is a bug."""


class ParseError(InputError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class StructuralError(InputError):
    """Raised when a formula does not fit a signature (arity/unknown head)."""


class Formula:
    """Immutable, hash-consed tree: equal formulas are identical objects.

    Each node stores its complexity and variable set when built, before
    any other code can see it, and its `str` and `sort_key` the first time
    they are asked for; setting an attribute raises.  Variable sets are
    shared: a unary node reuses its argument's set, a binary node the larger
    of its arguments' sets when one contains the other, and every other set
    comes from one table of interned frozensets.  No class defines its own
    equality or hash, so formulas compare and hash by identity: a set that
    holds formulas iterates in an order that follows memory layout and
    changes from process to process.  No engine leans on set order: proof
    search takes hypotheses by `sort_key`, G4ip reads its context in `fmt`
    order, saturation and partitions keep facts in dicts and name classes
    by `sort_key`, and answers are the same in every process.
    """

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError("formulas are immutable")


_VARS: dict[int, "Var"] = {}
_APPS: dict[str, dict[tuple, "_Entry"]] = {}
_VARSETS: dict[frozenset[int], frozenset[int]] = {}
_EMPTY_VARS: frozenset[int] = _VARSETS.setdefault(frozenset(), frozenset())
_init = object.__setattr__
_new = object.__new__


class Var(Formula):
    __slots__ = ("index", "_compl", "_vars", "_str", "_key")

    def __new__(cls, index: int):
        node = _VARS.get(index)
        if node is None:
            node = object.__new__(cls)
            _init(node, "index", index)
            _init(node, "_compl", 0)
            vs = frozenset((index,))
            _init(node, "_vars", _VARSETS.setdefault(vs, vs))
            _init(node, "_str", f"x{index}")
            _init(node, "_key", (0, 0, index, ()))
            _VARS[index] = node
        return node

    def __repr__(self):
        return f"Var({self.index})"

    def __str__(self):
        return self._str


class _Entry(weakref.ref):
    """Weak table entry for one App; it leaves its table when the App dies."""

    __slots__ = ("table", "args")


def _drop(entry: _Entry) -> None:
    if entry.table.get(entry.args) is entry:
        del entry.table[entry.args]


class App(Formula):
    """A connective applied to a tuple of arguments.

    `App(connective, args)` returns the live node of the table if there is
    one.  Otherwise it makes a `_Building`, whose slots take plain stores,
    sets every slot once, turns the node into an `App` and only then enters
    it in the table, so no other code sees a half-built node.
    """

    __slots__ = ("connective", "args", "_compl", "_vars", "_str", "_key", "__weakref__")

    def __new__(cls, connective: str, args: tuple[Formula, ...]):
        table = _APPS.get(connective)
        if table is None:
            table = _APPS[connective] = {}
        entry = table.get(args)
        if entry is not None:
            node = entry()
            if node is not None:
                return node
        node = _new(_Building)
        node.connective = connective
        node.args = args
        node._str = node._key = None
        arity = len(args)
        if arity == 1:
            a = args[0]
            node._compl = a._compl + 1
            node._vars = a._vars
        elif arity == 2:
            a, b = args
            node._compl = a._compl + b._compl + 1
            va, vb = a._vars, b._vars
            if vb <= va:
                node._vars = va
            elif va <= vb:
                node._vars = vb
            else:
                vs = va | vb
                node._vars = _VARSETS.setdefault(vs, vs)
        elif arity == 0:
            node._compl = 1
            node._vars = _EMPTY_VARS
        else:
            node._compl = 1 + sum(a._compl for a in args)
            vs = args[0]._vars.union(*[a._vars for a in args[1:]])
            node._vars = _VARSETS.setdefault(vs, vs)
        node.__class__ = App
        entry = _Entry(node, _drop)
        entry.table = table
        entry.args = args
        table[args] = entry
        return node

    def __repr__(self):
        return f"App({self.connective!r}, {self.args!r})"

    def __str__(self):
        text = self._str
        if text is None:
            text = _text(self)
            _init(self, "_str", text)
        return text


class _Building(App):
    """An App under construction, with plain slot stores; `App.__new__`
    makes it an App before any other code can see it."""

    __slots__ = ()
    __setattr__ = object.__setattr__


def _text(phi: Formula) -> str:
    """Printed form of phi, reusing cached texts but caching none below phi."""
    text = phi._str
    if text is None:
        text = phi.connective
        if phi.args:
            text = f"{text}({', '.join(map(_text, phi.args))})"
    return text


def var(index: int) -> Var:
    return Var(index)


def app(connective: str, *args: Formula) -> App:
    return App(connective, tuple(args))


def complexity(phi: Formula) -> int:
    """Number of connective occurrences in phi."""
    return phi._compl


def variables(phi: Formula) -> frozenset[int]:
    """Set of variable indices occurring in phi."""
    return phi._vars


def sort_key(phi: Formula):
    """Canonical order: complexity first, then head/argument lexicographic."""
    key = phi._key
    if key is None:
        key = (phi._compl, 1, phi.connective, tuple(sort_key(a) for a in phi.args))
        _init(phi, "_key", key)
    return key


# ---------------------------------------------------------------------------
# Substitution


class Substitution:
    """Finite map from variable indices to formulas, identity elsewhere.

    The substitution keeps the dict it is given as its map, without a copy:
    the caller hands it over and does not change it after.
    """

    def __init__(self, mapping: dict[int, Formula] | None = None):
        self.mapping = {} if mapping is None else mapping

    def __call__(self, index: int) -> Formula:
        phi = self.mapping.get(index)
        return Var(index) if phi is None else phi

    def __repr__(self):
        inner = ", ".join(f"x{k} -> {v}" for k, v in sorted(self.mapping.items()))
        return f"Substitution({inner})"

    def to_json(self) -> dict:
        return {f"x{k}": str(v) for k, v in sorted(self.mapping.items()) if v != Var(k)}


def substitute(sigma: Substitution, phi: Formula) -> Formula:
    """Homomorphic extension of sigma applied to phi.

    `sigma` may be any callable from variable indices to formulas.
    """
    if type(phi) is Var:
        return sigma(phi.index)
    args = phi.args
    arity = len(args)
    if arity == 1:
        a = args[0]
        return App(phi.connective, (
            sigma(a.index) if type(a) is Var else substitute(sigma, a),))
    if arity == 2:
        a, b = args
        return App(phi.connective, (
            sigma(a.index) if type(a) is Var else substitute(sigma, a),
            sigma(b.index) if type(b) is Var else substitute(sigma, b)))
    return App(phi.connective, tuple([substitute(sigma, a) for a in args]))


def extend(heads: dict[str, Formula], phi: Formula, memo: dict[Formula, Formula]
           ) -> Formula:
    """Homomorphic extension of a head assignment applied to phi.

    Each connective c is sent to the template `heads[c]`, a slice formula:
    phi's arguments are translated, then put for x0..x_{n-1} in the template
    of phi's head.  Variables are fixed.  Strict morphisms, flexible
    morphisms, flattening and chain stages all translate through here.

    `memo` keeps the image of every node translated so far.  A node is
    checked when first translated: an unknown head, or an argument count
    other than the template's number of variables, raises StructuralError
    with `check_formula`'s messages.
    """
    if type(phi) is Var:
        return phi
    image = memo.get(phi)
    if image is None:
        template = heads.get(phi.connective)
        arity = None if template is None else len(template._vars)
        args = phi.args
        if arity != len(args):
            raise _head_error(phi, arity)
        if arity == 1:
            a = args[0]
            args = (a if type(a) is Var else extend(heads, a, memo),)
        elif arity == 2:
            a, b = args
            args = (a if type(a) is Var else extend(heads, a, memo),
                    b if type(b) is Var else extend(heads, b, memo))
        elif arity:
            args = [extend(heads, a, memo) for a in args]
        image = memo[phi] = substitute(args.__getitem__, template)
    return image


def compose_substitutions(sigma2: Substitution, sigma1: Substitution) -> Substitution:
    """Substitution acting as: first sigma1, then sigma2."""
    support = set(sigma1.mapping) | set(sigma2.mapping)
    return Substitution({i: substitute(sigma2, sigma1(i)) for i in support})


def match(pattern: Formula, concrete: Formula,
          binding: dict[int, Formula] | None = None) -> Substitution | None:
    """One-sided match: a substitution s with substitute(s, pattern) == concrete.

    Every variable of `pattern` may be bound.  `binding` gains its keys in
    the order the variables first occur in `pattern`, and becomes the map of
    the substitution returned.
    """
    binding = {} if binding is None else binding
    if _match(pattern, concrete, binding):
        return Substitution(binding)
    return None


def _match(p: Formula, c: Formula, binding: dict[int, Formula]) -> bool:
    """`match`'s walk: depth first, arguments left to right."""
    if type(p) is Var:
        return binding.setdefault(p.index, c) is c
    if type(c) is not App or c.connective != p.connective or len(c.args) != len(p.args):
        return False
    for pa, ca in zip(p.args, c.args):
        if not _match(pa, ca, binding):
            return False
    return True


# ---------------------------------------------------------------------------
# Parsing and printing

# The deepest connective nesting `parse` accepts: formula code recurses per level
MAX_DEPTH = 256

# a token, or any other character as `bad`, after the whitespace before it
_TOKEN = re.compile(r"\s*(?:(?P<var>x[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)"
                    r"|(?P<punct>[(),])|(?P<bad>\S))")


def tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start())
        tokens.append((kind, m.group(kind), m.start(kind)))
    return tokens


def parse(text: str, sig=None) -> Formula:
    """Parse prefix formula text; validate arities against sig when given."""
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty formula", 0)
    result, pos = _parse_at(tokens, 0, text, sig)
    if pos != len(tokens):
        raise ParseError(f"trailing input {tokens[pos][1]!r}", tokens[pos][2])
    return result


def _parse_at(tokens: list[tuple[str, str, int]], pos: int, text: str, sig,
              depth: int = 0) -> tuple[Formula, int]:
    """The formula at tokens[pos], in `depth` argument lists, and the position after it."""
    if pos == len(tokens):
        raise ParseError("unexpected end of input", len(text))
    kind, value, at = tokens[pos]
    pos += 1
    if kind == "var":
        return Var(int(value[1:])), pos
    if kind != "ident":
        raise ParseError(f"expected a formula, found {value!r}", at)
    args: list[Formula] = []
    if pos < len(tokens) and tokens[pos][:2] == ("punct", "("):
        if depth == MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH}", at)
        while True:
            arg, pos = _parse_at(tokens, pos + 1, text, sig, depth + 1)  # past "(" or ","
            args.append(arg)
            if pos == len(tokens):
                raise ParseError("unterminated argument list", len(text))
            _, sep, sep_at = tokens[pos]
            if sep == ")":
                pos += 1
                break
            if sep != ",":
                raise ParseError(f"expected ',' or ')', found {sep!r}", sep_at)
    node = App(value, tuple(args))
    if sig is not None:
        arity = sig.connectives.get(value)
        if arity is None:
            raise ParseError(f"unknown connective {value!r}", at)
        if arity != len(args):
            raise ParseError(
                f"connective {value!r} expects {arity} argument(s), got {len(args)}", at)
    return node, pos


def fmt(phi: Formula) -> str:
    return str(phi)


def json_value(value):
    """A value as JSON: objects write their own JSON, a formula its text,
    tuples and lists become lists, and dict keys become strings."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, Formula):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [json_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): json_value(v) for k, v in value.items()}
    return value


def check_formula(sig, phi: Formula) -> None:
    """Raise StructuralError unless phi is well-formed over sig.  Variable
    indices must be at least 0: the prover's schematic variables are the
    negative ones (`consequence._Skeletons`)."""
    if isinstance(phi, Var):
        if phi.index < 0:
            raise StructuralError(f"variable index {phi.index} is negative")
        return
    arity = sig.connectives.get(phi.connective)
    if arity != len(phi.args):
        raise _head_error(phi, arity)
    for a in phi.args:
        check_formula(sig, a)


def _head_error(phi: App, arity: int | None) -> StructuralError:
    """The error for a node whose head is unknown (arity None) or misapplied."""
    if arity is None:
        return StructuralError(f"unknown connective {phi.connective!r} in {phi}")
    return StructuralError(
        f"connective {phi.connective!r} has arity {arity}, applied to {len(phi.args)} in {phi}")


# ---------------------------------------------------------------------------
# Bounded enumeration of formulas and slices
#
# Enumerations list formulas in `sort_key` order: by complexity, then by head
# name, then by arguments compared left to right as (c1, a1, c2, a2, ...),
# each argument by its complexity first and then by its own place in this
# order; variables, the formulas of complexity 0, by index.
#
# `slice_size` and `slice_formula` count and unrank a slice in this order
# without building it (the recursive method: Nijenhuis & Wilf, "Combinatorial
# Algorithms", 1978).  Unranking skips whole blocks of the order, and to do
# so it must count each block.  A slice asks for an exact variable set, which
# no single argument decides: it depends on the union of the arguments' sets.
# So formulas are counted by complexity and by variable-set bitmask.  The
# number of ways to finish a head's argument list after a prefix then depends
# only on the prefix's mask, so each block is a weighted sum over masks, and
# a weight vector over masks carries the constraint down into the arguments.


@lru_cache(maxsize=4096)
def _enumerate_cached(sig, n: int, max_compl: int) -> tuple[Formula, ...]:
    by_level: list[list[Formula]] = [[Var(i) for i in range(n)]]
    for level in range(1, max_compl + 1):
        layer: list[Formula] = []
        for c, arity in sorted(sig.connectives.items()):
            if arity == 0:
                if level == 1:
                    layer.append(App(c, ()))
                continue
            for split in _compositions(level - 1, arity):
                for combo in itertools.product(*[by_level[s] for s in split]):
                    layer.append(App(c, combo))
        by_level.append(layer)
    out = [phi for level in by_level for phi in level]
    out.sort(key=sort_key)
    return tuple(out)


def enumerate_formulas(sig, n: int, max_compl: int) -> list[Formula]:
    """All formulas with variables among {x0..x_{n-1}} and complexity <= max_compl."""
    return list(_enumerate_cached(sig, n, max_compl))


@lru_cache(maxsize=4096)
def _slice_cached(sig, n: int, max_compl: int) -> tuple[Formula, ...]:
    target = frozenset(range(n))
    return tuple(phi for phi in _enumerate_cached(sig, n, max_compl)
                 if variables(phi) == target)


def enumerate_slice(sig, n: int, max_compl: int) -> list[Formula]:
    """Formulas whose variable set is exactly {x0..x_{n-1}}, complexity <= max_compl.

    A fresh list of the cached slice, like `enumerate_formulas`: callers and
    tests compare the result with lists, and the copy keeps the cache safe
    from a caller that changes its list.
    """
    return list(_slice_cached(sig, n, max_compl))


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """The ways to write total as an ordered sum of `parts` non-negative parts."""
    return [split for split in itertools.product(range(total + 1), repeat=parts)
            if sum(split) == total]


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _or_product(a: list[int], b: list[int]) -> list[int]:
    """Counts of pairs by the union of their masks, from counts by mask."""
    out = [0] * len(a)
    for m1, x in enumerate(a):
        if x:
            for m2, y in enumerate(b):
                if y:
                    out[m1 | m2] += x * y
    return out


class _SliceCounts:
    """Formula counts for one shape: the arities of a signature's connectives
    in name order, and n variables.  Counts grow to higher complexities on
    demand and do not depend on the connectives' names.

    `level[c][m]` counts the formulas of complexity c whose variable set is
    the bitmask m; `_tuples[j][r][m]` counts the j-tuples of formulas whose
    complexities add up to r and whose variable sets have union m.  A weight
    vector gives each mask a weight: a formula of mask m counts weight[m]
    times.  The slice's own weight, `target`, is 1 on the full mask.
    """

    def __init__(self, arities: tuple[int, ...], n: int):
        self.arities = arities
        self.n = n
        self.masks = 1 << n
        self.full = self.masks - 1
        self.target = tuple(int(m == self.full) for m in range(self.masks))
        first = [0] * self.masks
        for i in range(n):
            first[1 << i] = 1
        self.level = [first]
        empty = [1] + [0] * self.full
        self._tuples = [[empty]] + [[] for _ in range(max(arities, default=0))]
        self._heads: dict = {}
        self._branches: dict = {}

    def upto(self, compl: int) -> list[list[int]]:
        """`level`, grown to at least complexity `compl`."""
        while len(self.level) <= compl:
            c = len(self.level)
            counts = [0] * self.masks
            for k in self.arities:
                if k:
                    counts = [x + y for x, y in zip(counts, self.tuples(k, c - 1))]
                elif c == 1:
                    counts[0] += 1
            self.level.append(counts)
        return self.level

    def tuples(self, j: int, rest: int) -> list[int]:
        """`_tuples[j][rest]`, grown as needed."""
        row = self._tuples[j]
        while len(row) <= rest:
            r = len(row)
            counts = [0] * self.masks
            if j:
                level = self.upto(r)
                for c in range(r + 1):
                    part = _or_product(level[c], self.tuples(j - 1, r - c))
                    counts = [x + y for x, y in zip(counts, part)]
            row.append(counts)
        return row[rest]

    def sizes(self, max_compl: int) -> list[int]:
        """The slice's number of formulas at each complexity up to `max_compl`."""
        return [level[self.full] for level in self.upto(max_compl)[:max_compl + 1]]

    def heads(self, compl: int, weight: tuple[int, ...]) -> list[tuple[int, int]]:
        """(position, weighted count) of each head with formulas of
        complexity `compl` >= 1, in name order."""
        key = (compl, weight)
        found = self._heads.get(key)
        if found is None:
            found = self._heads[key] = [
                (pos, _dot(self.tuples(k, compl - 1), weight) if k else weight[0])
                for pos, k in enumerate(self.arities) if k or compl == 1]
        return found

    def branches(self, j: int, rest: int, mask: int, weight: tuple[int, ...]) -> list:
        """The choices for the next argument of a head, where `j` arguments
        follow it, the arguments left add up to complexity `rest`, and those
        before it have the variable mask `mask`: (complexity, weighted count,
        weight by the argument's own mask) for each complexity it can take."""
        key = (j, rest, mask, weight)
        found = self._branches.get(key)
        if found is None:
            found = []
            level = self.upto(rest)
            for c in range(rest + 1):
                after = self.tuples(j, rest - c)
                inner = tuple(sum(x * weight[mask | m | m2] for m2, x in enumerate(after))
                              for m in range(self.masks))
                found.append((c, _dot(level[c], inner), inner))
            self._branches[key] = found
        return found

    def unrank(self, names: list[str], compl: int, weight: tuple[int, ...], index: int
               ) -> tuple[Formula, int, int]:
        """The formula at `index` among those of complexity `compl` in
        `sort_key` order, each counted by its weight; with its mask and
        `index`'s offset into the formula's weight."""
        if compl == 0:
            for i in range(self.n):
                w = weight[1 << i]
                if index < w:
                    return Var(i), 1 << i, index
                index -= w
        for pos, count in self.heads(compl, weight):
            if index >= count:
                index -= count
                continue
            args: list[Formula] = []
            mask, rest = 0, compl - 1
            for j in range(self.arities[pos] - 1, -1, -1):
                for c, size, inner in self.branches(j, rest, mask, weight):
                    if index < size:
                        break
                    index -= size
                arg, arg_mask, index = self.unrank(names, c, inner, index)
                args.append(arg)
                mask |= arg_mask
                rest -= c
            return App(names[pos], tuple(args)), mask, index


@lru_cache(maxsize=1024)
def _slice_counts(arities: tuple[int, ...], n: int) -> _SliceCounts:
    return _SliceCounts(arities, n)


def _counts_for(sig, n: int) -> tuple[list[str], _SliceCounts]:
    names = sorted(sig.connectives)
    return names, _slice_counts(tuple(map(sig.connectives.__getitem__, names)), n)


def slice_size(sig, n: int, max_compl: int) -> int:
    """`len(enumerate_slice(sig, n, max_compl))`, counted without building it."""
    return sum(_counts_for(sig, n)[1].sizes(max_compl))


def slice_formula(sig, n: int, max_compl: int, index: int) -> Formula:
    """`enumerate_slice(sig, n, max_compl)[index]` for 0 <= index < the
    slice's size, built without building the slice."""
    names, counts = _counts_for(sig, n)
    if index >= 0:
        for compl, size in enumerate(counts.sizes(max_compl)):
            if index < size:
                return counts.unrank(names, compl, counts.target, index)[0]
            index -= size
    raise InputError(f"slice index out of range for {n} variables, complexity <= {max_compl}")
