"""Implication decided by G4ip, its proofs compiled to K, S and modus ponens.

`Calculus.implication` finds, once per calculus, a binary connective for
which the calculus has K and S up to renaming and modus ponens, and
`derives` asks its `decide` before proof search.  G4ip, Dyckhoff's
contraction-free sequent calculus ("Contraction-free sequent calculi for
intuitionistic logic", JSL 57, 1992), decides the sequent over that
connective, every other formula an atom; that is sound because no axiom or
rule of K, S and modus ponens looks inside such a formula.  Bracket
abstraction turns G4ip's λ-term into S and K combinators (Hindley & Seldin,
*Lambda-Calculus and Combinators*, 2008, ch. 2), and `ProofWriter` writes
them as axiom instances and modus ponens steps.

`consequence` imports this module on first use, so that start-up (the
package import and a spec parse) does not compile it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .consequence import (
    AxiomInstance, Budget, Calculus, Hypothesis, Proof, ProofWriter, Rule,
    RuleInstance, Verdict,
)
from .formulas import App, Formula, Substitution, Var, fmt, match

_NOT_DERIVABLE = "G4ip: not derivable from K, S and modus ponens; no countermodel certificate"


@dataclass(frozen=True)
class Implication:
    """K, S and modus ponens for one binary connective of a calculus: the
    index of each with the variables it puts for x0, x1, ... of `_schemes`;
    which premise of modus ponens is the minor one; whether the calculus
    has nothing else."""

    connective: str
    k: tuple[int, tuple[int, ...]]
    s: tuple[int, tuple[int, ...]]
    mp: tuple[int, tuple[int, ...]]
    minor: int
    pure: bool

    def decide(self, gamma, phi: Formula, budget: Budget) -> Verdict | None:
        """The G4ip step of `derives`: yes with the compiled proof when it
        fits `budget.proof_length`; unknown when G4ip fails and the calculus
        has nothing else, for then the sequent is not derivable (but no
        countermodel is built to certify that); else None, and proof search
        goes on."""
        proof = self.proof(gamma, phi)
        if proof is None:
            return Verdict.unknown(reason=_NOT_DERIVABLE) if self.pure else None
        if len(proof) <= budget.proof_length:
            return Verdict.yes(proof=proof, used=proof.used_hypotheses())
        return None

    def proof(self, gamma, phi: Formula) -> Proof | None:
        """G4ip's proof of gamma |- phi from K, S and modus ponens, whatever
        its length; None when there is none."""
        term = _G4ip(self).prove({h: (h, "hyp") for h in gamma}, phi)
        return None if term is None else self._written(term)

    def imp(self, a: Formula, b: Formula) -> Formula:
        return App(self.connective, (a, b))

    def _written(self, term: tuple) -> Proof:
        """A λ-term of `_G4ip` as S and K combinators, written through
        `ProofWriter`.  A combinator may have an argument of its own
        formula, which leaves the steps after that argument's unused; a
        second writer keeps only the steps the last one rests on."""
        first = ProofWriter()
        first.derivation(self._combinators(term), self._why)
        steps = first.steps

        def why(i: int):
            j = steps[i].justification
            return steps[i].formula, j, j.premises if isinstance(j, RuleInstance) else ()

        kept = ProofWriter()
        kept.derivation(first.index[term[0]], why)
        return kept.proof()

    def _combinators(self, term: tuple) -> tuple:
        if term[1] == "lam":
            return self._abstract(term[2], term[0].args[0], self._combinators(term[3]))
        if term[1] == "app":
            return _apply(self._combinators(term[2]), self._combinators(term[3]))
        return term

    def _abstract(self, n: int, a: Formula, m: tuple) -> tuple:
        """[x_n : a] m: the K rule, η, and I = S K K."""
        if not _free_in(n, m):
            return _apply(self._k(m[0], a), m)
        if m[1] == "var":
            aa = self.imp(a, a)
            return _apply(_apply(self._s(a, aa, a), self._k(a, aa)), self._k(a, a))
        _, _, p, q = m
        if q[1] == "var" and not _free_in(n, p):
            return p
        return _apply(_apply(self._s(a, q[0], m[0]), self._abstract(n, a, p)),
                      self._abstract(n, a, q))

    def _k(self, a: Formula, b: Formula) -> tuple:
        """K at a, b: a→(b→a)."""
        return (self.imp(a, self.imp(b, a)), "K", (a, b))

    def _s(self, a: Formula, b: Formula, d: Formula) -> tuple:
        """S at a, b, d: (a→(b→d))→((a→b)→(a→d))."""
        imp = self.imp
        return (imp(imp(a, imp(b, d)), imp(imp(a, b), imp(a, d))), "S", (a, b, d))

    def _why(self, node: tuple):
        """A combinator's formula, justification and premises: a hypothesis,
        a K or S instance, or modus ponens from argument and function."""
        formula, kind = node[0], node[1]
        if kind == "hyp":
            return formula, Hypothesis(), ()
        if kind in ("K", "S"):
            index, roles = self.k if kind == "K" else self.s
            return formula, AxiomInstance(index, Substitution(dict(zip(roles, node[2])))), ()
        _, _, function, argument = node
        index, (a, b) = self.mp
        sigma = Substitution({a: argument[0], b: formula})
        premises = (argument, function) if self.minor == 0 else (function, argument)
        return formula, RuleInstance(index, sigma, ()), premises


def find_implication(calculus: Calculus) -> Implication | None:
    """The first binary connective, in name order, for which the calculus
    has axioms equal to K and S up to renaming and a rule equal to modus
    ponens; the first of each where they repeat.  None also when a rule is
    not modus ponens for any connective: proof search may find a shorter
    proof through it (a congruential closure's replacement rules derive x0→x0 in
    2 steps, where the compiled proof takes 5)."""
    rules = [_modus_ponens(rule) for rule in calculus.rules]
    if None in rules:
        return None
    for c, arity in sorted(calculus.signature.connectives.items()):
        if arity != 2:
            continue
        k, s = _schemes(c)
        ks = [(i, r) for i, a in enumerate(calculus.axioms)
              if (r := _renaming(k, a)) is not None]
        ss = [(i, r) for i, a in enumerate(calculus.axioms)
              if (r := _renaming(s, a)) is not None]
        mps = [(i, roles, minor) for i, (head, roles, minor) in enumerate(rules) if head == c]
        if ks and ss and mps:
            pure = len(ks) + len(ss) == len(calculus.axioms) and len(mps) == len(rules)
            index, roles, minor = mps[0]
            return Implication(c, ks[0], ss[0], (index, roles), minor, pure)
    return None


def _schemes(c: str) -> tuple[Formula, Formula]:
    """K and S for connective c, over x0, x1, x2 in the roles that the
    compiled proofs give them."""
    x0, x1, x2 = Var(0), Var(1), Var(2)

    def imp(a, b):
        return App(c, (a, b))

    return (imp(x0, imp(x1, x0)),
            imp(imp(x0, imp(x1, x2)), imp(imp(x0, x1), imp(x0, x2))))


def _renaming(template: Formula, phi: Formula) -> tuple[int, ...] | None:
    """The variables phi puts for x0, x1, ... of `template` when phi is the
    template with its variables renamed apart; else None."""
    sigma = match(template, phi)
    if sigma is None:
        return None
    images = [sigma.mapping[i] for i in range(len(sigma.mapping))]
    if all(type(v) is Var for v in images) and len(set(images)) == len(images):
        return tuple(v.index for v in images)
    return None


def _modus_ponens(rule: Rule) -> tuple[str, tuple[int, int], int] | None:
    """When the rule is x0, c(x0, x1) => x1 up to renaming, premises in
    either order: c, the variables it puts for x0 and x1, and the position
    of its minor premise; else None."""
    if len(rule.premises) == 2:
        for minor in (0, 1):
            major = rule.premises[1 - minor]
            if type(major) is App and len(major.args) == 2:
                a, b = major.args
                if type(a) is Var and type(b) is Var and a is not b \
                        and rule.premises[minor] is a and rule.conclusion is b:
                    return major.connective, (a.index, b.index), minor
    return None


def _apply(m: tuple, n: tuple) -> tuple:
    """The application m n, typed by modus ponens."""
    return (m[0].args[1], "app", m, n)


def _free_in(n: int, m: tuple) -> bool:
    """Whether bound variable n occurs in the combinator term m."""
    if m[1] == "var":
        return m[2] == n
    return m[1] == "app" and (_free_in(n, m[2]) or _free_in(n, m[3]))


class _G4ip:
    """G4ip for one `Implication`, building a typed λ-term of the proof.

    A term is a tuple whose first entry is its type: `(A, "hyp")` cites
    hypothesis A, `(A, "var", n)` is bound variable n, `(A→B, "lam", n, M)`
    and `(B, "app", M, N)`.  A context maps each formula to the term that
    proves it and is read in `fmt` order, so the proof found does not
    depend on hash order.  The search terminates without loop checks;
    failures are memoized by context and goal.
    """

    def __init__(self, implication: Implication):
        self.implication = implication
        self.fresh = itertools.count()
        self.failed: set[tuple[frozenset, Formula]] = set()

    def is_imp(self, phi: Formula) -> bool:
        return type(phi) is App and phi.connective == self.implication.connective

    def prove(self, context: dict[Formula, tuple], goal: Formula) -> tuple | None:
        if self.is_imp(goal):  # Γ ⇒ A→B from Γ, A ⇒ B: invertible
            a, b = goal.args
            n = next(self.fresh)
            body = self.prove(_assume(context, a, (a, "var", n)), b)
            return None if body is None else (goal, "lam", n, body)
        if goal in context:
            return context[goal]
        key = (frozenset(context), goal)
        if key in self.failed:
            return None
        ordered = sorted(context, key=fmt)
        found = None
        for f in ordered:  # Γ, p, p→B ⇒ G from Γ, p, B ⇒ G: invertible
            if self.is_imp(f) and not self.is_imp(f.args[0]) and f.args[0] in context:
                rest = {g: t for g, t in context.items() if g is not f}
                found = self.prove(_assume(rest, f.args[1], _apply(
                    context[f], context[f.args[0]])), goal)
                break
        else:
            for f in ordered:
                if self.is_imp(f) and self.is_imp(f.args[0]):
                    found = self._left_nested(context, f, goal)
                    if found is not None:
                        break
        if found is None:
            self.failed.add(key)
        return found

    def _left_nested(self, context: dict[Formula, tuple], f: Formula, goal: Formula
                     ) -> tuple | None:
        """Γ, (C→D)→B ⇒ G from Γ, D→B ⇒ C→D and Γ, B ⇒ G.  The rule is
        invertible in its second premise, so that premise's answer stands."""
        (cd, b), tf = f.args, context[f]
        d = cd.args[1]
        rest = {g: t for g, t in context.items() if g is not f}
        # D→B is proved by λd. f (λc. d)
        nd, nc = next(self.fresh), next(self.fresh)
        db = self.implication.imp(d, b)
        lifted = (db, "lam", nd, _apply(tf, (cd, "lam", nc, (d, "var", nd))))
        first = self.prove(_assume(rest, db, lifted), cd)
        if first is None:
            return None
        return self.prove(_assume(rest, b, _apply(tf, first)), goal)


def _assume(context: dict[Formula, tuple], phi: Formula, term: tuple) -> dict:
    """The context with phi proved by term, unless it already has phi."""
    if phi in context:
        return context
    return {**context, phi: term}
