"""Tarskian consequence: Hilbert calculi, finite matrices, and the lattice.

A logic pairs a signature with derivability providers: calculi are searched
(bounded, three-valued answers), finite matrices evaluated.  One rule,
`exact_matrix`, says when a matrix decides and when it only refutes, and
`derives` is the one dispatch that applies it.  Its steps, in order: the
exact matrix, the oracle, the matrix as refuter, G4ip for calculi with K, S
and modus ponens (module `implication`), and proof search.  Proof search is
condensed detachment (`_Skeletons`): it builds the most general conclusions
of all proof trees, size by size up to `proof_length` nodes, and rebuilds
the first tree whose conclusion has the goal as an instance; its schematic
variables are the negative ones.  Its unknown says which bound stopped it.
Lattice operations (meet, generated join, directed sup) combine providers
without ever inventing an uncertified No.

`Matrix.apply` is the only code that applies a matrix table, and
`ProofWriter` the only code that writes proof steps, for proof search,
saturation, G4ip and the proofs `logic_cat` moves or builds.
"""

from __future__ import annotations

import copy
import itertools
from collections import ChainMap
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from typing import TYPE_CHECKING

from .formulas import (
    App, Formula, InputError, Substitution, Var, check_formula, complexity,
    compose_substitutions, fmt, match, sort_key, substitute, variables,
)
from .signatures import Signature

if TYPE_CHECKING:
    from .implication import Implication


class SignatureMismatch(InputError):
    """Query or construction mixes formulas with the wrong signature."""


@dataclass(frozen=True)
class Budget:
    """The bound on proofs: `proof_length` bounds the length of any returned
    proof, whichever step found it.

    The backward prover counts `proof_length` in proof-tree nodes
    (`_Skeletons`).  That count can exceed the written proof's length,
    because `ProofWriter` writes a step that the tree repeats once."""

    proof_length: int = 40

    @staticmethod
    def parse(text: str) -> "Budget":
        """'length'.  The four-part 'length,inst,enum,vars' of older
        scripts and reports is read too: every part is checked, and only
        the length is kept."""
        parts = []
        for part in text.split(","):
            try:
                parts.append(int(part))
            except ValueError:
                raise InputError(f"budget {text!r}: {part!r} is not an integer") from None
        if any(p < 0 for p in parts):
            raise InputError("budget parts must be non-negative")
        if len(parts) not in (1, 4):
            raise InputError("budget must be 'length' or 'length,inst,enum,vars'")
        return Budget(parts[0])

    def to_json(self) -> list[int]:
        return [self.proof_length]


DEFAULT_BUDGET = Budget()


# ---------------------------------------------------------------------------
# Presented calculi and proofs


@dataclass(frozen=True)
class Rule:
    premises: tuple[Formula, ...]
    conclusion: Formula

    def to_json(self) -> dict:
        return {"premises": [fmt(p) for p in self.premises],
                "conclusion": fmt(self.conclusion)}


class Calculus:
    """Axiom and rule schemes, implicitly closed under substitution."""

    def __init__(self, signature: Signature, axioms: list[Formula], rules: list[Rule]):
        for a in axioms:
            check_formula(signature, a)
        for r in rules:
            if not r.premises:
                raise InputError("rules need at least one premise; use an axiom instead")
            for p in r.premises:
                check_formula(signature, p)
            check_formula(signature, r.conclusion)
        self.signature = signature
        self.axioms = list(axioms)
        self.rules = list(rules)

    @cached_property
    def implication(self) -> "Implication | None":
        """Where this calculus holds K, S and modus ponens for one binary
        connective, worked out on first use; None if it does not."""
        # imported here, so that start-up does not compile the module
        from .implication import find_implication
        return find_implication(self)

    def extended(self, rules: list[Rule]) -> "Calculus":
        return Calculus(self.signature, self.axioms, self.rules + list(rules))

    def to_json(self) -> dict:
        return {"axioms": [fmt(a) for a in self.axioms],
                "rules": [r.to_json() for r in self.rules]}


@dataclass(frozen=True)
class Hypothesis:
    """A step that cites one of the hypotheses."""


@dataclass(frozen=True)
class AxiomInstance:
    axiom: int
    substitution: Substitution


@dataclass(frozen=True)
class RuleInstance:
    rule: int
    substitution: Substitution
    premises: tuple[int, ...]


@dataclass(frozen=True)
class Step:
    formula: Formula
    justification: Hypothesis | AxiomInstance | RuleInstance


class Proof:
    """Justified formula sequence; every step re-checks mechanically."""

    def __init__(self, steps: list[Step]):
        self.steps = list(steps)

    def __len__(self):
        return len(self.steps)

    def conclusion(self) -> Formula:
        return self.steps[-1].formula

    def used_hypotheses(self) -> frozenset[Formula]:
        return frozenset(s.formula for s in self.steps
                         if isinstance(s.justification, Hypothesis))

    def to_json(self) -> dict:
        out = []
        for s in self.steps:
            j = s.justification
            if isinstance(j, Hypothesis):
                entry = {"by": "hypothesis"}
            elif isinstance(j, AxiomInstance):
                entry = {"by": "axiom", "axiom": j.axiom,
                         "substitution": j.substitution.to_json()}
            else:
                entry = {"by": "rule", "rule": j.rule,
                         "substitution": j.substitution.to_json(),
                         "premises": list(j.premises)}
            entry["formula"] = fmt(s.formula)
            out.append(entry)
        return {"steps": out, "length": len(self.steps)}


class ProofWriter:
    """Builds a proof one formula at a time: a formula gets one step, with
    the first justification given for it, and `index` maps each written
    formula to its step."""

    def __init__(self):
        self.steps: list[Step] = []
        self.index: dict[Formula, int] = {}

    def write(self, formula: Formula, justification) -> int:
        """The index of formula's step, written now if it has none."""
        if formula not in self.index:
            self.index[formula] = len(self.steps)
            self.steps.append(Step(formula, justification))
        return self.index[formula]

    def derivation(self, root, why) -> int:
        """Write the derivation of `root`, premises first; its step's index.
        `why(node)` gives a node's formula, justification and premise nodes;
        a `RuleInstance` is written with its premises' indices."""
        formula, justification, premises = why(root)
        if formula in self.index:
            return self.index[formula]
        if isinstance(justification, RuleInstance):
            justification = RuleInstance(
                justification.rule, justification.substitution,
                tuple(self.derivation(p, why) for p in premises))
        return self.write(formula, justification)

    def proof(self) -> Proof:
        return Proof(self.steps)


def verify_proof(logic: "Logic", gamma, phi: Formula, proof: Proof) -> bool:
    """Re-check every justification; the last step must be phi."""
    calculus = logic.calculus
    if calculus is None:
        return False
    gamma = frozenset(gamma)
    if not proof.steps or proof.conclusion() != phi:
        return False
    for idx, step in enumerate(proof.steps):
        j = step.justification
        if isinstance(j, Hypothesis):
            if step.formula not in gamma:
                return False
        elif isinstance(j, AxiomInstance):
            if not 0 <= j.axiom < len(calculus.axioms):
                return False
            if substitute(j.substitution, calculus.axioms[j.axiom]) != step.formula:
                return False
        elif isinstance(j, RuleInstance):
            if not 0 <= j.rule < len(calculus.rules):
                return False
            rule = calculus.rules[j.rule]
            if substitute(j.substitution, rule.conclusion) != step.formula:
                return False
            if len(j.premises) != len(rule.premises):
                return False
            for prem_idx, pattern in zip(j.premises, rule.premises):
                if not 0 <= prem_idx < idx:
                    return False
                if substitute(j.substitution, pattern) != proof.steps[prem_idx].formula:
                    return False
        else:
            return False
    return True


def transform_proof(proof: Proof, sigma: Substitution) -> Proof:
    """Push a substitution through a proof (structurality, constructively)."""
    steps = []
    for step in proof.steps:
        j = step.justification
        if isinstance(j, Hypothesis):
            new_j: Hypothesis | AxiomInstance | RuleInstance = j
        elif isinstance(j, AxiomInstance):
            new_j = AxiomInstance(j.axiom, compose_substitutions(sigma, j.substitution))
        else:
            new_j = RuleInstance(j.rule, compose_substitutions(sigma, j.substitution),
                                 j.premises)
        steps.append(Step(substitute(sigma, step.formula), new_j))
    return Proof(steps)


# ---------------------------------------------------------------------------
# Finite matrices

# The most cells (columns times rows) a matrix's column table holds before
# a query empties it, about 0.6 MB with the formulas it keeps alive.  No
# command of the analysis benchmark passes 14,000 cells; `rigidity --logic
# L3 --bound 3` reaches 141,000 and empties the table four times.
_COLUMN_CELLS = 1 << 15


class Matrix:
    """Finite set of truth values with designated subset and total tables.

    `evaluate` is the reference evaluator: one formula at one valuation.
    The queries below use `columns` instead, which evaluates a list of
    formulas at every valuation at once and must agree with `evaluate`.
    Columns hold value indices, and `apply`, the table kernel, is the only
    code that applies a table to them; `designation` reads them.  The
    matrix keeps the columns it has computed in one table, keyed by the
    variables they range over, so a sweep of queries computes each distinct
    subterm once per matrix and key.
    """

    def __init__(self, values: list, designated: list, tables: dict[str, dict[tuple, object]]):
        if not values:
            raise InputError("matrix needs at least one value")
        if not designated:
            raise InputError("matrix needs a nonempty designated subset")
        self.values = tuple(values)
        self.designated = frozenset(designated)
        if not self.designated <= set(self.values):
            raise InputError("designated values must be values")
        self.tables = {c: dict(t) for c, t in tables.items()}
        # by value index: designation, flattened tables, variable columns
        self._designated_at = tuple(v in self.designated for v in self.values)
        self._flat: dict[str, list[int]] = {}
        self._var_columns: dict[int, list[tuple[int, ...]]] = {}
        # tuple(occurring) -> formula -> column, and the cells it holds
        self._column_table: dict[tuple, dict[Formula, tuple[int, ...]]] = {}
        self._column_cells = 0

    def validate_for(self, sig: Signature) -> None:
        for c, arity in sig.connectives.items():
            table = self.tables.get(c)
            if table is None:
                raise InputError(f"matrix misses a table for {c!r}")
            expected = len(self.values) ** arity
            if len(table) != expected:
                raise InputError(f"table for {c!r} is not total")
            for key, out in table.items():
                if len(key) != arity or any(v not in self.values for v in key):
                    raise InputError(f"bad table entry {key} for {c!r}")
                if out not in self.values:
                    raise InputError(f"bad table output {out!r} for {c!r}")

    def evaluate(self, phi: Formula, valuation: dict[int, object]):
        if isinstance(phi, Var):
            return valuation[phi.index]
        args = tuple(self.evaluate(a, valuation) for a in phi.args)
        return self.tables[phi.connective][args]

    def columns(self, formulas, occurring) -> list[tuple[int, ...]]:
        """The value of each formula at every valuation of `occurring`.

        Valuations run in `itertools.product(self.values, repeat=k)` order
        (`valuation(occurring, t)` is the t-th); values are given by their
        index in `self.values`.  Each distinct subterm is computed once per
        matrix and key `tuple(occurring)`, a column at a time, through
        `apply`: the matrix's column table keeps every column it computes,
        under the key seeded with the variable columns.  A query that finds
        the table holding more than `_COLUMN_CELLS` cells (columns times
        rows) empties it first.  Every column is a tuple, so equal columns
        compare equal whichever path made them.  A variable outside
        `occurring` raises `KeyError`.
        """
        if self._column_cells > _COLUMN_CELLS:
            self._column_table.clear()
            self._column_cells = 0
        key = tuple(occurring)
        rows = len(self.values) ** len(key)
        memo = self._column_table.get(key)
        if memo is None:
            memo = self._column_table[key] = dict(
                zip(map(Var, key), self._columns_of_variables(len(key))))
            self._column_cells += len(memo) * rows
        known = len(memo)

        def column(phi: Formula) -> tuple[int, ...]:
            col = memo.get(phi)
            if col is None:
                if type(phi) is Var:
                    raise KeyError(phi.index)
                col = memo[phi] = self.apply(
                    phi.connective, [column(a) for a in phi.args], rows)
            return col

        try:
            return [column(phi) for phi in formulas]
        finally:
            self._column_cells += (len(memo) - known) * rows

    def apply(self, connective: str, args: list, rows: int) -> tuple[int, ...]:
        """The table kernel: the connective's table applied row by row to
        argument columns of value indices, `rows` rows long (a nullary
        table gives its one value on every row)."""
        table = self._table(connective)
        if len(args) == 1:
            return tuple(map(table.__getitem__, args[0]))
        n = len(self.values)
        if len(args) == 2:
            return tuple([table[v * n + w] for v, w in zip(*args)])
        keys = [0] * rows
        for arg in args:
            keys = [key * n + v for key, v in zip(keys, arg)]
        return tuple(map(table.__getitem__, keys))

    def designation(self, column) -> tuple[bool, ...]:
        """Whether each value index of a column is designated."""
        return tuple(map(self._designated_at.__getitem__, column))

    def valuation(self, occurring, t: int) -> dict:
        """The t-th valuation of `occurring` in `columns` order."""
        cols = self._columns_of_variables(len(occurring))
        return {v: self.values[col[t]] for v, col in zip(occurring, cols)}

    def _columns_of_variables(self, k: int) -> list[tuple[int, ...]]:
        cols = self._var_columns.get(k)
        if cols is None:
            n = len(self.values)
            cols = self._var_columns[k] = list(
                zip(*itertools.product(range(n), repeat=k)))
        return cols

    def _table(self, connective: str) -> list[int]:
        """A connective's table as value indices, argument indices read as
        a base-n numeral; built once per connective."""
        flat = self._flat.get(connective)
        if flat is None:
            table = self.tables[connective]
            arity = len(next(iter(table)))
            flat = self._flat[connective] = [
                self.values.index(table[combo])
                for combo in itertools.product(self.values, repeat=arity)]
        return flat

    def is_designated(self, value) -> bool:
        return value in self.designated

    def to_json(self) -> dict:
        return {
            "values": [str(v) for v in self.values],
            "designated": sorted(str(v) for v in self.designated),
            "tables": {
                c: {",".join(map(str, k)): str(v) for k, v in sorted(t.items(),
                                                                     key=lambda kv: str(kv[0]))}
                for c, t in sorted(self.tables.items())
            },
        }


def matrix_consequence(matrix: Matrix, gamma, phi: Formula
                       ) -> tuple[bool, dict[int, object] | None]:
    """Designation-preserving entailment; countervaluation on failure."""
    gamma = list(gamma)
    occurring = sorted(set().union(variables(phi), *[variables(g) for g in gamma]))
    *premises, conclusion = matrix.columns([*gamma, phi], occurring)
    designated = matrix._designated_at
    for t, value in enumerate(conclusion):
        if not designated[value] and all(designated[col[t]] for col in premises):
            return False, matrix.valuation(occurring, t)
    return True, None


def truth_function(matrix: Matrix, phi: Formula, n: int) -> tuple:
    """Value tuple of phi over all valuations of x0..x_{n-1}, in a fixed order."""
    [col] = matrix.columns([phi], range(n))
    return tuple(map(matrix.values.__getitem__, col))


def matrix_verdict(matrix: Matrix, gamma, phi: Formula) -> "Verdict":
    """A matrix's answer to gamma |- phi as a verdict: yes, or no with the
    countervaluation."""
    holds, counter = matrix_consequence(matrix, gamma, phi)
    if holds:
        return Verdict.yes(reason="matrix decision", used=frozenset(gamma))
    return Verdict.no(counter={f"x{k}": v for k, v in counter.items()},
                      reason="matrix countervaluation")


def matrix_interderivable(matrix: Matrix, phi: Formula, psi: Formula
                          ) -> tuple[bool, dict[int, object] | None]:
    """Mutual designation-entailment, with a separating valuation when false."""
    occurring = sorted(variables(phi) | variables(psi))
    left, right = matrix.columns([phi, psi], occurring)
    designated = matrix._designated_at
    for t, (a, b) in enumerate(zip(left, right)):
        if designated[a] != designated[b]:
            return False, matrix.valuation(occurring, t)
    return True, None


# The most elements, and rows per column, `model_of` takes before it
# answers unknown.
_MODEL_CAP = 500


def model_of(sig, a: Matrix, b: Matrix) -> tuple[Verdict, tuple | None]:
    """Does every sequent valid in matrix a over sig hold in matrix b?  Yes;
    no with a sequent (premises, conclusion) valid in a that the verdict's
    counter refutes in b; unknown once the closure passes `_MODEL_CAP`.

    Any failure in b renames to one at x_i -> b's i-th value.  So close the
    generators (column of x_i over all a-valuations of x_0..x_{|b|-1}, i)
    under the connectives, a's tables acting on columns and b's on values.
    With T the elements of designated b-value and R the rows designating
    all of T's columns, b fails exactly when an element of undesignated
    b-value is designated throughout R.  T only grows and R only shrinks,
    so a refutation on a partial closure stands.
    """
    connectives = sorted(sig.connectives.items())
    if a.values == b.values and a.designated == b.designated and all(
            a.tables[c] == b.tables[c] for c, _ in connectives):
        return Verdict.yes(reason="equal matrices"), None
    n, k = len(a.values), len(b.values)
    rows = n ** k
    if rows > _MODEL_CAP:  # one column alone would pass the cap
        return Verdict.unknown(reason=f"{rows} rows passed {_MODEL_CAP}"), None
    everywhere = (1 << rows) - 1
    elements: dict[tuple, Formula] = {}  # (column, b-value) -> term, in order
    masks, premises, refuters = [], [], []

    def add(column: tuple, out: int, term: Formula) -> None:
        if (column, out) not in elements:
            (premises if b._designated_at[out] else refuters).append(len(elements))
            elements[column, out] = term
            masks.append(sum(1 << t for t, v in enumerate(column) if a._designated_at[v]))

    def refutation():
        reach = reduce(int.__and__, map(masks.__getitem__, premises), everywhere)
        return next((j for j in refuters if not reach & ~masks[j]), None)

    for i, column in enumerate(a._columns_of_variables(k)):
        add(column, i, Var(i))
    for c, arity in connectives:
        if arity == 0:
            add(a.apply(c, [], rows), b.apply(c, [], 1)[0], App(c, ()))
    lo = 0
    while lo < len(elements) <= _MODEL_CAP and refutation() is None:
        pairs, terms, hi = list(elements), list(elements.values()), len(elements)
        # argument tuples over [0, hi) with a first new element at `new`
        for c, arity in connectives:
            for new in range(arity):
                for args in itertools.product(*[range(lo) if q < new else range(
                        lo, hi) if q == new else range(hi) for q in range(arity)]):
                    add(a.apply(c, [pairs[i][0] for i in args], rows),
                        b.apply(c, [(pairs[i][1],) for i in args], 1)[0],
                        App(c, tuple(terms[i] for i in args)))
                    if len(elements) > _MODEL_CAP:
                        break
        lo = hi
    j, terms = refutation(), list(elements.values())
    if j is None and len(terms) > _MODEL_CAP:
        return Verdict.unknown(reason=f"closure passed {_MODEL_CAP} elements"), None
    if j is None:
        return Verdict.yes(reason=f"closure of {len(terms)} elements"), None
    # drop premises, last first, while the rest still confine R to j's rows
    before = list(itertools.accumulate(map(masks.__getitem__, premises),
                                       int.__and__, initial=everywhere))
    kept, reach = [], everywhere
    for pos in reversed(range(len(premises))):
        if before[pos] & reach & ~masks[j]:
            kept.append(premises[pos])
            reach &= masks[premises[pos]]
    sequent = (tuple(terms[i] for i in reversed(kept)), terms[j])
    occurring = sorted(set().union(variables(sequent[1]), *map(variables, sequent[0])))
    return Verdict.no(counter={f"x{i}": b.values[i] for i in occurring},
                      reason="a sequent valid in a fails in b"), sequent


# ---------------------------------------------------------------------------
# Status words, verdicts and logics

# The one status vocabulary: a query answers yes, no or unknown; a check
# made of queries is verified (translations) or confirmed, refuted, or
# unknown.
YES = "yes"
NO = "no"
UNKNOWN = "unknown"
VERIFIED = "verified"
CONFIRMED = "confirmed"
REFUTED = "refuted"
POSITIVE = frozenset((YES, VERIFIED, CONFIRMED))
NEGATIVE = frozenset((NO, REFUTED))


@dataclass(frozen=True)
class Verdict:
    status: str  # YES | NO | UNKNOWN
    proof: Proof | None = None
    counter: dict | None = None
    reason: str = ""
    stage: int | None = None
    used: frozenset | None = None
    detail: dict | None = None

    @property
    def is_yes(self) -> bool:
        return self.status == YES

    @property
    def is_no(self) -> bool:
        return self.status == NO

    @property
    def is_unknown(self) -> bool:
        return self.status == UNKNOWN

    def outcome(self, positive: str) -> str:
        """This verdict in a check's words: `positive` (VERIFIED or
        CONFIRMED) for yes, REFUTED for no, UNKNOWN otherwise."""
        return positive if self.is_yes else REFUTED if self.is_no else UNKNOWN

    def counter_json(self) -> dict | None:
        """The countervaluation as it appears in reports, or None."""
        if self.counter is None:
            return None
        return {str(k): str(v) for k, v in sorted(
            self.counter.items(), key=lambda kv: str(kv[0]))}

    @staticmethod
    def yes(proof: Proof | None = None, reason: str = "", stage: int | None = None,
            used: frozenset | None = None, detail: dict | None = None) -> "Verdict":
        return Verdict(YES, proof=proof, reason=reason, stage=stage,
                       used=used, detail=detail)

    @staticmethod
    def no(counter: dict | None = None, reason: str = "") -> "Verdict":
        return Verdict(NO, counter=counter, reason=reason)

    @staticmethod
    def unknown(reason: str = "") -> "Verdict":
        return Verdict(UNKNOWN, reason=reason)

    def to_json(self) -> dict:
        out: dict = {"verdict": self.status}
        if self.proof is not None:
            out["proof"] = self.proof.to_json()
        if self.counter is not None:
            out["counter"] = self.counter_json()
        if self.reason:
            out["reason"] = self.reason
        if self.stage is not None:
            out["stage"] = self.stage
        if self.used is not None:
            out["used_hypotheses"] = sorted(fmt(f) for f in self.used)
        if self.detail is not None:
            out["detail"] = self.detail
        return out


class Logic:
    """Signature plus derivability provider(s).

    Providers: a presented calculus (searched), a finite matrix (exact when
    it is the only provider or the caller needs no proof, refuting
    otherwise: `exact_matrix`), or an oracle closure used by the combination
    constructors.  A matrix beside a calculus must validate its axioms and
    rules.  `decides` records whether answers are exact, not budget-limited.
    """

    def __init__(self, name: str, signature: Signature, calculus: Calculus | None = None,
                 matrix: Matrix | None = None, oracle=None, decides: bool | None = None):
        if calculus is not None and calculus.signature != signature:
            raise SignatureMismatch("calculus signature differs from logic signature")
        if matrix is not None:
            matrix.validate_for(signature)
        if calculus is None and matrix is None and oracle is None:
            raise InputError("logic needs at least one provider")
        if calculus is not None and matrix is not None:
            for gamma, phi in [((), a) for a in calculus.axioms] + [
                    (r.premises, r.conclusion) for r in calculus.rules]:
                holds, counter = matrix_consequence(matrix, gamma, phi)
                if not holds:
                    what = f"rule {', '.join(map(fmt, gamma))} => " if gamma else "axiom "
                    raise InputError(f"the matrix refutes {what}{fmt(phi)} at " + ", ".join(
                        f"x{k}={v}" for k, v in sorted(counter.items())))
        self.name = name
        self.signature = signature
        self.calculus = calculus
        self.matrix = matrix
        self.oracle = oracle
        if decides is None:
            decides = matrix is not None and calculus is None and oracle is None
        self.decides = decides

    def __repr__(self):
        providers = [p for p, ok in (
            ("calculus", self.calculus), ("matrix", self.matrix), ("oracle", self.oracle)) if ok]
        return f"Logic({self.name!r}, {self.signature.name!r}, {'+'.join(providers)})"

    def to_json(self) -> dict:
        out: dict = {"name": self.name, "signature": self.signature.to_json(),
                     "decides": self.decides}
        if self.calculus is not None:
            out["calculus"] = self.calculus.to_json()
        if self.matrix is not None:
            out["matrix"] = self.matrix.to_json()
        if self.oracle is not None:
            out["oracle"] = True
        return out


def exact_matrix(logic: Logic, proof: bool = False) -> Matrix | None:
    """The provider rule: the logic's matrix when it answers yes and no
    exactly, that is when it is the only provider or the caller needs no
    proof; else None.  Known defect 1, left for ROADMAP item 3 with item 4:
    IMP's matrix is only sound, yet exact here when no proof is needed."""
    sole = logic.calculus is None and logic.oracle is None
    return logic.matrix if sole or not proof else None


def can_refute(logic: Logic) -> bool:
    """Whether `derives` can ever answer no for `logic`: a matrix or an
    oracle can refute, proof search cannot."""
    return logic.matrix is not None or logic.oracle is not None


def derives(logic: Logic, gamma, phi: Formula,
            budget: Budget = DEFAULT_BUDGET, proof: bool = True) -> Verdict:
    """Three-valued derivability with certificates.  The steps, in order:
    an exact matrix; else the oracle; else the matrix as refuter; then G4ip
    where the calculus has K, S and modus ponens (`Implication.decide`);
    then proof search by condensed detachment (`search_proof`).

    The sequent is checked (`check_formula`) before proof search can run.
    Yes from a calculus carries a proof no longer than
    `budget.proof_length`; No carries a countervaluation (or a membership
    certificate from decidable oracles); Unknown says what stopped the
    answer: no proof tree within `budget.proof_length` nodes, the
    unification cap of proof search, a proof tree that does not rebuild,
    or G4ip showed a sequent of K, S and modus ponens alone underivable
    without a countermodel to certify it.
    """
    gamma = frozenset(gamma)
    matrix = exact_matrix(logic, proof)
    if matrix is None or proof:  # no-proof sweeps skip the validation walk
        for f in itertools.chain(gamma, (phi,)):
            check_formula(logic.signature, f)
    if matrix is not None:
        return matrix_verdict(matrix, gamma, phi)
    if logic.oracle is not None:
        return logic.oracle(gamma, phi, budget)
    if logic.matrix is not None:
        verdict = matrix_verdict(logic.matrix, gamma, phi)
        if verdict.is_no:
            return verdict
    implication = logic.calculus.implication
    if implication is not None:
        decided = implication.decide(gamma, phi, budget)
        if decided is not None:
            return decided
    return search_proof(logic.calculus, gamma, phi, budget)


def interderivable(logic: Logic, phi: Formula, psi: Formula,
                   budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Mutual derivability; exact through a matrix, else searched."""
    matrix = exact_matrix(logic)
    if matrix is not None:
        ok, witness = matrix_interderivable(matrix, phi, psi)
        if ok:
            return Verdict.yes(reason="matrix interderivability")
        return Verdict.no(counter={f"x{k}": v for k, v in witness.items()},
                          reason="separating valuation")
    forward = derives(logic, [phi], psi, budget)
    if forward.is_no:
        return Verdict.no(counter=forward.counter, reason=forward.reason)
    backward = derives(logic, [psi], phi, budget)
    if backward.is_no:
        return Verdict.no(counter=backward.counter, reason=backward.reason)
    if forward.is_yes and backward.is_yes:
        return Verdict.yes(detail={"forward": forward.to_json(),
                                   "backward": backward.to_json()})
    return Verdict.unknown(reason="interderivability not settled within budget")


def refutation_sweep(checks) -> tuple[object, Verdict]:
    """The conjunction of `(item, verdict)` pairs, drawn lazily in order.

    The first no ends the sweep and is returned with its item; nothing after
    it is computed.  Otherwise: `(None, unknown)` if some verdict was
    unknown, else `(None, yes)`.
    """
    settled = True
    for item, verdict in checks:
        if verdict.is_no:
            return item, verdict
        if verdict.is_unknown:
            settled = False
    return None, Verdict.yes() if settled else Verdict.unknown()


# ---------------------------------------------------------------------------
# Condensed detachment: proof trees by size, each rebuilt by unification


def unify(a: Formula, b: Formula, binding: dict[int, Formula]) -> dict[int, Formula] | None:
    """Syntactic unification; both sides may contain variables.

    Pairs are taken from a stack, last pushed first, and each binds at most
    one variable, so `binding` gains its keys in a fixed order."""
    stack = [(a, b)]
    pop, push, get = stack.pop, stack.extend, binding.get
    while stack:
        left, right = pop()
        while type(left) is Var:
            bound = get(left.index)
            if bound is None:
                break
            left = bound
        while type(right) is Var:
            bound = get(right.index)
            if bound is None:
                break
            right = bound
        if left is right:
            continue
        if type(left) is Var:
            if type(right) is Var:
                # prefer binding a schematic variable, keeping the sequent's free
                if left.index < 0:
                    binding[left.index] = right
                else:
                    binding[right.index] = left
                continue
            if _occurs(left.index, right, binding):
                return None
            binding[left.index] = right
        elif type(right) is Var:
            if _occurs(right.index, left, binding):
                return None
            binding[right.index] = left
        elif left.connective != right.connective or len(left.args) != len(right.args):
            return None
        else:
            push(zip(left.args, right.args))
    return binding


def _occurs(idx: int, phi: Formula, binding: dict[int, Formula]) -> bool:
    """Whether variable idx occurs in phi once `binding` is applied."""
    while type(phi) is Var:
        bound = binding.get(phi.index)
        if bound is None:
            return phi.index == idx
        phi = bound
    vs = variables(phi)
    if idx not in vs and vs.isdisjoint(binding):
        return False
    for arg in phi.args:
        if _occurs(idx, arg, binding):
            return True
    return False


def _schematic_unifier(a: Formula, b: Formula, binding: dict[int, Formula]):
    """unify(a, b, binding) if it binds only schematic (negative) variables."""
    found = unify(a, b, binding)
    return None if found is None or any(k >= 0 for k in found) else found


# the most unifications `_Skeletons.prove` tries before it answers unknown
_UNIFY_CAP = 20_000


@dataclass(frozen=True)
class _ByAxiom:
    """A level entry made by an axiom."""

    axiom: int


@dataclass(frozen=True)
class _ByRule:
    """A level entry made by a rule from one entry per premise, each given
    by its (size, index) in the levels."""

    rule: int
    premises: tuple[tuple[int, int], ...]


class _Skeletons:
    """The backward prover: the principal conclusions of proof trees, by
    tree size, until one has the goal as an instance.

    A proof skeleton is a tree of axioms, hypotheses and rules without its
    substitutions.  Each skeleton has one most general conclusion, found by
    unification, and every tree of that shape concludes an instance of it
    (condensed detachment: Kalman, "Condensed detachment as a rule of
    inference", Studia Logica 42, 1983; Hindley & Meredith, "Principal
    type-schemes and condensed detachment", JSL 55, 1990).

    The sequent's variables are fixed symbols: a unifier that binds one is
    rejected.  Schematic variables have negative indices, which no formula
    of a signature has (`check_formula`), in `lanes` interleaved lanes: the
    k-th of lane l is x_{-1-l-lanes*k}.  Rules and level entries take lane
    0, the copies of a level unified with premise position p lane p + 1.

    Size 1 holds each axiom and each hypothesis.  Size s holds, for each
    rule with k premises and each split of s - 1 into k positive sizes, the
    rule's conclusion under the unifier of its premises with one conclusion
    of each size.  A conclusion is kept once up to renaming, at the
    smallest size that reaches it: a larger tree that uses it could use the
    smaller one instead.  Levels are built in a fixed order (axioms,
    hypotheses by `sort_key`, then rules in order), so the proof found, and
    where `_UNIFY_CAP` ends the search, do not depend on the hash seed.

    Each entry keeps how it was made (`origins`: `Hypothesis`, `_ByAxiom` or
    `_ByRule`), so the first entry with the goal as an instance gives a
    smallest proof tree.  An instance builds its levels for one `prove`.
    """

    def __init__(self, calculus: Calculus, hypotheses: frozenset[Formula]):
        self.widest = max((len(r.premises) for r in calculus.rules), default=0)
        self.lanes = 1 + self.widest

        def shift(i):
            return Var(-1 - self.lanes * i)

        self.calculus = calculus
        self.first: list[tuple[Formula, object]] = [
            (substitute(shift, a), _ByAxiom(i)) for i, a in enumerate(calculus.axioms)]
        self.first += [(h, Hypothesis()) for h in sorted(hypotheses, key=sort_key)]
        # per rule: premises, conclusion, and the order premises are unified
        # in, structurally richer patterns first, as they fail sooner
        self.rules = []
        for rule in calculus.rules:
            premises = [substitute(shift, p) for p in rule.premises]
            self.rules.append((premises, substitute(shift, rule.conclusion),
                               sorted(range(len(premises)),
                                      key=lambda i: -complexity(premises[i]))))
        # levels[s]: the conclusions first reached by trees of s nodes, and
        # origins[s] how each was made
        self.levels: list[list[Formula]] = [[]]
        self.origins: list[list[object]] = [[]]
        self.seen: set[Formula] = set()
        # (size, premise position) -> levels[size] renamed apart for it
        self.copies: dict[tuple[int, int], list[Formula]] = {}
        self.attempts = 0

    def prove(self, goal: Formula, length: int) -> Verdict:
        """Yes with a proof of goal from a tree of at most `length` nodes;
        else unknown with the bound that stopped the search: no such tree
        exists, or `_UNIFY_CAP` ended the search first."""
        highest = 0
        for size in range(1, length + 1):
            level: list[Formula] = []
            origins: list[object] = []
            self.levels.append(level)
            self.origins.append(origins)
            made = self.first if size == 1 else self._made(size)
            for conclusion, origin in made:
                conclusion = _renamed(conclusion, 0, self.lanes)
                if conclusion in self.seen:
                    continue
                level.append(conclusion)
                origins.append(origin)
                if _schematic_unifier(conclusion, goal, {}) is not None:
                    proof = self._proof(size, len(level) - 1, goal)
                    if proof is None:
                        return Verdict.unknown(reason="a proof tree that does not rebuild")
                    return Verdict.yes(proof=proof, used=proof.used_hypotheses())
                self.seen.add(conclusion)
            if self.attempts >= _UNIFY_CAP:
                return Verdict.unknown(reason=f"unification cap ({_UNIFY_CAP:,}) reached")
            if level:
                highest = size
            # each larger tree has a premise subtree of more than `highest`
            # nodes, and no such subtree has a new conclusion
            if size > self.widest * highest:
                break
        return Verdict.unknown(reason=f"no proof tree within {length} nodes")

    def _made(self, size: int):
        """The conclusions of trees of `size` nodes with a rule at the root,
        each with how it was made."""
        for index, (premises, conclusion, order) in enumerate(self.rules):
            if len(premises) < size:
                picks: list = [None] * len(premises)
                for binding in self._unifiers(premises, order, 0, size - 1, {}, picks):
                    yield _resolved(conclusion, binding), _ByRule(index, tuple(picks))

    def _unifiers(self, premises, order, pos: int, left: int, binding: dict, picks: list):
        """Each unifier of premises[order[pos]], premises[order[pos + 1]], ...
        with one conclusion each, of sizes that sum to `left`, that extends
        `binding` and binds no fixed variable.  While a unifier is yielded,
        `picks[slot]` holds the (size, index) of the entry unified with
        premises[slot]."""
        if pos == len(order):
            yield binding
            return
        slot, later = order[pos], len(order) - pos - 1
        for size in ([left] if not later else range(1, left - later + 1)):
            for index, conclusion in enumerate(self._copies(size, slot)):
                if self.attempts >= _UNIFY_CAP:
                    return
                self.attempts += 1
                found = _schematic_unifier(premises[slot], conclusion, dict(binding))
                if found is not None:
                    picks[slot] = (size, index)
                    yield from self._unifiers(premises, order, pos + 1,
                                              left - size, found, picks)

    def _copies(self, size: int, slot: int) -> list[Formula]:
        """levels[size] renamed apart from the rules and the other premise
        positions, into lane slot + 1; made once per level and position."""
        copies = self.copies.get((size, slot))
        if copies is None:
            copies = self.copies[size, slot] = [
                _renamed(c, slot + 1, self.lanes) for c in self.levels[size]]
        return copies

    def _proof(self, size: int, index: int, goal: Formula) -> Proof | None:
        """The tree of levels[size][index], rebuilt with fresh variables for
        each axiom and rule instance, its premises unified with the roots of
        its subtrees and its root with goal; schematic variables still free
        become x0.  The unifications succeed, as they did for the entries,
        and bind no fixed variable, so each step is an instance of its axiom
        or rule and the root is goal; None, not a proof of something else,
        if the rebuild breaks this."""
        binding: dict[int, Formula] = {}
        fresh = itertools.count(-1, -1)
        unified = True

        def join(scheme: Formula, formula: Formula) -> None:
            nonlocal unified
            unified = unified and _schematic_unifier(scheme, formula, binding) is not None

        def renaming(*schemes) -> Substitution:
            return Substitution({v: Var(next(fresh)) for v in sorted(
                set().union(*map(variables, schemes)))})

        def rebuild(size: int, index: int):
            origin = self.origins[size][index]
            if isinstance(origin, Hypothesis):
                return self.levels[size][index], origin, ()
            if isinstance(origin, _ByAxiom):
                axiom = self.calculus.axioms[origin.axiom]
                sigma = renaming(axiom)
                return substitute(sigma, axiom), AxiomInstance(origin.axiom, sigma), ()
            rule = self.calculus.rules[origin.rule]
            sigma = renaming(rule.conclusion, *rule.premises)
            premises = tuple(rebuild(*entry) for entry in origin.premises)
            for pattern, (formula, _, _) in zip(rule.premises, premises):
                join(substitute(sigma, pattern), formula)
            return (substitute(sigma, rule.conclusion), RuleInstance(origin.rule, sigma, ()),
                    premises)

        root = rebuild(size, index)
        join(root[0], goal)
        if not unified:
            return None

        def ground(phi: Formula) -> Formula:
            return substitute(lambda i: Var(0 if i < 0 else i), _resolved(phi, binding))

        def why(node):
            formula, justification, premises = node
            if not isinstance(justification, Hypothesis):
                justification = replace(justification, substitution=Substitution(
                    {v: ground(t) for v, t in justification.substitution.mapping.items()}))
            return ground(formula), justification, premises

        writer = ProofWriter()
        writer.derivation(root, why)
        return writer.proof()


def _resolved(phi: Formula, binding: dict[int, Formula]) -> Formula:
    """phi with `binding` applied to the end of every chain."""
    if type(phi) is Var:
        bound = binding.get(phi.index)
        return phi if bound is None else _resolved(bound, binding)
    if variables(phi).isdisjoint(binding):
        return phi
    return App(phi.connective, tuple([_resolved(a, binding) for a in phi.args]))


def _renamed(phi: Formula, lane: int, lanes: int) -> Formula:
    """phi with its schematic variables renamed, in order of first
    occurrence, to those of `lane`: the k-th to x_{-1-lane-lanes*k}; fixed
    variables stay."""
    names: dict[int, Formula] = {}

    def name(i: int) -> Formula:
        if i >= 0:
            return Var(i)
        renamed = names.get(i)
        if renamed is None:
            renamed = names[i] = Var(-1 - lane - lanes * len(names))
        return renamed

    return substitute(name, phi)


def search_proof(calculus: Calculus, hypotheses: frozenset[Formula],
                 goal: Formula, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Backward proof search by condensed detachment (`_Skeletons`): yes
    with a proof from a smallest proof tree, of at most `budget.proof_length`
    nodes; else unknown with the bound that stopped the search.  The
    sequent's variable indices must be at least 0 (`check_formula`)."""
    return _Skeletons(calculus, hypotheses).prove(goal, budget.proof_length)


# ---------------------------------------------------------------------------
# Forward saturation: a second, join-based derivability engine.  Sound by
# construction (every element carries its justification); used where many
# related queries over one hypothesis set must be answered at once.

# the most complex conclusion a saturation derives
_CONCLUSION_CAP = 12


class Saturation:
    """Derivations reachable from seed axiom instances by forward joins.

    Axiom schemes are instantiated with images drawn from a finite pool;
    rules fire whenever all premises are already derived and the conclusion
    complexity stays within `_CONCLUSION_CAP`.  Two-premise rules join
    through an index on their shared variables; longer rules scan.

    `fork` explores one more hypothesis set against this saturation without
    copying it: `derived` and each join index are `ChainMap`s whose first
    map is the fork's own layer and whose other maps are the base's, read
    by reference.  A fork copies a join bucket before its first append to
    it, so the base never changes, and iterates base entries first, then
    its own, in the order a full copy would have.
    """

    def __init__(self, calculus: Calculus, seed_pool: list[Formula]):
        self.calculus = calculus
        # each derived formula with its justification and premise formulas
        self.derived: ChainMap[Formula, tuple] = ChainMap()
        self.queue: list[Formula] = []
        # per rule: premise variable sets and, for 2-premise rules, the join
        # variables plus an index per position keyed by the join images
        self.rule_vars = []
        self.join_vars = []
        self.join_index: list[list[ChainMap[tuple, list[Substitution]]]] = []
        for rule in calculus.rules:
            pvars = [variables(p) for p in rule.premises]
            self.rule_vars.append(pvars)
            if len(rule.premises) == 2:
                self.join_vars.append(tuple(sorted(pvars[0] & pvars[1])))
                self.join_index.append([ChainMap(), ChainMap()])
            else:
                self.join_vars.append(())
                self.join_index.append([])
        for aidx, axiom in enumerate(calculus.axioms):
            free = sorted(variables(axiom))
            for combo in itertools.product(seed_pool, repeat=len(free)):
                sigma = Substitution(dict(zip(free, combo)))
                self._add(substitute(sigma, axiom), AxiomInstance(aidx, sigma))
        self._run()

    def fork(self) -> "Saturation":
        other = copy.copy(self)
        other.derived = self.derived.new_child()
        other.queue = []
        other.join_index = [[idx.new_child() for idx in per_rule]
                            for per_rule in self.join_index]
        return other

    @property
    def added(self) -> dict[Formula, tuple]:
        """What this saturation derived itself; for a fork, beyond its base."""
        return self.derived.maps[0]

    def _add(self, phi: Formula, justification, premises: tuple[Formula, ...] = ()) -> None:
        if phi in self.derived or complexity(phi) > _CONCLUSION_CAP:
            return
        self.derived[phi] = (justification, premises)
        self.queue.append(phi)

    def _run(self) -> None:
        while self.queue:
            d = self.queue.pop()
            for ridx, rule in enumerate(self.calculus.rules):
                for j, premise in enumerate(rule.premises):
                    sigma = match(premise, d)
                    if sigma is None:
                        continue
                    if len(rule.premises) == 1:
                        self._conclude(ridx, rule, sigma, (d,))
                    elif len(rule.premises) == 2:
                        self._join2(ridx, rule, j, sigma, d)
                    else:
                        self._join_scan(ridx, rule, j, sigma)

    def _conclude(self, ridx: int, rule: Rule, sigma: Substitution,
                  premises: tuple[Formula, ...]) -> None:
        if not variables(rule.conclusion) <= set(sigma.mapping):
            return
        self._add(substitute(sigma, rule.conclusion), RuleInstance(ridx, sigma, ()), premises)

    def _join2(self, ridx: int, rule: Rule, j: int, sigma: Substitution,
               d: Formula) -> None:
        join = self.join_vars[ridx]
        key = tuple(sigma(v) for v in join)
        index = self.join_index[ridx][j]
        own = index.maps[0]
        bucket = own.get(key)
        if bucket is None:
            bucket = own[key] = list(index.get(key, ()))
        bucket.append(sigma)
        other = 1 - j
        other_vars = self.rule_vars[ridx][other]
        if other_vars <= set(sigma.mapping):
            # the partner instance is fully determined: membership test
            partner = substitute(sigma, rule.premises[other])
            if partner in self.derived:
                pair = (d, partner) if j == 0 else (partner, d)
                self._conclude(ridx, rule, sigma, pair)
            return
        for sigma2 in self.join_index[ridx][other].get(key, []):
            merged = dict(sigma2.mapping)
            merged.update(sigma.mapping)
            full = Substitution(merged)
            inst = tuple(substitute(full, p) for p in rule.premises)
            if all(p in self.derived for p in inst):
                self._conclude(ridx, rule, full, inst)

    def _join_scan(self, ridx: int, rule: Rule, j: int, sigma: Substitution) -> None:
        positions = [k for k in range(len(rule.premises)) if k != j]

        def go(pos: int, sub: Substitution):
            if pos == len(positions):
                inst = tuple(substitute(sub, p) for p in rule.premises)
                if all(p in self.derived for p in inst):
                    self._conclude(ridx, rule, sub, inst)
                return
            k = positions[pos]
            missing = self.rule_vars[ridx][k] - set(sub.mapping)
            if not missing:
                if substitute(sub, rule.premises[k]) in self.derived:
                    go(pos + 1, sub)
                return
            for candidate in list(self.derived):
                ext = match(rule.premises[k], candidate, dict(sub.mapping))
                if ext is not None:
                    go(pos + 1, ext)

        go(0, sigma)

    def extend(self, hypotheses) -> None:
        for h in hypotheses:
            self._add(h, Hypothesis())
        self._run()

    def __contains__(self, phi: Formula) -> bool:
        return phi in self.derived

    def proof_of(self, phi: Formula) -> Proof | None:
        """Rebuild a checkable proof from the recorded justifications."""
        if phi not in self.derived:
            return None
        writer = ProofWriter()
        writer.derivation(phi, lambda f: (f, *self.derived[f]))
        return writer.proof()


# ---------------------------------------------------------------------------
# Lattice operations on consequence relations


def meet(l1: Logic, l2: Logic) -> Logic:
    """Infimum: derivable when both components derive."""
    if l1.signature != l2.signature:
        raise SignatureMismatch("meet needs a shared signature")

    def oracle(gamma, phi, budget):
        v1 = derives(l1, gamma, phi, budget)
        if v1.is_no:
            return Verdict.no(counter=v1.counter, reason=f"refuted in {l1.name}")
        v2 = derives(l2, gamma, phi, budget)
        if v2.is_no:
            return Verdict.no(counter=v2.counter, reason=f"refuted in {l2.name}")
        if v1.is_yes and v2.is_yes:
            return Verdict.yes(proof=v1.proof or v2.proof,
                               used=(v1.used or frozenset()) | (v2.used or frozenset()),
                               detail={"left": v1.status, "right": v2.status})
        return Verdict.unknown(reason="one component undecided")

    return Logic(f"meet({l1.name},{l2.name})", l1.signature,
                 oracle=oracle, decides=l1.decides and l2.decides)


def generated_join(presentations: list[Calculus]) -> Calculus:
    """Supremum of presented relations: union of the presentations."""
    if not presentations:
        raise InputError("empty join")
    sig = presentations[0].signature
    if any(c.signature != sig for c in presentations):
        raise SignatureMismatch("generated join needs a shared signature")
    axioms: list[Formula] = []
    rules: list[Rule] = []
    for calc in presentations:
        axioms.extend(calc.axioms)
        rules.extend(calc.rules)
    return Calculus(sig, axioms, rules)


def directed_sup(chain: list[Logic]) -> Logic:
    """Supremum of a chain ordered by strength: first stage that derives wins."""
    if not chain:
        raise InputError("empty chain")
    sig = chain[0].signature
    if any(l.signature != sig for l in chain):
        raise SignatureMismatch("directed sup needs a shared signature")

    def oracle(gamma, phi, budget):
        unknown = False
        for i, logic in enumerate(chain):
            v = derives(logic, gamma, phi, budget)
            if v.is_yes:
                return Verdict.yes(proof=v.proof, stage=i, used=v.used,
                                   reason=f"witnessed at stage {i}")
            if v.is_unknown:
                unknown = True
        if unknown:
            return Verdict.unknown(reason="no stage settled the query")
        # v is the top stage's refutation
        return Verdict.no(counter=v.counter, reason="refuted at every stage")

    return Logic("sup(" + ",".join(l.name for l in chain) + ")", sig,
                 oracle=oracle, decides=all(l.decides for l in chain))
