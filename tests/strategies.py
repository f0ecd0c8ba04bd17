"""Hypothesis strategies, and small fixed inputs, shared across the test
modules."""

import hypothesis.strategies as st

from catlog.formulas import App, Substitution, Var
from catlog.signatures import Signature

CPL1_SIG = Signature("SigCPL1", {"neg": 1, "imp": 2})
CPL2_SIG = Signature("SigCPL2", {"negp": 1, "orp": 2})
MIXED_SIG = Signature("Mixed", {"e": 0, "u": 1, "b": 2})

# a calculus whose rules have three and four premises, for the prover's lanes
UT_SPEC = """
signature UT { u/1 t/3 q/1 p/2 }
logic UT {
  signature UT
  axiom u(x0)
  axiom p(x0, u(x0))
  rule u(x0), u(x1), u(x2) => t(x0, x1, x2)
  rule p(x0, x1), p(x1, x2), p(x2, x0), u(x1) => q(x0)
  rule x0, p(x0, x1) => x1
}
"""


def subformulas(phi):
    """The set of phi's subformulas, phi among them."""
    out = {phi}
    if isinstance(phi, App):
        for a in phi.args:
            out |= subformulas(a)
    return out


def signatures(max_connectives=3, max_arity=2):
    def build(arities):
        return Signature("S", {f"c{i}": a for i, a in enumerate(arities)})
    return st.lists(st.integers(min_value=0, max_value=max_arity),
                    min_size=1, max_size=max_connectives).map(build)


def formulas(sig, max_vars=3, max_depth=3):
    leaves = st.integers(min_value=0, max_value=max_vars - 1).map(Var)
    constants = [App(c, ()) for c, a in sig.connectives.items() if a == 0]
    if constants:
        leaves = leaves | st.sampled_from(constants)

    def extend(children):
        options = []
        for c, arity in sorted(sig.connectives.items()):
            if arity > 0:
                options.append(st.tuples(*([children] * arity)).map(
                    lambda args, c=c: App(c, args)))
        if not options:
            return children
        return st.one_of(options)

    return st.recursive(leaves, extend, max_leaves=2 ** max_depth)


def substitutions(sig, max_vars=3):
    return st.dictionaries(
        st.integers(min_value=0, max_value=max_vars - 1),
        formulas(sig, max_vars=max_vars, max_depth=2),
        max_size=max_vars,
    ).map(Substitution)
