"""Built-in corpus: classical presentations, fragments, a three-valued
matrix, a deliberately non-congruential matrix, and the translation pair
between the two classical presentations."""

from __future__ import annotations

from . import dsl

STANDARD_DSL = """\
# Standard corpus for the command line and the test suite.

signature SigCPL1 { neg/1 imp/2 }
signature SigCPL2 { negp/1 orp/2 }
signature SigImp { imp/2 }
signature SigNeg { neg/1 }
signature SigNegImp { neg/1 imp/2 }
signature SigNC3 { bump/1 peek/1 }

# Classical logic, implication/negation presentation with a two-valued matrix.
logic CPL1 {
  signature SigCPL1
  axiom imp(x0, imp(x1, x0))
  axiom imp(imp(x0, imp(x1, x2)), imp(imp(x0, x1), imp(x0, x2)))
  axiom imp(imp(neg(x0), neg(x1)), imp(x1, x0))
  rule x0, imp(x0, x1) => x1
  matrix {
    values 0 1
    designated 1
    table neg (0)=1 (1)=0
    table imp (0,0)=1 (0,1)=1 (1,0)=0 (1,1)=1
  }
}

# Classical logic, negation/disjunction presentation, matrix only.
logic CPL2 {
  signature SigCPL2
  matrix {
    values 0 1
    designated 1
    table negp (0)=1 (1)=0
    table orp (0,0)=0 (0,1)=1 (1,0)=1 (1,1)=1
  }
}

# Three-valued Lukasiewicz matrix on the same signature as CPL1.
logic L3 {
  signature SigCPL1
  matrix {
    values 0 h 1
    designated 1
    table neg (0)=1 (h)=h (1)=0
    table imp (0,0)=1 (0,h)=1 (0,1)=1 (h,0)=h (h,h)=1 (h,1)=1 (1,0)=0 (1,h)=h (1,1)=1
  }
}

# Positive implication fragment (sound for the Boolean table; not complete).
logic IMP {
  signature SigImp
  axiom imp(x0, imp(x1, x0))
  axiom imp(imp(x0, imp(x1, x2)), imp(imp(x0, x1), imp(x0, x2)))
  rule x0, imp(x0, x1) => x1
  matrix {
    values 0 1
    designated 1
    table imp (0,0)=1 (0,1)=1 (1,0)=0 (1,1)=1
  }
}

# Fibring fragments: implication axioms alone, negation axiom alone.
logic IMPFRAG {
  signature SigImp
  axiom imp(x0, imp(x1, x0))
  axiom imp(imp(x0, imp(x1, x2)), imp(imp(x0, x1), imp(x0, x2)))
  rule x0, imp(x0, x1) => x1
}

logic NEGFRAG {
  signature SigNegImp
  axiom imp(imp(neg(x0), neg(x1)), imp(x1, x0))
  rule x0, imp(x0, x1) => x1
}

# Implication fragment carrying an (axiomless) negation in its signature,
# for constrained fibring over the shared negation.
logic IMPFRAGN {
  signature SigNegImp
  axiom imp(x0, imp(x1, x0))
  axiom imp(imp(x0, imp(x1, x2)), imp(imp(x0, x1), imp(x0, x2)))
  rule x0, imp(x0, x1) => x1
}

# A deliberately non-congruential three-valued matrix: bump collapses the
# middle value upward without changing designation, peek detects it.
logic NC3 {
  signature SigNC3
  matrix {
    values 0 h 1
    designated h 1
    table bump (0)=0 (h)=1 (1)=1
    table peek (0)=0 (h)=0 (1)=1
  }
}

# Least and greatest logics over the one-connective negation signature.
logic BotNeg {
  signature SigNeg
  bottom
}

logic TopNeg {
  signature SigNeg
  top
}

logic BotCPL1 {
  signature SigCPL1
  bottom
}

# The identity-problem pair between the two classical presentations.
morphism flexible h : SigCPL1 -> SigCPL2 {
  neg -> negp(x0)
  imp -> orp(negp(x0), x1)
}

morphism flexible k : SigCPL2 -> SigCPL1 {
  negp -> neg(x0)
  orp -> imp(neg(x0), x1)
}

# Inclusion of the implication fragment into full classical logic.
morphism flexible inclImp : SigImp -> SigCPL1 {
  imp -> imp(x0, x1)
}

morphism strict inclImpStrict : SigImp -> SigCPL1 {
  imp -> imp
}

# Span legs gluing the shared negation of the two fragments.
morphism strict shareNegLeft : SigNeg -> SigNegImp {
  neg -> neg
}

morphism strict shareNegRight : SigNeg -> SigNegImp {
  neg -> neg
}
"""

_cache: dsl.Environment | None = None


def standard_env() -> dsl.Environment:
    global _cache
    if _cache is None:
        _cache = dsl.loads(STANDARD_DSL)
    return _cache


def fresh_env() -> dsl.Environment:
    return dsl.loads(STANDARD_DSL)
