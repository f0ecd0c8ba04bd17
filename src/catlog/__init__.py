"""Finitary propositional logics, flexible signature morphisms, their
Kleisli calculus, combination constructions, and interderivability
quotients, with bounded law checking throughout."""

from .formulas import (
    App, Formula, InputError, ParseError, StructuralError, Substitution, Var,
    app, complexity, compose_substitutions, enumerate_formulas, enumerate_slice,
    fmt, parse, substitute, var, variables,
)
from .signatures import (
    Morphism, Signature, StrictMorphism, UnsupportedConstruction, compose_strict,
    identity_morphism, signature_coproduct, signature_product,
    signature_pushout, strict_extension,
)
from .kleisli import (
    FlexibleMorphism, flexible_extension, is_regular, is_weak_terminal,
    kleisli_compose, kleisli_identity, lift_strict,
)
from .consequence import (
    Budget, Calculus, Logic, Matrix, Proof, Rule, Verdict, derives,
    interderivable, matrix_consequence, verify_proof,
)
from .logic_cat import (
    Translation, bottom, check_translation, direct_image,
    fibring_constrained, fibring_unconstrained, inverse_image, product_logic,
    top,
)
from .quotient import (
    congruential_closure, is_congruential, lindenbaum_delta_check,
    morphisms_equivalent, rigidity_probe, weak_equivalence,
)

__version__ = "0.1.0"
