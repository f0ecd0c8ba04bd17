"""Translations between logics and their combination constructions.

A translation is a signature morphism that preserves consequence, and
`check_translation` alone decides it: on the generating presentation of a
presented source (one `consequence.refutation_sweep` over the translated
axioms and rules), by `consequence.model_of` on the source matrix and
the target's `reduct`, read under the provider rule, for a source given by
a matrix alone.  Its status words (verified, refuted, unknown) are
`consequence`'s.  Strict and flexible morphisms both act on formulas
through `Morphism.extension` (`translate_formula`).  Combinations build
the signature part first and then equip it with a delegating oracle or
with the generated join of the components' presentations pushed forward
along the cocone legs (`push_calculus`, in `_colimit_logic`); none builds
along a refuted leg.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .consequence import (
    AxiomInstance, Budget, Calculus, DEFAULT_BUDGET, Hypothesis, Logic, Matrix,
    Proof, ProofWriter, REFUTED, Rule, RuleInstance, SignatureMismatch, UNKNOWN,
    VERIFIED, Verdict, YES, derives, exact_matrix, generated_join, model_of,
    refutation_sweep, transform_proof, truth_function,
)
from .formulas import InputError, Substitution, Var, fmt, json_value
from .kleisli import (
    FlexibleMorphism, directed_colimit_signatures, kleisli_compose, lift_strict,
)
from .signatures import (
    Morphism, Signature, StrictMorphism, UnsupportedConstruction, compose_strict,
    identity_morphism, signature_coproduct, signature_product, signature_pushout,
    strict_extension,
)


def as_flexible(morphism) -> FlexibleMorphism:
    if isinstance(morphism, StrictMorphism):
        return lift_strict(morphism)
    return morphism


translate_formula = Morphism.extension


def push_calculus(morphism, calculus: Calculus) -> Calculus:
    """Every axiom and rule of a presentation translated, in order.

    Proofs cite axioms and rules by index, so the order is kept.
    """
    axioms = [translate_formula(morphism, a) for a in calculus.axioms]
    rules = [Rule(tuple(translate_formula(morphism, p) for p in r.premises),
                  translate_formula(morphism, r.conclusion))
             for r in calculus.rules]
    return Calculus(morphism.target, axioms, rules)


@dataclass
class Translation:
    """A signature morphism together with its derivability-preservation status."""

    morphism: Morphism
    source: Logic
    target: Logic
    status: str = UNKNOWN
    evidence: list = field(default_factory=list)
    witness: dict | None = None

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED

    def to_json(self) -> dict:
        out = {
            "morphism": self.morphism.to_json(),
            "source": self.source.name,
            "target": self.target.name,
            "status": self.status,
        }
        if self.evidence:
            out["evidence"] = json_value(self.evidence)
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def check_translation(morphism, source: Logic, target: Logic,
                      budget: Budget = DEFAULT_BUDGET,
                      semantic: bool = False) -> Translation:
    """Decide whether the morphism preserves consequence, by source kind.

    - Presented: verified when every translated axiom is target-derivable
      and every translated rule target-admissible; refuted, with the scheme
      as witness, when the target refutes an image.  `semantic=True` asks
      for no proofs, so a target matrix decides (`exact_matrix`).
    - A matrix alone, into a target with a matrix: `model_of` on the
      source matrix and the target's reduct along h, whose failing sequent
      (valid in the source, its image refuted by the counter) refutes and
      whose pass verifies.  A failure counts only when the source matrix
      is all of its logic, a pass only when the target's is
      (`exact_matrix`); else the answer is unknown.
    - Anything else: verified when the target derives x0 from no premises
      (it then derives everything), with that verdict as evidence; else
      unknown.
    """
    h = morphism
    if h.source != source.signature or h.target != target.signature:
        raise SignatureMismatch("morphism endpoints do not match the logics")
    if source.calculus is None:
        if source.matrix is None or target.matrix is None:
            # a target deriving x0 from nothing derives every sequent, by
            # substitution, so every morphism into it is a translation
            v = derives(target, [], Var(0), budget, proof=not semantic)
            if v.is_yes:
                return Translation(h, source, target, VERIFIED,
                                   evidence=[{"derives_x0": v.to_json()}])
            return Translation(h, source, target, UNKNOWN,
                               evidence=["neither a presentation nor two matrices"])
        v, sequent = model_of(h.source, source.matrix, reduct(target.matrix, h))
        needed = source if v.is_no else target
        if not v.is_unknown and exact_matrix(needed, proof=not semantic) is None:
            v = Verdict.unknown(reason=f"{v.reason}, but {needed.name}'s matrix is "
                                       "not its only provider")
        if v.is_no:
            premises, conclusion = sequent
            witness = {"premises": [*map(fmt, premises)], "conclusion": fmt(conclusion),
                       "premise_images": [fmt(translate_formula(h, p)) for p in premises],
                       "conclusion_image": fmt(translate_formula(h, conclusion)),
                       "counter": v.counter_json()}
            return Translation(h, source, target, REFUTED, witness=witness)
        return Translation(h, source, target, v.outcome(VERIFIED),
                           evidence=[{"model_check": v.status, "reason": v.reason}])
    calc = source.calculus
    evidence = []

    def checks():
        # the axioms, then the rules, as one sequence of sequents
        sequents = [(i, (), a, None) for i, a in enumerate(calc.axioms)]
        sequents += [(i, r.premises, r.conclusion, r) for i, r in enumerate(calc.rules)]
        for i, premises, conclusion, rule in sequents:
            gamma = [translate_formula(h, p) for p in premises]
            image = translate_formula(h, conclusion)
            v = derives(target, gamma, image, budget, proof=not semantic)
            if rule is None:
                evidence.append({"axiom": i, "image": image,
                                 "verdict": v.status, "proof": v.proof})
            else:
                evidence.append({"rule": i, "conclusion_image": image,
                                 "verdict": v.status, "proof": v.proof})
            yield (i, gamma, conclusion, image, rule), v

    refuting, v = refutation_sweep(checks())
    if v.is_no:
        i, gamma, conclusion, image, rule = refuting
        if rule is None:
            witness = {"axiom": fmt(conclusion), "image": fmt(image)}
        else:
            witness = {"rule": i, "premise_images": [fmt(p) for p in gamma],
                       "conclusion_image": fmt(image)}
        witness["counter"] = v.counter_json()
        return Translation(h, source, target, REFUTED, witness=witness)
    return Translation(h, source, target, v.outcome(VERIFIED), evidence=evidence)


def reduct(matrix: Matrix, morphism) -> Matrix:
    """M^h: the matrix's values and designated set, with each source
    connective c read as the truth function of h(c) in the matrix."""
    return Matrix(matrix.values, matrix.designated, {
        c: dict(zip(itertools.product(matrix.values, repeat=arity),
                    truth_function(matrix, morphism.assignment[c], arity)))
        for c, arity in morphism.source.connectives.items()})


# ---------------------------------------------------------------------------
# Inverse and direct image


def inverse_image(morphism, target: Logic, name: str = "") -> Logic:
    """Pull the target's consequence back along the morphism."""

    def oracle(gamma, phi, budget):
        image_gamma = [translate_formula(morphism, g) for g in gamma]
        image_phi = translate_formula(morphism, phi)
        return derives(target, image_gamma, image_phi, budget)

    return Logic(name or f"{target.name}^*", morphism.source,
                 oracle=oracle, decides=target.decides)


def direct_image(morphism, source: Logic, name: str = "") -> Logic:
    """Push a presented consequence forward along the morphism."""
    if source.calculus is None:
        raise InputError("direct image needs a presented source")
    return Logic(name or f"{source.name}_*", morphism.target,
                 calculus=push_calculus(morphism, source.calculus))


def bottom(sig: Signature, name: str = "") -> Logic:
    """Least consequence relation: membership only, presented by nothing."""

    def oracle(gamma, phi, budget):
        if phi in gamma:
            return Verdict.yes(proof=None, reason="membership",
                               used=frozenset((phi,)), detail={"member": fmt(phi)})
        return Verdict.no(reason="not a member; the least logic proves nothing else")

    return Logic(name or f"bottom({sig.name})", sig, calculus=Calculus(sig, [], []),
                 oracle=oracle, decides=True)


def top(sig: Signature, name: str = "") -> Logic:
    """Greatest consequence relation: everything follows from the axiom x0."""

    def oracle(gamma, phi, budget):
        return Verdict.yes(reason="top logic", used=frozenset())

    return Logic(name or f"top({sig.name})", sig, calculus=Calculus(sig, [Var(0)], []),
                 oracle=oracle, decides=True)


# ---------------------------------------------------------------------------
# Proof transport along verified translations


def push_proof(translation: Translation, proof: Proof) -> Proof:
    """Translate a source proof into a target proof, splicing the evidence.

    Axiom steps are replaced by the recorded target proofs of the axiom
    images; rule steps by the recorded admissibility proofs, with their
    hypothesis steps wired to the already-built premise images.  Refuses a
    translation that is not verified, and one whose evidence records no
    proof of the image of an axiom or rule the proof uses: a composite, a
    matrix check, or a yes that came without a proof.
    """
    if not translation.verified:
        raise InputError("can only push proofs along verified translations")
    h = translation.morphism
    recorded: dict[tuple[str, int], Proof] = {}
    for entry in translation.evidence:
        if isinstance(entry, dict) and entry.get("proof") is not None:
            kind = "axiom" if "axiom" in entry else "rule"
            recorded[kind, entry[kind]] = entry["proof"]

    writer = ProofWriter()

    def splice(kind: str, i: int, sigma: Substitution) -> None:
        """Write the recorded proof for axiom or rule i, at sigma pushed
        along h; its hypothesis steps that are already-built premise
        images get their indices from the writer."""
        if (kind, i) not in recorded:
            raise InputError(f"{h.name or 'unnamed'} records no proof of the "
                             f"image of {kind} {i}")
        sub = transform_proof(recorded[kind, i], Substitution(
            {v: translate_formula(h, sigma(v)) for v in sigma.mapping}))
        local: dict[int, int] = {}
        for k, step in enumerate(sub.steps):
            j = step.justification
            if isinstance(j, RuleInstance):
                j = RuleInstance(j.rule, j.substitution, tuple(local[p] for p in j.premises))
            local[k] = writer.write(step.formula, j)

    for step in proof.steps:
        j = step.justification
        if isinstance(j, Hypothesis):
            writer.write(translate_formula(h, step.formula), Hypothesis())
        elif isinstance(j, AxiomInstance):
            splice("axiom", j.axiom, j.substitution)
        else:
            splice("rule", j.rule, j.substitution)
    return writer.proof()


def compose_translations(outer: Translation, inner: Translation) -> Translation:
    """Composite translation: verified without re-search when both parts
    are, unknown otherwise."""
    if inner.target is not outer.source and inner.target.signature != outer.source.signature:
        raise SignatureMismatch("translations not composable")
    composite = kleisli_compose(as_flexible(outer.morphism), as_flexible(inner.morphism))
    if inner.verified and outer.verified:
        return Translation(composite, inner.source, outer.target, VERIFIED,
                           evidence=["composed from verified parts"])
    # a refuted part does not refute the composite: the other leg can map
    # the broken images to theorems
    return Translation(composite, inner.source, outer.target, UNKNOWN)


# ---------------------------------------------------------------------------
# Combination of logics


def verbatim_translation(morphism, source: Logic, target: Logic) -> Translation:
    """Injection-style translation whose images sit verbatim in the target.

    Builds one-step derivations (axiom instance / single rule application)
    instead of searching.
    """
    calc = target.calculus
    pushed = push_calculus(morphism, source.calculus)
    evidence = []
    for i, image in enumerate(pushed.axioms):
        writer = ProofWriter()
        writer.write(image, AxiomInstance(calc.axioms.index(image), Substitution()))
        evidence.append({"axiom": i, "image": image, "verdict": YES,
                         "proof": writer.proof()})
    for i, rule in enumerate(pushed.rules):
        writer = ProofWriter()
        premises = tuple(writer.write(p, Hypothesis()) for p in rule.premises)
        writer.write(rule.conclusion, RuleInstance(
            calc.rules.index(rule), Substitution(), premises))
        evidence.append({"rule": i, "conclusion_image": rule.conclusion,
                         "verdict": YES, "proof": writer.proof()})
    return Translation(morphism, source, target, VERIFIED, evidence=evidence)


def _refuse_refuted(legs) -> None:
    """Nothing is built along a refuted translation; unknown legs pass."""
    for role, t in legs:
        if t.status == REFUTED:
            raise InputError(
                f"{role} {t.morphism.name or 'unnamed'} ({t.source.name} -> "
                f"{t.target.name}) is refuted; nothing is built along it")


def _colimit_logic(name: str, sig: Signature, legs: list[tuple[Morphism, Logic]],
                   shared: Calculus | None = None) -> tuple[Logic, list[Translation]]:
    """Colimit vertex: the components' presentations pushed along their legs
    and joined, a pushout's pushed shared one last; a verbatim cocone."""
    pushed = [push_calculus(leg, logic.calculus) for leg, logic in legs]
    if shared is not None:
        pushed.append(shared)
    combined = Logic(name, sig, calculus=generated_join(pushed))
    return combined, [verbatim_translation(leg, logic, combined) for leg, logic in legs]


def fibring_unconstrained(l1: Logic, l2: Logic) -> tuple[Logic, Translation, Translation]:
    """Coproduct of logics: disjoint signatures, union of presentations."""
    if l1.calculus is None or l2.calculus is None:
        raise InputError("fibring needs presented components")
    sig, (in1, in2) = signature_coproduct([l1.signature, l2.signature],
                                          name=f"{l1.name}+{l2.name}")
    combined, (t1, t2) = _colimit_logic(f"fibring({l1.name},{l2.name})", sig,
                                        [(in1, l1), (in2, l2)])
    return combined, t1, t2


def fibring_constrained(left_leg: Translation, right_leg: Translation
                        ) -> tuple[Logic, Translation, Translation]:
    """Pushout of logics over a shared sublogic, for strict spans only."""
    f, g = left_leg.morphism, right_leg.morphism
    if not isinstance(f, StrictMorphism) or not isinstance(g, StrictMorphism):
        raise UnsupportedConstruction(
            "constrained fibring is only available over strict spans")
    if left_leg.source.signature != right_leg.source.signature:
        raise SignatureMismatch("span legs must share their source logic")
    _refuse_refuted([("left leg", left_leg), ("right leg", right_leg)])
    l1, l2 = left_leg.target, right_leg.target
    if l1.calculus is None or l2.calculus is None:
        raise InputError("constrained fibring needs presented components")
    sig, po_left, po_right = signature_pushout(f, g)
    shared = left_leg.source.calculus
    if shared is not None:
        shared = push_calculus(compose_strict(po_left, f), shared)
    combined, (t1, t2) = _colimit_logic(f"pushout({l1.name},{l2.name})", sig,
                                        [(po_left, l1), (po_right, l2)], shared)
    return combined, t1, t2


def product_logic(l1: Logic, l2: Logic) -> tuple[Logic, Translation, Translation]:
    """Product: a sequent holds when both projected sequents hold; a yes
    carries both projected verdicts, with their proofs."""
    sig, (p1, p2) = signature_product([l1.signature, l2.signature])

    def oracle(gamma, phi, budget):
        v1 = derives(l1, [strict_extension(p1, g) for g in gamma],
                     strict_extension(p1, phi), budget)
        if v1.is_no:
            return Verdict.no(counter=v1.counter, reason=f"fails in {l1.name}")
        v2 = derives(l2, [strict_extension(p2, g) for g in gamma],
                     strict_extension(p2, phi), budget)
        if v2.is_no:
            return Verdict.no(counter=v2.counter, reason=f"fails in {l2.name}")
        if v1.is_yes and v2.is_yes:
            return Verdict.yes(detail={"left": v1.to_json(), "right": v2.to_json()})
        return Verdict.unknown(reason="a projection is undecided")

    combined = Logic(f"product({l1.name},{l2.name})", sig,
                     oracle=oracle, decides=l1.decides and l2.decides)
    t1 = Translation(p1, combined, l1, VERIFIED, evidence=["defining clause"])
    t2 = Translation(p2, combined, l2, VERIFIED, evidence=["defining clause"])
    return combined, t1, t2


def check_chain(stages: list[Logic], maps: list[Translation]) -> None:
    """One unrefuted map from each stage's signature to the next one's."""
    if len(maps) != len(stages) - 1:
        raise InputError("need one chain map per consecutive stage pair")
    for i, t in enumerate(maps):
        if t.source.signature != stages[i].signature \
                or t.target.signature != stages[i + 1].signature:
            raise SignatureMismatch("chain maps do not line up with the stages")
    _refuse_refuted([(f"chain map {i}", t) for i, t in enumerate(maps)])


def directed_colimit_logics(stages: list[Logic], maps: list[Translation]
                            ) -> tuple[Logic, list[Translation]]:
    """Colimit of a chain: union of the pushed-forward presentations.

    Repeats stay: the union concatenates the stages' presentations in
    order, so a shared axiom or rule appears once per stage, and the
    cocone's proofs cite each image at its first occurrence (`list.index`).
    """
    if not all(isinstance(t.morphism, StrictMorphism) for t in maps):
        raise UnsupportedConstruction("colimit chains must be strict")
    check_chain(stages, maps)
    chain = [t.morphism for t in maps]
    if chain:
        vertex_sig, cocone = directed_colimit_signatures(chain)
    else:
        vertex_sig = stages[0].signature
        cocone = [identity_morphism(vertex_sig)]
    if any(logic.calculus is None for logic in stages):
        raise InputError("colimit stages need presentations")
    return _colimit_logic("colim(" + ",".join(l.name for l in stages) + ")",
                          vertex_sig, list(zip(cocone, stages)))
