"""Correctness checks for benchmark answers.

An answer is an error when it contradicts the hand-written expectation in
expected.txt ("unknown" never does), or when its certificate fails: a "yes"
whose proof fails `verify_proof` or is refuted by the logic's sound matrix,
or a "no" whose countervaluation does not refute in that matrix.
"""

from __future__ import annotations

from catlog import consequence
from catlog.consequence import (
    AxiomInstance, Hypothesis, Proof, RuleInstance, Step, matrix_consequence,
)
from catlog.formulas import Substitution, parse


def proof_from_json(data: dict, sig) -> Proof:
    """Rebuild a Proof from `Proof.to_json` output, parsing over sig."""

    def substitution(mapping: dict) -> Substitution:
        return Substitution({int(k[1:]): parse(v, sig) for k, v in mapping.items()})

    steps = []
    for entry in data["steps"]:
        if entry["by"] == "hypothesis":
            just = Hypothesis()
        elif entry["by"] == "axiom":
            just = AxiomInstance(entry["axiom"], substitution(entry["substitution"]))
        else:
            just = RuleInstance(entry["rule"], substitution(entry["substitution"]),
                                tuple(entry["premises"]))
        steps.append(Step(parse(entry["formula"], sig), just))
    return Proof(steps)


def _designated(matrix, phi, valuation) -> bool:
    return matrix.is_designated(matrix.evaluate(phi, valuation))


def _valuation(counter: dict) -> dict:
    return {int(k[1:]): v for k, v in counter.items()}


def proof_error(logic, gamma, goal, proof: Proof) -> str | None:
    """Why a claimed proof of gamma |- goal is not acceptable, or None."""
    if not consequence.verify_proof(logic, gamma, goal, proof):
        return "proof fails verify_proof"
    if logic.matrix is not None and not matrix_consequence(logic.matrix, gamma, goal)[0]:
        return "sound matrix refutes a proved sequent"
    return None


def derivation_error(logic, gamma, goal, status: str, proof: Proof | None,
                     counter: dict | None) -> str | None:
    """Certificate check for one `derives` answer."""
    if status == "yes" and proof is not None:
        return proof_error(logic, gamma, goal, proof)
    if status == "no":
        if logic.matrix is None or counter is None:
            return "no without a checkable countervaluation"
        valuation = _valuation(counter)
        if not (all(_designated(logic.matrix, g, valuation) for g in gamma)
                and not _designated(logic.matrix, goal, valuation)):
            return "countervaluation does not refute"
    return None


def interderivable_error(logic, phi, psi, status: str, detail: dict | None,
                         counter: dict | None) -> str | None:
    """Certificate check for one `interderivable` answer: both directions'
    proofs when the yes came from search, a separating valuation for no."""
    if status == "yes" and detail is not None:
        for key, gamma, goal in (("forward", [phi], psi), ("backward", [psi], phi)):
            proof = proof_from_json(detail[key]["proof"], logic.signature)
            err = proof_error(logic, gamma, goal, proof)
            if err is not None:
                return f"{key}: {err}"
    if status == "no":
        if logic.matrix is None or counter is None:
            return "no without a checkable countervaluation"
        valuation = _valuation(counter)
        if _designated(logic.matrix, phi, valuation) == \
                _designated(logic.matrix, psi, valuation):
            return "valuation does not separate"
    return None
