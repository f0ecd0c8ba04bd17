"""Hand-written expected answers (expected.txt) and how answers compare."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

EXPECTED_FILE = Path(__file__).with_name("expected.txt")


@dataclass(frozen=True)
class Expectation:
    answer: str
    defect: bool
    why: str


def load_expected(path: Path = EXPECTED_FILE) -> dict[str, Expectation]:
    out: dict[str, Expectation] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        op_id, answer, defect, why = (part.strip() for part in line.split("|", 3))
        if op_id in out:
            raise ValueError(f"duplicate expectation for {op_id}")
        out[op_id] = Expectation(answer, defect == "defect", why)
    return out


def contradicts(expected: str, answer: str) -> bool:
    return answer != "unknown" and answer != expected
