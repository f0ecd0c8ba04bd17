"""Text format for signatures, logics and morphisms, and its loader.

Block forms:

    signature NAME { conn/arity ... }

    logic NAME {
      signature SIGNAME
      axiom FORMULA
      rule FORMULA[, FORMULA]* => FORMULA
      matrix {
        values v ...
        designated v ...
        table conn (v,...)=v ...
      }
      bottom          # or: top
    }

    morphism strict NAME : SRC -> TGT { conn -> conn ... }
    morphism flexible NAME : SRC -> TGT { conn -> FORMULA ... }

SRC and TGT name signatures (or logics, which stand for their signatures).
'#' starts a comment.  Formulas use the prefix grammar of the parser.
"""

from __future__ import annotations

import re
from contextlib import contextmanager

from .consequence import Calculus, Logic, Matrix, Rule
from .formulas import Formula, InputError, ParseError, Var, fmt, parse, tokenize
from .kleisli import FlexibleMorphism
from .logic_cat import bottom, top
from .signatures import Signature, StrictMorphism


class SpecError(InputError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownName(InputError):
    """A name the environment lacks."""


class Environment:
    """Named signatures, logics and morphisms from one spec file."""

    def __init__(self):
        self.signatures: dict[str, Signature] = {}
        self.logics: dict[str, Logic] = {}
        self.morphisms: dict[str, StrictMorphism | FlexibleMorphism] = {}

    def signature(self, name: str) -> Signature:
        if name in self.signatures:
            return self.signatures[name]
        if name in self.logics:
            return self.logics[name].signature
        raise UnknownName(f"no signature or logic named {name!r}")

    def logic(self, name: str) -> Logic:
        if name not in self.logics:
            raise UnknownName(f"no logic named {name!r}")
        return self.logics[name]

    def morphism(self, name: str):
        if name not in self.morphisms:
            raise UnknownName(f"no morphism named {name!r}")
        return self.morphisms[name]

    def summary(self) -> dict:
        return {
            "signatures": sorted(self.signatures),
            "logics": sorted(self.logics),
            "morphisms": sorted(self.morphisms),
        }


_CONN = re.compile(r"^(\w+)\s*/\s*(\d+)$")
_TABLE_ENTRY = re.compile(r"\(([^()]*)\)\s*=\s*(\S+)")


def load(path: str) -> Environment:
    try:  # a NUL byte in the path, or text that is not UTF-8
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return loads(text)


def _logical_lines(text: str) -> list[tuple[str, int]]:
    """Comment-stripped lines with braces split out, keeping line numbers."""
    return [(part.strip(), lineno)
            for lineno, raw in enumerate(text.splitlines(), start=1)
            for part in re.split(r"([{}])", raw.split("#", 1)[0]) if part.strip()]


class _Stream:
    def __init__(self, items: list[tuple[str, int]]):
        self.items = items
        self.pos = 0
        self.line = 0

    def done(self) -> bool:
        return self.pos >= len(self.items)

    def next(self) -> tuple[str, int]:
        item = self.items[self.pos]
        self.pos += 1
        return item

    def expect(self, token: str) -> None:
        if self.done():
            raise SpecError(f"expected {token!r}, found end of input",
                            self.items[-1][1] if self.items else 0)
        text, line = self.next()
        if text != token:
            raise SpecError(f"expected {token!r}, found {text!r}", line)

    def block(self, what: str, at: int):
        """A block's entries and lines up to its closing brace, whose line is
        then `line`; `unterminated {what}` at `at` if it never closes."""
        while not self.done():
            text, self.line = self.next()
            if text == "}":
                return
            yield text, self.line
        raise SpecError(f"unterminated {what}", at)


@contextmanager
def _reported_at(line: int):
    """A constructor's InputError as a SpecError at `line`."""
    try:
        yield
    except InputError as exc:
        raise SpecError(str(exc), line) from None


def loads(text: str) -> Environment:
    env = Environment()
    stream = _Stream(_logical_lines(text))
    while not stream.done():
        line, lineno = stream.next()
        for head, reader in _DECLARATIONS:
            m = head.match(line)
            if m:
                stream.expect("{")
                reader(env, m, stream, lineno)
                break
        else:
            raise SpecError(f"unrecognized declaration {line!r}", lineno)
    return env


def _read_signature(env: Environment, head: re.Match, stream: _Stream, at: int) -> None:
    name = head.group(1)
    if name in env.signatures:
        raise SpecError(f"duplicate signature {name!r}", at)
    connectives: dict[str, int] = {}
    for line, lineno in stream.block(f"signature {name!r}", at):
        for item in line.split():
            m = _CONN.match(item)
            if not m:
                raise SpecError(f"expected conn/arity, found {item!r}", lineno)
            ident, arity = m.group(1), int(m.group(2))
            try:
                kinds = [kind for kind, _, _ in tokenize(ident)]
            except ParseError:
                kinds = []
            if kinds != ["ident"]:
                problem = ("would collide with a variable" if kinds[:1] == ["var"]
                           else "is not a name a formula can use")
                raise SpecError(f"connective {ident!r} {problem}", lineno)
            if ident in connectives:
                raise SpecError(f"duplicate connective {ident!r}", lineno)
            connectives[ident] = arity
    env.signatures[name] = Signature(name, connectives)


def _read_logic(env: Environment, head: re.Match, stream: _Stream, at: int) -> None:
    name = head.group(1)
    if name in env.logics:
        raise SpecError(f"duplicate logic {name!r}", at)
    sig: Signature | None = None
    axioms: list[Formula] = []
    rules: list[Rule] = []
    matrix: Matrix | None = None
    marker: str | None = None
    for line, lineno in stream.block(f"logic {name!r}", at):
        if line.startswith("signature "):
            if sig is not None:
                raise SpecError(f"logic {name!r} declares a second signature", lineno)
            with _reported_at(lineno):
                sig = env.signature(line.split(None, 1)[1].strip())
        elif line.startswith("axiom "):
            axioms.append(_parse_formula(line[len("axiom "):], sig, lineno))
        elif line.startswith("rule "):
            body = line[len("rule "):]
            if "=>" not in body:
                raise SpecError("rule needs '=>'", lineno)
            left, right = body.rsplit("=>", 1)
            premises = tuple(_parse_formula(p, sig, lineno)
                             for p in _split_top_level(left))
            if not premises:
                raise SpecError("rules need at least one premise", lineno)
            rules.append(Rule(premises, _parse_formula(right, sig, lineno)))
        elif line == "matrix":
            if matrix is not None:
                raise SpecError(f"logic {name!r} declares a second matrix", lineno)
            stream.expect("{")
            matrix = _read_matrix(stream, lineno)
        elif line in ("bottom", "top"):
            if marker is not None:
                raise SpecError(f"logic {name!r} is already {marker}", lineno)
            marker = line
        else:
            raise SpecError(f"unrecognized logic entry {line!r}", lineno)
        if marker is not None and (axioms or rules or matrix is not None):
            raise SpecError(f"logic {name!r} is {marker}; it takes no axiom, "
                            "rule or matrix", lineno)
    if sig is None:
        raise SpecError(f"logic {name!r} declares no signature", stream.line)
    if marker == "bottom":
        env.logics[name] = bottom(sig, name=name)
    elif marker == "top":
        env.logics[name] = top(sig, name=name)
    else:
        calculus = Calculus(sig, axioms, rules) if (axioms or rules) else None
        if calculus is None and matrix is None:
            raise SpecError(f"logic {name!r} has no provider", stream.line)
        with _reported_at(stream.line):
            env.logics[name] = Logic(name, sig, calculus=calculus, matrix=matrix)


def _split_top_level(text: str) -> list[str]:
    """Split on commas that are not inside parentheses."""
    parts: list[str] = []
    depth = 0
    buf = ""
    for ch in text:
        if ch == "," and depth == 0:
            parts.append(buf)
            buf = ""
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        buf += ch
    parts.append(buf)
    return [p for p in parts if p.strip()]


def _parse_formula(text: str, sig: Signature | None, line: int) -> Formula:
    if sig is None:
        raise SpecError("declare the signature before formulas", line)
    try:
        return parse(text.strip(), sig)
    except ParseError as exc:
        raise SpecError(f"in {text.strip()!r}: {exc}", line) from None


def _read_matrix(stream: _Stream, at: int) -> Matrix:
    lists: dict[str, list[str]] = {}  # the values and designated lines
    tables: dict[str, dict[tuple, str]] = {}
    for line, lineno in stream.block("matrix block", at):
        if line.startswith(("values ", "designated ")):
            word, *items = line.split()
            if word in lists:
                raise SpecError(f"second {word!r} line", lineno)
            lists[word] = items
        elif line.startswith("table "):
            parts = line.split(None, 2)
            if len(parts) < 3:
                raise SpecError("table needs entries", lineno)
            conn = parts[1]
            if conn in tables:
                raise SpecError(f"second table for {conn!r}", lineno)
            entries = tables[conn] = {}
            stray = _TABLE_ENTRY.sub(" ", parts[2]).split()
            if stray:
                raise SpecError(f"table {conn!r} has stray text {' '.join(stray)!r}", lineno)
            for m in _TABLE_ENTRY.finditer(parts[2]):
                args = tuple(a.strip() for a in m.group(1).split(",") if a.strip())
                if "(" in m.group(2):  # a value runs into the next entry
                    raise SpecError(f"table {conn!r} glues entries {m.group(0)!r}; "
                                    "separate them with a space", lineno)
                if args in entries:
                    raise SpecError(f"table {conn!r} gives cell ({','.join(args)}) twice",
                                    lineno)
                entries[args] = m.group(2)
        else:
            raise SpecError(f"unrecognized matrix entry {line!r}", lineno)
    with _reported_at(stream.line):
        return Matrix(lists.get("values", []), lists.get("designated", []), tables)


def _read_morphism(env: Environment, head: re.Match, stream: _Stream, at: int) -> None:
    kind, name, src_name, tgt_name = head.groups()
    if name in env.morphisms:
        raise SpecError(f"duplicate morphism {name!r}", at)
    with _reported_at(at):
        src, tgt = env.signature(src_name), env.signature(tgt_name)
    mapping: dict[str, object] = {}
    for line, lineno in stream.block(f"morphism {name!r}", at):
        if "->" not in line:
            raise SpecError(f"expected 'conn -> image', found {line!r}", lineno)
        left, right = line.split("->", 1)
        conn = left.strip()
        if conn not in src.connectives:
            raise SpecError(f"{conn!r} is not a connective of {src_name}", lineno)
        if kind == "strict":
            mapping[conn] = right.strip()
        else:
            mapping[conn] = _parse_formula(right, tgt, lineno)
    with _reported_at(stream.line):
        if kind == "strict":
            env.morphisms[name] = StrictMorphism(src, tgt, mapping, name=name)
        else:
            env.morphisms[name] = FlexibleMorphism(src, tgt, mapping, name=name)


# each declaration's head, and the reader of the block that follows it
_DECLARATIONS = [
    (re.compile(r"^signature\s+(\w+)$"), _read_signature),
    (re.compile(r"^logic\s+(\w+)$"), _read_logic),
    (re.compile(r"^morphism\s+(strict|flexible)\s+(\w+)\s*:\s*(\w+)\s*->\s*(\w+)$"),
     _read_morphism),
]


# ---------------------------------------------------------------------------
# Writers (used by the CLI to emit combined objects)


def dsl_name(name: str) -> str:
    """A name as a DSL identifier: its runs of word characters joined by
    underscores, so `fibring(IMPFRAG,NEGFRAG)` is written
    `fibring_IMPFRAG_NEGFRAG` and an identifier stays as it is."""
    return "_".join(re.findall(r"\w+", name))


def signature_to_dsl(sig: Signature) -> str:
    body = "\n".join(f"  {c}/{a}" for c, a in sorted(sig.connectives.items()))
    return f"signature {dsl_name(sig.name)} {{\n{body}\n}}\n"


def logic_to_dsl(logic: Logic) -> str:
    out = [f"logic {dsl_name(logic.name)} {{",
           f"  signature {dsl_name(logic.signature.name)}"]
    calculus = logic.calculus
    # an oracle-backed logic with the axiom x0 derives everything: the top logic
    is_top = (logic.oracle is not None and logic.matrix is None and calculus is not None
              and calculus.axioms == [Var(0)] and not calculus.rules)
    if calculus is not None and not is_top:
        for a in calculus.axioms:
            out.append(f"  axiom {fmt(a)}")
        for r in calculus.rules:
            prem = ", ".join(fmt(p) for p in r.premises)
            out.append(f"  rule {prem} => {fmt(r.conclusion)}")
    if logic.matrix is not None:
        m = logic.matrix
        out.append("  matrix {")
        out.append("    values " + " ".join(str(v) for v in m.values))
        out.append("    designated " + " ".join(sorted(str(v) for v in m.designated)))
        for c, table in sorted(m.tables.items()):
            entries = " ".join(
                f"({','.join(map(str, k))})={v}"
                for k, v in sorted(table.items(), key=lambda kv: tuple(map(str, kv[0]))))
            out.append(f"    table {c} {entries}")
        out.append("  }")
    if is_top:
        out.append("  top")
    elif calculus is not None and not calculus.axioms \
            and not calculus.rules and logic.matrix is None:
        out.append("  bottom")
    elif logic.oracle is not None:
        out.append("  # oracle-backed logic; presentation not expressible")
    out.append("}")
    return "\n".join(out) + "\n"


def morphism_to_dsl(m) -> str:
    """A morphism as spec text; the lift `f+` of a strict `f` is written
    `f_lifted`, so that the two load together."""
    name = re.sub(r"\+$", " lifted", m.name or "unnamed")
    out = [f"morphism {m.kind} {dsl_name(name)} : "
           f"{dsl_name(m.source.name)} -> {dsl_name(m.target.name)} {{"]
    out += [f"  {c} -> {image}" for c, image in sorted(m.images.items())]
    out.append("}")
    return "\n".join(out) + "\n"
