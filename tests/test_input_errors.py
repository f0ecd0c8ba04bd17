"""Bad input exits 3 with one `error:` line; a bug ends in a traceback."""

import itertools
import random
import re

import pytest

from catlog import cli, corpus, dsl
from catlog.formulas import MAX_DEPTH


def _exits_with_one_error_line(capsys, argv) -> str:
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("budget, part", [("x", "x"), ("", ""), ("1,,2,3", "")],
                         ids=["word", "empty", "empty-part"])
def test_a_budget_part_that_is_not_an_integer_exits_usage(capsys, budget, part):
    err = _exits_with_one_error_line(
        capsys, ["--budget", budget, "prove", "--logic", "CPL1", "--goal", "x0"])
    assert err == f"error: budget {budget!r}: {part!r} is not an integer\n"


def test_a_spec_that_is_not_utf8_exits_usage(tmp_path, capsys):
    spec = tmp_path / "latin1.logic"
    spec.write_bytes("# café\n".encode("latin-1"))
    err = _exits_with_one_error_line(capsys, ["--spec", str(spec), "validate"])
    assert err == "error: 'utf-8' codec can't decode byte 0xe9 in position 5: " \
        "invalid continuation byte\n"


@pytest.mark.parametrize("flag", ["--spec", "--json"])
def test_a_path_with_a_nul_byte_exits_usage(tmp_path, capsys, flag):
    err = _exits_with_one_error_line(capsys, [flag, f"{tmp_path}/a\0b", "validate"])
    assert err == "error: embedded null byte\n"


def test_equipollence_with_endpoints_off_the_logics_exits_usage(capsys):
    # IMPFRAG has no matrix, so only the endpoint check stops h: SigCPL1 ->
    # SigCPL2 before CPL1's matrix is asked for CPL2's connectives
    err = _exits_with_one_error_line(capsys, [
        "equipollent", "--source", "IMPFRAG", "--target", "CPL1", "--via", "h", "--back", "k"])
    assert err == "error: morphism endpoints do not match the logics\n"


def _nested(depth: int) -> str:
    return "neg(" * depth + "x0" + ")" * depth


def test_a_formula_nested_to_the_bound_gets_an_answer(capsys):
    assert cli.main(["prove", "--logic", "CPL1", "--goal", _nested(MAX_DEPTH)]) == 1
    assert capsys.readouterr().out.startswith("CPL1: no\n")


def test_a_goal_nested_past_the_bound_exits_usage(capsys):
    err = _exits_with_one_error_line(
        capsys, ["prove", "--logic", "CPL1", "--goal", _nested(MAX_DEPTH + 1)])
    assert err == f"error: formula nested deeper than {MAX_DEPTH} " \
        f"(at position {4 * MAX_DEPTH})\n"


def test_a_spec_axiom_nested_past_the_bound_names_its_line():
    text = f"signature S {{ neg/1 }}\nlogic L {{\n  signature S\n" \
        f"  axiom {_nested(MAX_DEPTH + 1)}\n}}\n"
    with pytest.raises(dsl.SpecError, match=f"^line 4: .*: formula nested deeper than "
                                            f"{MAX_DEPTH} ") as err:
        dsl.loads(text)
    assert err.value.line == 4


# Each command given the morphism m between logics s and t, where m may not fit
OFF_ENDPOINT_COMMANDS = {
    "translate": lambda m, s, t: ["translate", "--via", m, "--source", s, "--target", t],
    "equipollent": lambda m, s, t: [
        "equipollent", "--via", m, "--back", m, "--source", s, "--target", t],
    "colimit-chain": lambda m, s, t: ["colimit-chain", "--stages", f"{s},{t}", "--maps", m],
    "quotient-equal": lambda m, s, t: [
        "quotient-equal", "--left", m, "--right", m, "--source", s, "--target", t],
    "fibre-shared": lambda m, s, t: [
        "fibre-shared", "--shared", s, "--left", t, "--right", t,
        "--left-map", m, "--right-map", m],
}


@pytest.mark.parametrize("command", OFF_ENDPOINT_COMMANDS)
def test_every_morphism_off_its_logics_exits_usage(monkeypatch, capsys, command):
    env = corpus.standard_env()
    monkeypatch.setattr(corpus, "fresh_env", lambda: env)  # each call fails before it builds
    # one logic per signature and provider kind, one morphism per endpoints and kind
    logics = {(lg.signature, lg.matrix is None, lg.calculus is None): n
              for n, lg in env.logics.items()}.values()
    morphisms = {(h.source, h.target, type(h)): n for n, h in env.morphisms.items()}.values()
    for m, s, t in itertools.product(morphisms, logics, logics):
        h = env.morphism(m)
        if h.target == env.logic(t).signature and (
                command == "quotient-equal" or h.source == env.logic(s).signature):
            continue
        _exits_with_one_error_line(capsys, OFF_ENDPOINT_COMMANDS[command](m, s, t))


@pytest.mark.parametrize("bug", [KeyError("x0"), ValueError("bad unpack")],
                         ids=["KeyError", "ValueError"])
def test_a_bug_ends_in_a_traceback_not_in_exit_3(monkeypatch, bug):
    def broken(*args, **kwargs):
        raise bug

    monkeypatch.setattr(cli, "derives", broken)
    with pytest.raises(type(bug)) as raised:
        cli.main(["prove", "--logic", "CPL1", "--goal", "imp(x0, x0)"])
    assert raised.value is bug


# One cheap command each; `fibre` builds without a goal, so it never searches.
MUTATION_COMMANDS = [
    ["validate"],
    ["prove", "--logic", "CPL1", "--goal", "imp(x0, x0)"],
    ["translate", "--via", "h", "--source", "CPL1", "--target", "CPL2"],
    ["congruential", "--logic", "NC3"],
    ["check-morphism", "--name", "k"],
    ["--budget", "2,2,1,1", "fibre", "--left", "IMPFRAG", "--right", "NEGFRAG"],
]
_TOKEN = re.compile(r"\w+|[^\w\s]")


def _mutate(text: str, rng: random.Random) -> str:
    """`text` after one or two edits: drop a line, duplicate a line, replace
    a token with another token of the text, or insert a character."""
    tokens = _TOKEN.findall(text)
    for _ in range(rng.randint(1, 2)):
        lines = text.split("\n")
        i = rng.randrange(len(lines))
        spans = [m.span() for m in _TOKEN.finditer(lines[i])]
        edit = rng.randrange(4)
        if edit == 0:
            del lines[i]
        elif edit == 1:
            lines.insert(i, lines[i])
        elif edit == 2 and spans:
            start, end = rng.choice(spans)
            lines[i] = lines[i][:start] + rng.choice(tokens) + lines[i][end:]
        else:
            at = rng.randrange(len(lines[i]) + 1)
            lines[i] = lines[i][:at] + rng.choice("(){},=>/#-x01 \n\té") + lines[i][at:]
        text = "\n".join(lines)
    return text


def test_mutated_specs_exit_0_to_3_with_one_error_line(tmp_path, capsys):
    rng = random.Random(20140415)
    spec = tmp_path / "mutated.logic"
    for n in range(300):
        text = _mutate(corpus.STANDARD_DSL, rng)
        argv = ["--spec", str(spec), *MUTATION_COMMANDS[n % len(MUTATION_COMMANDS)]]
        spec.write_text(text, encoding="utf-8")
        try:
            code = cli.main(argv)
        except Exception as exc:
            raise AssertionError(f"mutation {n} escaped {argv}:\n{text}") from exc
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (n, argv, text)
        if code == 3:
            assert err.startswith("error: ") and err.count("\n") == 1, (n, err, text)
