import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from catlog import cli, corpus, dsl
from catlog.consequence import derives
from catlog.formulas import parse
from catlog.kleisli import lift_strict
from catlog.logic_cat import fibring_unconstrained
from catlog.signatures import Signature


def test_corpus_loads_and_resolves():
    env = corpus.fresh_env()
    assert env.logic("CPL1").matrix is not None
    assert env.logic("CPL2").calculus is None
    assert env.morphism("h").source == env.signature("SigCPL1")
    assert env.signature("CPL1") == env.signature("SigCPL1")


def test_duplicate_logic_name_rejected():
    text = """
    signature S { neg/1 }
    logic L {
      signature S
      bottom
    }
    logic L {
      signature S
      top
    }
    """
    with pytest.raises(dsl.SpecError) as err:
        dsl.loads(text)
    assert "duplicate" in str(err.value)


def test_slice_invariant_error_on_morphism():
    text = """
    signature A { imp/2 }
    signature B { orp/2 }
    morphism flexible bad : A -> B {
      imp -> orp(x0, x0)
    }
    """
    with pytest.raises(dsl.SpecError) as err:
        dsl.loads(text)
    assert "slice" in str(err.value)


def test_parse_error_carries_line():
    text = "signature A { imp/2 }\nlogic L {\n signature A\n axiom imp(x0\n}"
    with pytest.raises(dsl.SpecError) as err:
        dsl.loads(text)
    assert err.value.line == 4


def test_unknown_reference_rejected():
    with pytest.raises(dsl.SpecError):
        dsl.loads("logic L { signature Missing bottom }")


def test_unknown_connective_in_morphism():
    text = """
    signature A { neg/1 }
    signature B { negp/1 }
    morphism strict bad : A -> B { other -> negp }
    """
    with pytest.raises(dsl.SpecError):
        dsl.loads(text)


def test_logic_round_trips_through_writer():
    env = corpus.fresh_env()
    text = dsl.signature_to_dsl(env.signature("SigCPL1")) + \
        dsl.logic_to_dsl(env.logic("CPL1"))
    again = dsl.loads(text)
    logic = again.logic("CPL1")
    assert logic.signature == env.signature("SigCPL1")
    assert logic.calculus.axioms == env.logic("CPL1").calculus.axioms
    assert logic.matrix.tables == env.logic("CPL1").matrix.tables


def _corpus_logics_and_a_fibring_of_bottoms():
    env = corpus.fresh_env()
    bot = env.logic("BotNeg")
    fibred, _, _ = fibring_unconstrained(bot, bot)
    return [*(env.logics[name] for name in sorted(env.logics)), fibred]


@pytest.mark.parametrize("logic", _corpus_logics_and_a_fibring_of_bottoms(),
                         ids=lambda logic: logic.name)
def test_every_logic_round_trips_through_writer(logic):
    text = dsl.signature_to_dsl(logic.signature) + dsl.logic_to_dsl(logic)
    [again] = dsl.loads(text).logics.values()
    assert again.signature == logic.signature
    for part in "calculus", "matrix":
        assert (getattr(again, part) is None) == (getattr(logic, part) is None)
    if logic.calculus is not None:
        assert again.calculus.axioms == logic.calculus.axioms
        assert again.calculus.rules == logic.calculus.rules
    if logic.matrix is not None:
        assert again.matrix.tables == logic.matrix.tables
        assert again.matrix.designated == logic.matrix.designated
    if "bottom" in text.split():
        x0 = parse("x0", again.signature)
        assert derives(again, [x0], x0).is_yes
        assert derives(again, [], x0).is_no


def test_top_logic_round_trips_as_top():
    text = dsl.logic_to_dsl(corpus.fresh_env().logic("TopNeg"))
    assert "  top\n" in text and "axiom" not in text
    again = dsl.loads("signature SigNeg { neg/1 }\n" + text).logic("TopNeg")
    assert again.decides
    x0 = parse("x0", again.signature)
    verdict = derives(again, [], x0)
    assert verdict.is_yes and verdict.reason == "top logic"


def test_written_morphisms_load_back():
    env = corpus.fresh_env()
    _, t1, _ = fibring_unconstrained(env.logic("IMPFRAG"), env.logic("NEGFRAG"))
    lifted = lift_strict(env.morphism("inclImpStrict"))
    for morphism in t1.morphism, lifted:
        text = (dsl.signature_to_dsl(morphism.source)
                + dsl.signature_to_dsl(morphism.target) + dsl.morphism_to_dsl(morphism))
        [again] = dsl.loads(text).morphisms.values()
        assert again.kind == morphism.kind
        assert again.images == morphism.images
    assert "morphism strict IMPFRAG_NEGFRAG_in0 : SigImp -> IMPFRAG_NEGFRAG {" in \
        dsl.morphism_to_dsl(t1.morphism)
    assert dsl.morphism_to_dsl(lifted).startswith(
        "morphism flexible inclImpStrict_lifted : SigImp -> SigCPL1 {")


def test_injections_of_two_fibrings_load_back_together():
    env = corpus.fresh_env()
    legs = []
    for left, right in ("IMPFRAG", "NEGFRAG"), ("BotNeg", "BotNeg"):
        _, t1, t2 = fibring_unconstrained(env.logic(left), env.logic(right))
        legs += [t1.morphism, t2.morphism]
    signatures = {s.name: s for m in legs for s in (m.source, m.target)}
    text = "".join(map(dsl.signature_to_dsl, signatures.values())) \
        + "".join(map(dsl.morphism_to_dsl, legs))
    again = dsl.loads(text).morphisms
    assert list(again) == ["IMPFRAG_NEGFRAG_in0", "IMPFRAG_NEGFRAG_in1",
                           "BotNeg_BotNeg_in0", "BotNeg_BotNeg_in1"]
    assert [m.images for m in again.values()] == [m.images for m in legs]


def test_a_strict_morphism_and_its_lift_load_back_together():
    strict = corpus.fresh_env().morphism("inclImpStrict")
    lifted = lift_strict(strict)
    text = (dsl.signature_to_dsl(strict.source) + dsl.signature_to_dsl(strict.target)
            + dsl.morphism_to_dsl(strict) + dsl.morphism_to_dsl(lifted))
    again = dsl.loads(text).morphisms
    assert [m.kind for m in again.values()] == ["strict", "flexible"]
    assert [m.images for m in again.values()] == [strict.images, lifted.images]


def test_cli_fibring_of_bottoms_writes_a_bottom(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["--json", str(out), "fibre", "--left", "BotNeg",
                     "--right", "BotNeg"]) == 0
    [logic] = dsl.loads(json.loads(out.read_text())["dsl"]).logics.values()
    x0 = parse("x0", logic.signature)
    assert derives(logic, [], x0).is_no


def test_morphism_round_trips_through_writer():
    env = corpus.fresh_env()
    text = (dsl.signature_to_dsl(env.signature("SigCPL1"))
            + dsl.signature_to_dsl(env.signature("SigCPL2"))
            + dsl.morphism_to_dsl(env.morphism("h")))
    again = dsl.loads(text)
    assert again.morphism("h").assignment == env.morphism("h").assignment


_MATRIX = """  matrix {
    values 0 1
    designated 1
    table neg (0)=1 (1)=0
  }
"""


@pytest.mark.parametrize("body, line, words", [
    ("  bottom\n  axiom neg(x0)\n", 5, "is bottom"),
    ("  axiom neg(x0)\n  top\n", 5, "is top"),
    ("  top\n  rule x0 => neg(neg(x0))\n", 5, "is top"),
    ("  bottom\n" + _MATRIX, 5, "is bottom"),
    ("  bottom\n  top\n", 5, "already bottom"),
    (_MATRIX + _MATRIX, 9, "second matrix"),
], ids=["bottom-axiom", "axiom-top", "top-rule", "bottom-matrix", "bottom-top",
        "two-matrices"])
def test_logic_block_never_drops_what_it_declares(body, line, words):
    text = f"signature S {{ neg/1 }}\nlogic L {{\n  signature S\n{body}}}\n"
    with pytest.raises(dsl.SpecError) as err:
        dsl.loads(text)
    assert err.value.line == line
    assert words in str(err.value)
    # the corpus, with its bottom and top logics, still loads
    assert {"BotNeg", "TopNeg", "BotCPL1", "CPL1"} <= set(corpus.fresh_env().logics)


def test_a_matrix_that_refutes_the_calculus_is_a_load_error():
    text = """signature S { neg/1 imp/2 }
logic CPL1L3 {
  signature S
  axiom imp(x0, imp(x1, x0))
  axiom imp(imp(x0, imp(x1, x2)), imp(imp(x0, x1), imp(x0, x2)))
  rule x0, imp(x0, x1) => x1
  matrix {
    values 0 h 1
    designated 1
    table neg (0)=1 (h)=h (1)=0
    table imp (0,0)=1 (0,h)=1 (0,1)=1 (h,0)=h (h,h)=1 (h,1)=1 (1,0)=0 (1,h)=h (1,1)=1
  }
}
"""
    with pytest.raises(dsl.SpecError) as err:
        dsl.loads(text)
    assert err.value.line == 13
    assert "refutes axiom imp(imp(x0, imp(x1, x2))" in str(err.value)
    assert "x0=h, x1=h, x2=0" in str(err.value)


_S = "signature S { neg/1 }\n"
_L = _S + "logic L {\n  signature S\n"


@pytest.mark.parametrize("text, line, message", [
    ("signature S {\n  neg/1\n", 1, "unterminated signature 'S'"),
    (_L + "  bottom\n", 2, "unterminated logic 'L'"),
    (_L + "  matrix {\n    values 0 1\n", 4, "unterminated matrix block"),
    (_S + "morphism strict m : S -> S {\n  neg -> neg\n", 2, "unterminated morphism 'm'"),
    ("signature S\nneg/1\n", 2, "expected '{', found 'neg/1'"),
    ("signature S { neg/1 }\nlogic L\n", 2, "expected '{', found end of input"),
    ("frobnicate S { neg/1 }\n", 1, "unrecognized declaration 'frobnicate S'"),
    (_S + "signature S { imp/2 }\n", 2, "duplicate signature 'S'"),
    ("signature S {\n  neg/1\n  neg/2\n}\n", 3, "duplicate connective 'neg'"),
    ("signature S {\n  x0/1\n}\n", 2, "connective 'x0' would collide with a variable"),
    ("signature S {\n  neg/1 imp\n}\n", 2, "expected conn/arity, found 'imp'"),
    ("logic L {\n}\n", 2, "logic 'L' declares no signature"),
    ("logic L {\n  axiom x0\n}\n", 2, "declare the signature before formulas"),
    (_L + "}\n", 4, "logic 'L' has no provider"),
    (_L + "  rule neg(x0)\n}\n", 4, "rule needs '=>'"),
    (_L + "  rule => neg(x0)\n}\n", 4, "rules need at least one premise"),
    (_L + "  frobnicate\n}\n", 4, "unrecognized logic entry 'frobnicate'"),
    (_L + "  axiom neg(x0\n}\n", 4,
     "in 'neg(x0': unterminated argument list (at position 6)"),
    ("logic L {\n  signature T\n}\n", 2, "no signature or logic named 'T'"),
    (_L + "  matrix {\n    colours red\n  }\n}\n", 5, "unrecognized matrix entry 'colours red'"),
    (_L + "  matrix {\n    table neg\n  }\n}\n", 5, "table needs entries"),
    (_L + "  matrix {\n    values 0 1\n  }\n}\n", 6, "matrix needs a nonempty designated subset"),
    (_L + "  matrix {\n    values 0 1\n    designated 1\n  }\n}\n", 8,
     "matrix misses a table for 'neg'"),
    (_S + "morphism strict m : S -> S { neg -> neg }\n"
     "morphism strict m : S -> S { neg -> neg }\n", 3, "duplicate morphism 'm'"),
    (_S + "morphism strict m : S -> T {\n  neg -> neg\n}\n", 2,
     "no signature or logic named 'T'"),
    (_S + "morphism strict m : S -> S {\n  neg\n}\n", 3,
     "expected 'conn -> image', found 'neg'"),
    (_S + "morphism strict m : S -> S {\n  imp -> neg\n}\n", 3,
     "'imp' is not a connective of S"),
    (_S + "morphism strict m : S -> S {\n}\n", 3, "morphism misses source connective 'neg'"),
    (_L + "  axiom neg(x0)\n  signature S\n}\n", 5, "logic 'L' declares a second signature"),
    (_L + "  matrix {\n    table neg (0)=1 (1)=0\n    table neg (0)=0 (1)=1\n  }\n}\n", 6,
     "second table for 'neg'"),
    (_L + "  matrix {\n    table neg (0)=1 (1)=0 ( 0 )=0\n  }\n}\n", 5,
     "table 'neg' gives cell (0) twice"),
    (_L + "  matrix {\n    values 0 1\n    values 0 1 2\n  }\n}\n", 6, "second 'values' line"),
    (_L + "  matrix {\n    designated 1\n    values 0 1\n    designated 0\n  }\n}\n", 7,
     "second 'designated' line"),
], ids=["open-signature", "open-logic", "open-matrix", "open-morphism", "no-brace",
        "no-brace-at-end", "bad-declaration", "duplicate-signature",
        "duplicate-connective", "variable-connective", "no-arity", "no-signature",
        "formula-before-signature", "no-provider", "rule-no-arrow", "rule-no-premise",
        "bad-logic-entry", "bad-formula", "logic-unknown-signature", "bad-matrix-entry",
        "empty-table", "matrix-error", "logic-error", "duplicate-morphism",
        "morphism-unknown-signature", "no-image", "morphism-unknown-connective",
        "morphism-error", "second-signature", "second-table", "repeated-cell",
        "second-values", "second-designated"])
def test_spec_errors_name_their_line(text, line, message):
    with pytest.raises(dsl.SpecError) as err:
        dsl.loads(text)
    assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


def test_dsl_names_become_identifiers():
    assert dsl.dsl_name("fibring(IMPFRAG,NEGFRAG)") == "fibring_IMPFRAG_NEGFRAG"
    assert dsl.dsl_name("IMPFRAG+NEGFRAG") == "IMPFRAG_NEGFRAG"
    for name in ("CPL1", "SigNegImp", "_x", "a__b"):
        assert dsl.dsl_name(name) == name


@pytest.mark.parametrize("argv", [
    ["fibre", "--left", "IMPFRAG", "--right", "NEGFRAG"],
    ["fibre-shared", "--shared", "BotNeg", "--left", "IMPFRAGN", "--right", "NEGFRAG",
     "--left-map", "shareNegLeft", "--right-map", "shareNegRight"],
    ["colimit-chain", "--stages", "IMP,CPL1", "--maps", "inclImpStrict"],
], ids=lambda argv: argv[0])
def test_cli_dsl_output_loads_back(tmp_path, argv):
    out = tmp_path / "report.json"
    assert cli.main(["--json", str(out)] + argv) == 0
    report = json.loads(out.read_text())
    env = dsl.loads(report["dsl"])
    [logic] = env.logics.values()
    built = report["logic"]
    assert logic.signature.connectives == {
        c["id"]: c["arity"] for c in built["signature"]["connectives"]}
    assert logic.calculus.to_json() == built["calculus"]


# --- command line ---------------------------------------------------------


def test_cli_validate():
    assert cli.main(["validate"]) == 0


def test_cli_prove_yes(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["--json", str(out), "prove", "--logic", "CPL1",
                     "--goal", "imp(x0, x0)"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "yes"
    assert data["proof"]["length"] <= 5


def test_cli_prove_refuted():
    assert cli.main(["prove", "--logic", "CPL1", "--goal", "x0"]) == 1


def test_cli_prove_unknown():
    code = cli.main(["--budget", "4,6,2,1", "prove", "--logic", "IMPFRAG",
                     "--goal", "imp(x0, x0)"])
    assert code == 2


def test_cli_closed_stdout_keeps_the_exit_code():
    # a reader that is gone before the report is written, as after `| head -c 1`
    argv = [sys.executable, "-m", "catlog.cli", "--budget", "8,4,2,2", "colimit-chain",
            "--stages", "IMP,CPL1", "--maps", "inclImpStrict"]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    whole = subprocess.run(argv, env=env, capture_output=True, text=True)
    read, write = os.pipe()
    os.close(read)
    try:
        piped = subprocess.run(argv, env=env, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert piped.returncode == whole.returncode == 0
    assert piped.stderr == ""


def test_cli_prove_usage_error():
    assert cli.main(["prove", "--logic", "Nope", "--goal", "x0"]) == 3
    assert cli.main(["prove", "--logic", "CPL1", "--goal", "bad(("]) == 3


def test_cli_unreadable_paths_exit_usage(tmp_path, capsys):
    spec = tmp_path / "spec.logic"
    spec.write_text("signature S { neg/1 }\n")
    for argv in (["--spec", str(tmp_path), "validate"],
                 ["--spec", str(spec / "inner.logic"), "validate"],
                 ["--json", str(tmp_path), "validate"]):
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_argparse_errors_exit_usage(capsys):
    assert cli.main(["prove", "--logic"]) == 3
    assert cli.main(["no-such-command"]) == 3
    assert capsys.readouterr().err.count("\n") == 2  # one line each
    with pytest.raises(SystemExit) as done:
        cli.main(["--help"])
    assert done.value.code == 0


@pytest.mark.parametrize("argv, words", [
    (["--bound", "-1", "rigidity", "--logic", "CPL1"], "--bound"),
    (["--n", "-1", "congruential", "--logic", "CPL1"], "--n"),
    (["laws", "--suite", "category", "--cases", "-1"], "--cases"),
    (["--budget=-1,6,4,2", "prove", "--logic", "CPL1", "--goal", "imp(x0, x0)"],
     "budget"),
], ids=["bound", "n", "cases", "budget"])
def test_cli_negative_numbers_exit_usage(capsys, argv, words):
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert words in captured.err and "non-negative" in captured.err


def test_cli_flexible_chain_or_span_exits_usage(tmp_path, capsys):
    assert cli.main(["colimit-chain", "--stages", "IMP,CPL1", "--maps", "inclImp"]) == 3
    assert "strict" in capsys.readouterr().err
    spec = tmp_path / "flex.logic"
    spec.write_text(corpus.STANDARD_DSL + """
morphism flexible shareNegFlex : SigNeg -> SigNegImp { neg -> neg(x0) }
""")
    assert cli.main(["--spec", str(spec), "fibre-shared", "--shared", "BotNeg",
                     "--left", "IMPFRAGN", "--right", "NEGFRAG",
                     "--left-map", "shareNegFlex", "--right-map", "shareNegRight"]) == 3
    assert "strict" in capsys.readouterr().err


def test_cli_translate():
    assert cli.main(["translate", "--via", "h", "--from", "CPL1",
                     "--to", "CPL2"]) == 0


def test_cli_check_regular(tmp_path):
    assert cli.main(["check-regular", "--name", "h"]) == 0
    spec = tmp_path / "collapse.logic"
    spec.write_text("""
signature A { neg/1 }
signature B { negp/1 }
morphism flexible collapse : A -> B { neg -> x0 }
""")
    code = cli.main(["--spec", str(spec), "check-regular", "--name", "collapse"])
    assert code == 1


def test_cli_check_morphism():
    assert cli.main(["check-morphism", "--name", "k"]) == 0


def test_cli_fibre_with_goal(tmp_path):
    out = tmp_path / "fibre.json"
    code = cli.main(["--json", str(out), "fibre", "--left", "IMPFRAG",
                     "--right", "NEGFRAG", "--goal",
                     "imp_1(imp_1(neg_1(x0), neg_1(x1)), imp_1(x1, x0))"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["goal"]["verdict"] == "yes"
    assert "dsl" in data


def test_cli_fibre_shared():
    # the glued negation keeps the first summand's tag
    code = cli.main(["--budget", "8,6,2,1", "fibre-shared",
                     "--shared", "BotNeg", "--left", "IMPFRAGN",
                     "--right", "NEGFRAG",
                     "--left-map", "shareNegLeft", "--right-map", "shareNegRight",
                     "--goal",
                     "imp_1(imp_1(neg_0(x0), neg_0(x1)), imp_1(x1, x0))"])
    assert code == 0


def test_cli_product():
    assert cli.main(["product", "--left", "CPL1", "--right", "CPL2"]) == 0


def test_cli_colimit_chain():
    code = cli.main(["--budget", "8,6,3,2", "colimit-chain",
                     "--stages", "IMPFRAG,CPL1", "--maps", "inclImpStrict",
                     "--goal", "imp(x0, imp(x1, x0))"])
    assert code == 0


def test_cli_colimit_chain_with_more_maps_than_stage_pairs(capsys):
    assert cli.main(["colimit-chain", "--stages", "IMP", "--maps", "inclImpStrict"]) == 3
    assert capsys.readouterr().err == \
        "error: need one chain map per consecutive stage pair\n"


def test_cli_quotient_equal():
    assert cli.main(["quotient-equal", "--left", "h", "--right", "h",
                     "--from", "CPL1", "--to", "CPL2"]) == 0


def test_cli_quotient_equal_into_a_logic_over_another_signature(capsys):
    # both morphisms map into SigCPL1, and IMP is over SigImp
    assert cli.main(["quotient-equal", "--left", "inclImp", "--right", "inclImpStrict",
                     "--source", "IMP", "--target", "IMP"]) == 3
    assert capsys.readouterr().err == \
        "error: morphisms do not land in the target logic's signature\n"


def test_cli_congruential():
    assert cli.main(["congruential", "--logic", "CPL1"]) == 0
    assert cli.main(["--bound", "2", "--n", "1", "congruential",
                     "--logic", "NC3"]) == 1


def test_cli_closure():
    code = cli.main(["--bound", "2", "--n", "1", "--budget", "8,6,2,1",
                     "closure", "--logic", "IMPFRAG"])
    assert code == 0


def test_cli_closure_with_a_goal_reports_it_before_and_after(tmp_path):
    out = tmp_path / "closure.json"
    code = cli.main(["--json", str(out), "--bound", "2", "--n", "1", "--budget", "8,6,2,1",
                     "closure", "--logic", "IMPFRAG", "--goal", "imp(x0, x0)"])
    report = json.loads(out.read_text())
    assert code == 0 and report["before"] == "yes" and report["after"]["verdict"] == "yes"
    # IMPFRAG's one rule is modus ponens, rule 0; a later index is an added rule
    rules = [step["rule"] for step in report["after"]["proof"]["steps"] if "rule" in step]
    assert report["rules_added"] > 0 and max(rules) >= 1


def test_cli_lindenbaum():
    assert cli.main(["lindenbaum", "--logic", "CPL1",
                     "--delta", "imp(x0, x1); imp(x1, x0)"]) == 0
    assert cli.main(["lindenbaum", "--logic", "CPL1",
                     "--delta", "imp(x0, x1)"]) == 1


def test_cli_equipollent(tmp_path):
    out = tmp_path / "eq.json"
    code = cli.main(["--json", str(out), "equipollent", "--from", "CPL1",
                     "--to", "CPL2", "--via", "h", "--back", "k"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["status"] == "confirmed"


def test_cli_rigidity():
    assert cli.main(["--bound", "2", "rigidity", "--logic", "CPL1"]) == 0
    assert cli.main(["--bound", "2", "rigidity", "--logic", "BotNeg"]) == 1


def test_cli_laws_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["--json", str(a), "--seed", "11", "laws",
                     "--suite", "category", "--cases", "25"]) == 0
    assert cli.main(["--json", str(b), "--seed", "11", "laws",
                     "--suite", "category", "--cases", "25"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_names_print_unquoted(capsys):
    assert cli.main(["prove", "--logic", "NOPE", "--goal", "x0"]) == 3
    assert capsys.readouterr().err == "error: no logic named 'NOPE'\n"
    env = corpus.fresh_env()
    for lookup, kind in (env.signature, "signature or logic"), (env.logic, "logic"), \
            (env.morphism, "morphism"):
        with pytest.raises(dsl.UnknownName) as err:
            lookup("NOPE")
        assert str(err.value) == f"no {kind} named 'NOPE'"


def test_cli_unknown_spec_file():
    assert cli.main(["--spec", "/nonexistent/file.logic", "validate"]) == 3


_REFUTED_LEG = """
logic S {
  signature SigNeg
  axiom neg(x0)
}

morphism strict m : SigNeg -> SigCPL1 { neg -> neg }
"""


def test_cli_refuses_to_build_along_a_refuted_leg(tmp_path, capsys):
    spec = tmp_path / "refuted.logic"
    spec.write_text(corpus.STANDARD_DSL + _REFUTED_LEG)
    base = ["--spec", str(spec), "--budget", "4,4,2,1"]
    assert cli.main(base + ["translate", "--via", "m", "--source", "S",
                            "--target", "CPL1"]) == 1
    capsys.readouterr()
    assert cli.main(base + ["colimit-chain", "--stages", "S,CPL1", "--maps", "m"]) == 3
    assert "chain map 0 m (S -> CPL1) is refuted" in capsys.readouterr().err
    assert cli.main(base + ["fibre-shared", "--shared", "S", "--left", "CPL1",
                            "--right", "NEGFRAG", "--left-map", "m",
                            "--right-map", "shareNegRight"]) == 3
    assert "left leg m (S -> CPL1) is refuted" in capsys.readouterr().err


def test_cli_refuses_a_span_out_of_top_that_the_legs_do_not_preserve(tmp_path, capsys):
    # TopNeg is presented by the axiom x0; CPL1 does not derive x0, so the
    # leg is refuted and nothing is built along it
    spec = tmp_path / "top.logic"
    spec.write_text(corpus.STANDARD_DSL + """
morphism strict negIntoCPL1 : SigNeg -> SigCPL1 { neg -> neg }
""")
    assert cli.main(["--spec", str(spec), "fibre-shared", "--shared", "TopNeg",
                     "--left", "CPL1", "--right", "CPL1",
                     "--left-map", "negIntoCPL1", "--right-map", "negIntoCPL1"]) == 3
    assert "left leg negIntoCPL1 (TopNeg -> CPL1) is refuted" in capsys.readouterr().err


def test_cli_translate_from_a_matrix_only_source(tmp_path):
    out = tmp_path / "k.json"
    code = cli.main(["--json", str(out), "translate", "--via", "k",
                     "--from", "CPL2", "--to", "CPL1"])
    assert code in (0, 2)
    assert json.loads(out.read_text())["status"] != "refuted"


def test_cli_rigidity_with_undecided_endomorphisms(capsys):
    # some L3 endomorphisms pass the model check's cap undecided and none is
    # refuted equivalent to the identity, so rigidity is undecided
    assert cli.main(["rigidity", "--logic", "L3"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("L3: undecided")
    assert '"rigid": null' in out


def test_cli_rigidity_without_the_identity_is_undecided(capsys):
    # at bound 0 no endomorphism is enumerated, the identity included
    assert cli.main(["--bound", "0", "rigidity", "--logic", "CPL1"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("CPL1: undecided")
    assert '"identity_enumerated": false' in out and '"rigid": null' in out


# --- one parser per process ----------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _fresh_cli(argv: list[str], report: Path) -> tuple[int, str, bytes]:
    """`python -m catlog.cli --json report argv` in a new interpreter: exit
    code, stdout and report bytes."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-m", "catlog.cli", "--json", str(report), *argv],
                          env=env, capture_output=True, text=True)
    return done.returncode, done.stdout, report.read_bytes()


def _bench_commands() -> dict[str, list[str]]:
    """The analysis benchmark's command lines by id, read from
    bench/workloads.py without importing it."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    [value] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["COMMANDS"]]
    return {op_id: argv for op_id, _, argv in ast.literal_eval(value)}


def test_cli_hypotheses_do_not_carry_over_to_the_next_call(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["--json", str(out), "prove", "--logic", "CPL1", "--goal", "x1",
                     "--hyp", "x0", "--hyp", "imp(x0, x1)"]) == 0
    assert json.loads(out.read_text())["hypotheses"] == ["x0", "imp(x0, x1)"]
    assert cli.main(["--json", str(out), "prove", "--logic", "CPL1",
                     "--goal", "imp(x0, x0)"]) == 0
    assert json.loads(out.read_text())["hypotheses"] == []


def test_cli_a_usage_error_leaves_the_next_call_as_it_is_alone(tmp_path, capsys):
    argv = ["prove", "--logic", "CPL1", "--goal", "x1", "--hyp", "x0"]
    alone = _fresh_cli(argv, tmp_path / "alone.json")
    assert cli.main(["prove", "--logic", "CPL1", "--hyp", "x0"]) == 3
    assert cli.main(["prove", "--logic", "CPL1", "--goal", "x1", "--hyp", "x0(("]) == 3
    capsys.readouterr()
    after = tmp_path / "after.json"
    code = cli.main(["--json", str(after), *argv])
    assert (code, capsys.readouterr().out, after.read_bytes()) == alone


def test_cli_in_process_reports_match_a_fresh_process(tmp_path, capsys):
    # the cheaper analysis commands, exits 0 and 1 among them, each run twice
    commands = _bench_commands()
    op_ids = ["rigidity.BotNeg", "congruential.NC3", "lindenbaum.half", "translate.h",
              "fibre.goal"]
    fresh = {op_id: _fresh_cli(commands[op_id], tmp_path / f"{op_id}.fresh.json")
             for op_id in op_ids}
    for round_ in range(2):
        for op_id in op_ids:
            report = tmp_path / f"{op_id}.{round_}.json"
            code = cli.main(["--json", str(report), *commands[op_id]])
            assert (code, capsys.readouterr().out, report.read_bytes()) == fresh[op_id], \
                f"{op_id}, round {round_}"
