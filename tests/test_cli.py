"""Spec-language parsing, directive execution, JSON reports, determinism,
and the command-line entry points."""

import json
import random
import re
from pathlib import Path

import pytest

from lfwave.cli import SpecError, main, parse_set_expr, parse_spec, parse_value, run
from lfwave.clopen import integers, shell, units
from lfwave.cyclo import CycloScalar
from lfwave.gfq import FieldConfig
from lfwave.lfield import coset_rep

CFG2 = FieldConfig(2, 1)
CFG3 = FieldConfig(3, 1)
SPECS = Path(__file__).parent / "specs"


def run_text(text, seed=0):
    return run(parse_spec(text), seed=seed)


def test_parse_field_block():
    doc = parse_spec("field {p=3}\n")
    assert doc.config == CFG3
    doc = parse_spec("field {p=2, c=2, modulus=[1,1,1]}\n")
    assert doc.config.q == 4
    with pytest.raises(SpecError, match="line 2"):
        parse_spec("field {p=2}\nfield {p=3}\n")
    with pytest.raises(SpecError, match="no field block"):
        parse_spec("set W = O\n")
    with pytest.raises(SpecError, match="line 3"):
        parse_spec("field {p=2}\n# comment only\nfrobnicate W\n")


def test_set_expressions():
    env = {}
    assert parse_set_expr(CFG2, "O", env, 1) == integers(CFG2)
    assert parse_set_expr(CFG2, "O*", env, 1) == units(CFG2)
    assert parse_set_expr(CFG2, "shell(2)", env, 1) == shell(CFG2, 2)
    got = parse_set_expr(CFG2, "diff(O, P^1)", env, 1)
    assert got == units(CFG2)
    got = parse_set_expr(CFG2, "translate(O, u(1))", env, 1)
    assert got == integers(CFG2).translate(coset_rep(CFG2, 1))
    got = parse_set_expr(CFG2, "union(ball(0, 1), ball(1, 1))", env, 1)
    assert got == integers(CFG2)
    with pytest.raises(SpecError, match="unknown set"):
        parse_set_expr(CFG2, "W", env, 7)


def test_scalar_literals():
    assert parse_value(CFG3, "2/3", 1) == CycloScalar.rational(3, 3, "2/3")
    assert parse_value(CFG3, "zeta^1 + zeta^2", 1) == \
        CycloScalar.zeta_pow(3, 3, 1) + CycloScalar.zeta_pow(3, 3, 2)
    assert parse_value(CFG2, "1/2*qhalf^-2", 1) == \
        CycloScalar.rational(2, 2, "1/2", -2)
    with pytest.raises(SpecError, match="bad scalar"):
        parse_value(CFG2, "pi", 9)


def test_run_shannon_spec_passes():
    report = run_text(
        "field {p=3}\n"
        "family W = shannon\n"
        "check multiwavelet W\n"
        "check scaling union(translate(O, u(1)), translate(O, u(2))), O\n"
    )
    assert report["passed"]
    assert report["field"] == {"p": 3, "c": 1, "q": 3}
    assert report["directives"][0]["size"] == 2
    verdict = report["directives"][1]["verdict"]
    assert verdict["passed"]


def test_run_tower_spec_fails_with_measure_witness():
    report = run_text(
        "field {p=2}\n"
        "family T = tower(3)\n"
        "check superwavelet T orthonormal\n"
    )
    assert not report["passed"]
    verdict = report["directives"][1]["verdict"]
    assert not verdict["passed"]
    # the joint fold measure is reported exactly
    assert verdict["bounds"]["joint_fold_measure"] == "3/4"


def test_run_bounds():
    report = run_text(
        "field {p=2}\n"
        "fn f = indicator(O*)\n"
        "bound decomposability f\n"
        "bound extendability f\n"
    )
    assert report["passed"]
    dec, ext = report["directives"][1], report["directives"][2]
    assert dec["value"] == "1/2" and dec["max_m_not_excluded"] == 1
    assert ext["value"] == "inf" and ext["max_m_not_excluded"] == "unbounded"


def test_run_solve_directive():
    report = run_text(
        "field {p=3}\n"
        "family T = tower(2)\n"
        "solve X from T shells=-3..3 max-scale=5\n"
    )
    assert not report["passed"]
    result = report["directives"][1]["result"]
    assert result["status"] == "unsat"
    assert result["certificate"]["kind"] == "parity"
    report = run_text(
        "field {p=2}\n"
        "family T = tower(2)\n"
        "solve X from T shells=-3..3 max-scale=5 node-cap=10\n"
    )
    assert report["directives"][1]["result"]["status"] == "cap"


def test_check_modes_default_when_omitted():
    # the trailing mode word is optional; without it each check takes its
    # default, also when the expression itself contains spaces
    cases = [
        ("translation", "O", "packing"),
        ("translation", "union(O, P^1)", "packing"),
        ("translation", "union(translate(O, u(1)), O*)", "packing"),
        ("superwavelet", "T", "orthonormal"),
        ("superwavelet", "[shell(0), shell(1)]", "orthonormal"),
        ("translates", "f", "parseval"),
        ("translates", "indicator(union(O*, P^1))", "parseval"),
    ]
    head = "field {p=2}\nfamily T = tower(2)\nfn f = indicator(translate(O, u(1)))\n"
    for kind, expr, default in cases:
        bare = run_text(head + f"check {kind} {expr}\n")["directives"][-1]
        named = run_text(head + f"check {kind} {expr} {default}\n")["directives"][-1]
        assert "error" not in bare, (kind, expr, bare)
        assert bare["verdict"] == named["verdict"], (kind, expr)
    tiling = run_text("field {p=2}\ncheck translation union(O, P^1) tiling\n")
    names = [c["name"] for c in tiling["directives"][-1]["verdict"]["checks"]]
    assert names == ["translates-disjoint", "translates-cover"]


def test_run_simulate_directives():
    text = (
        "field {p=2}\n"
        "fn psi = indicator(translate(O, u(1)))\n"
        "family F = [psi]\n"
        "simulate parseval F window=2,2 trials=3\n"
        "simulate gram F window=2,2 jmax=1 kmax=4\n"
    )
    report = run_text(text)
    assert report["passed"]
    assert report["directives"][2]["nonzero_residuals"] == 0
    assert report["directives"][3]["non_delta_entries"] == 0
    # a deficient analyzing family is caught with an exact residual
    report = run_text(
        "field {p=2}\n"
        "fn psi = indicator(O*, 1/2)\n"
        "family F = [psi]\n"
        "simulate parseval F window=2,2\n"
    )
    assert not report["passed"]
    assert report["directives"][2]["nonzero_residuals"] > 0


def test_simulate_options_are_checked():
    head = "field {p=2}\nfn a = indicator(translate(O, u(1)))\nfamily F = [a]\n"
    bad = [
        ("parseval", ""),
        ("parseval", "trials=2"),
        ("parseval", "window=2"),
        ("parseval", "window=1,x"),
        ("parseval", "window=-1,1"),
        ("parseval", "window=1,1 trials=x"),
        ("parseval", "window=1,1 trials=1.5"),
        ("parseval", "window=1,1 trials=-1"),
        ("gram", "jmax=x"),
        ("gram", "kmax=2.0"),
        ("gram", "window=1"),
    ]
    for kind, opts in bad:
        with pytest.raises(SpecError) as err:
            run_text(head + f"simulate {kind} F {opts}\n")
        assert err.value.line_no == 4, (kind, opts)
    # gram never builds the window model, so it needs no window
    report = run_text(head + "simulate gram F jmax=1 kmax=4\n")
    assert report["passed"]
    assert report["directives"][-1]["non_delta_entries"] == 0
    report = run_text(head + "simulate gram F window=1,1 jmax=1 kmax=4\n")
    assert report["directives"][-1]["non_delta_entries"] == 0


def test_run_is_deterministic():
    text = (
        "field {p=3}\n"
        "family W = shannon\n"
        "fn psi = indicator(translate(O, u(1)))\n"
        "family F = [psi]\n"
        "simulate parseval F window=1,1 trials=5\n"
        "check multiwavelet W\n"
    )
    a = json.dumps(run_text(text, seed=7), sort_keys=True)
    b = json.dumps(run_text(text, seed=7), sort_keys=True)
    assert a == b


def test_runtime_value_errors_are_reported_not_raised():
    report = run_text(
        "field {p=2}\n"
        "set S = scaling(translate(O, u(1)), 4)\n"
        "fn g = indicator(O)\n"
        "bound extendability g\n"  # weight exceeds 1 nowhere; this is fine
        "fn h = indicator(O, 2/1)\n"
        "bound extendability h\n"  # weight 4 > 1: rejected exactly
    )
    assert not report["passed"]
    assert "error" in report["directives"][-1]


# `lfw construct` output, pinned from the if-chain the construct table replaced
_CONSTRUCT_JSON = [
    ("shell --p 2 --m 1", [{"center": "p", "scale": 2}]),
    ("shell --p 2 --m 2", [{"center": "p^2", "scale": 3}]),
    ("shannon --p 3", [[{"center": "p^-1", "scale": 0}], [{"center": "2*p^-1", "scale": 0}]]),
    ("shannon --p 2 --c 2", [[{"center": "p^-1", "scale": 0}],
                             [{"center": "[0,1]*p^-1", "scale": 0}],
                             [{"center": "[1,1]*p^-1", "scale": 0}]]),
    ("scaled-shannon --p 3 --m 2", [[{"center": "p", "scale": 2}],
                                    [{"center": "2*p", "scale": 2}]]),
    ("shell-tuple --p 2 --n 3", [[{"center": "p", "scale": 2}], [{"center": "p^2", "scale": 3}],
                                 [{"center": "p^3", "scale": 4}]]),
    ("tower --p 3 --n 3", [[{"center": "1", "scale": 1}, {"center": "2", "scale": 1}],
                           [{"center": "p", "scale": 2}, {"center": "2*p", "scale": 2}]]),
]


def test_main_construct_and_exit_codes(tmp_path, capsys):
    for argv, want in _CONSTRUCT_JSON:
        assert main(["construct", *argv.split()]) == 0
        assert capsys.readouterr().out == json.dumps(want, indent=2, sort_keys=True) + "\n"
    # bad parameters: exit status 2 and one line on stderr, no traceback
    for argv, message in [
        ("shell --p 2 --m 0", "shell exponent must be >= 1"),
        ("shell --p 4", "p must be a prime <= 13, got 4"),
        ("tower --p 2 --n 1", "tower needs length >= 2"),
        ("shell-tuple --p 3 --n 0", "tuple length must be >= 1"),
        ("shannon --p 2 --c 5", "extension degree must be in [1, 4], got 5"),
        # a parameter the construct does not take
        ("tower --p 2 --m 3", "tower takes no --m"),
        ("shannon --p 3 --n 2", "shannon takes no --n"),
        ("shannon --p 3 --m 1 --n 2", "shannon takes no --m"),
        ("shell --p 2 --n 2", "shell takes no --n"),
        ("scaled-shannon --p 3 --n 1", "scaled-shannon takes no --n"),
    ]:
        assert main(["construct", *argv.split()]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"lfw: {message}\n"

    good = tmp_path / "good.lfw"
    good.write_text("field {p=2}\nfamily W = shannon\ncheck multiwavelet W\n")
    assert main(["check", str(good), "--json", str(tmp_path / "r.json")]) == 0
    saved = json.loads((tmp_path / "r.json").read_text())
    assert saved["passed"]
    capsys.readouterr()

    bad = tmp_path / "bad.lfw"
    bad.write_text("field {p=2}\ncheck multiwavelet [O*]\n")
    assert main(["check", str(bad)]) == 1
    capsys.readouterr()

    # a malformed spec: exit status 2 and its line on stderr, no traceback
    for text in ("field {p=2}\nset A = ball(3, 0)\ncheck dilation A\n",
                 "field {p=2}\nfrobnicate A\n"):
        bad.write_text(text)
        assert main(["check", str(bad)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("lfw: line 2: ")
        assert out.err.count("\n") == 1


# ---------------------------------------------------------------------------
# Seeded grammar fuzzer: every mutated document either runs to a report or
# raises SpecError naming a line; no stray AttributeError or IndexError.
# ---------------------------------------------------------------------------

_FUZZ_DOCS = [
    "field {p=2}\nfamily T = tower(3)\ncheck superwavelet T orthonormal\n",
    "field {p=3}\nfamily W = shannon\ncheck multiwavelet W\n",
    "field {p=2}\nfamily S = shell-tuple(2)\ncheck superwavelet S parseval\n",
    "field {p=3}\nfamily W = scaled-shannon(1)\ncheck parseval-multiwavelet W\n",
    "field {p=2, c=2}\nset A = union(shell(1), ball(p, 2))\n"
    "check dilation A\ncheck translation A packing\n",
    "field {p=3}\nset A = diff(O, P^1)\nset B = scale(translate(O, u(1)), 1)\n"
    "check translation inter(A, B) tiling\n",
    "field {p=2}\nfn a = indicator(shell(1))\nfn b = indicator(shell(2), zeta^1)\n"
    "check equivalent [a], [b]\ncheck super-functions [a, b]\n",
    "field {p=3}\nfn f = step{(ball(1, 1), 1/2), (ball(2, 1), qhalf^-2)}\n"
    "check frame [f]\ncheck translates f parseval\nbound decomposability f\n",
    "field {p=2}\nfn a = indicator(translate(O, u(1)))\nfamily F = [a]\n"
    "simulate parseval F window=1,1 trials=1\nsimulate gram F window=1,1 jmax=1 kmax=2\n",
    "field {p=3}\nfn a = indicator(translate(O, u(1)))\nfn b = indicator(translate(O, u(2)))\n"
    "simulate parseval [a, b] window=1,1 trials=1\n",
    "field {p=2}\nfamily T = tower(2)\nsolve X from T shells=-1..1 max-scale=2\n",
    "field {p=2}\nset W = translate(O, u(1))\ncheck scaling W, scaling(W, 2)\n"
    "bound extendability indicator(W)\n",
]

_FUZZ_VOCAB = [
    "(", ")", "[", "]", "{", "}", ",", "=", "^", "*", "+", "-", "/", "..", "#", "\n",
    "0", "1", "2", "3", "1/0", "O", "O*", "P^1", "u(1)", "p", "c", "A", "T", "[a]", "[]",
    "shell", "ball", "union", "inter", "diff", "scale", "translate", "scaling",
    "indicator", "step", "step{}", "zeta^1", "qhalf^2", "tower", "shell-tuple",
    "scaled-shannon", "shannon", "set", "fn", "family", "check", "bound", "solve",
    "simulate", "field", "window", "trials", "parseval", "orthonormal", "packing",
    "tiling", "equivalent", "multiwavelet", "superwavelet", "frame",
]

_FUZZ_TOKEN = re.compile(r"[\w*-]+|\s+|\S")


def _mutate(rng, text):
    tokens = _FUZZ_TOKEN.findall(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(tokens))
        action = rng.randrange(3)
        # padded, so no number gains a digit: a window or scale that large never ends
        new = f" {rng.choice(_FUZZ_VOCAB)} "
        if action == 0:
            tokens[i] = new
        elif action == 1:
            tokens.insert(i, new)
        elif tokens[i]:
            j = rng.randrange(len(tokens[i]))
            tokens[i] = tokens[i][:j] + tokens[i][j + 1:]
    return "".join(tokens)


def test_grammar_fuzz_reports_or_spec_errors():
    rng = random.Random(20151123)
    crashes = []
    for case in range(2400):
        text = _mutate(rng, _FUZZ_DOCS[case % len(_FUZZ_DOCS)])
        try:
            json.dumps(run_text(text), sort_keys=True)
        except SpecError as exc:
            if not isinstance(exc.line_no, int):
                crashes.append((text, "line_no", exc.line_no))
        except Exception as exc:  # noqa: BLE001 - any other escape is a crash
            crashes.append((text, type(exc).__name__, str(exc)))
    assert not crashes, crashes[:5]


def test_front_end_errors_name_their_line():
    cases = [
        ("field {p=2}\nfamily T = tower\ncheck superwavelet T orthonormal\n", 2),
        ("field {p=2}\nfamily T = tower tower(3)\n", 2),
        ("field {p=2}\nfamily T = shell-tuple(3\n", 2),
        ("field {p=2}\nset A = shell()\ncheck dilation A\n", 2),
        ("field {p=2}\nfn f = indicator()\n", 2),
        ("field {p=2}\nset A = scale(O)\n", 2),
        ("field {p=2}\nset A = translate(O)\n", 2),
        ("field {p=2}\nset A = scaling(O)\n", 2),
        ("field {p=2}\nset A = ball(0)\n", 2),
        ("field {p=2}\nset A = inter()\n", 2),
        # a malformed integer or element in a definition names its own line
        ("field {p=2}\nset A = ball(1, x)\ncheck dilation A\n", 2),
        ("field {p=2}\nset A = scale(O, x)\ncheck dilation A\n", 2),
        ("field {p=2}\nset A = translate(O, u(x))\ncheck dilation A\n", 2),
        ("field {p=2}\nset A = ball(3, 0)\ncheck dilation A\n", 2),
        ("field {p=2, c=2}\nset A = ball([3,1]*p^-1, 0)\ncheck dilation A\n", 2),
        ("field {p=2}\nfn f = indicator(ball(1, x))\ncheck frame [f]\n", 2),
        ("field {p=2}\nfamily T = shell-tuple(x)\ncheck superwavelet T\n", 2),
        ("field {p=2}\nfamily T = [ball(3, 0)]\ncheck superwavelet T\n", 2),
        ("field {p=2}\nfamily T = [\ncheck superwavelet T\n", 2),
        # ... and so does one inside a check, bound, solve or simulate expression
        ("field {p=2}\ncheck dilation ball(3, 0)\n", 2),
        ("field {p=2}\nbound decomposability indicator(ball(1, x))\n", 2),
        ("field {p=2}\nsolve X from [shell(x)] shells=-1..1 max-scale=2\n", 2),
        ("field {p=2}\nsimulate parseval [indicator(translate(O, u(x)))] window=1,1\n", 2),
        ("field {p=2}\nfn a = indicator(O*)\ncheck equivalent [a], []\n", 3),
        ("field {p=2}\nfamily W = shannon\ncheck frame W\n", 3),
        ("field {p=2}\nfn f = indicator(O, 1/0)\n", 2),
        ("field {p=4}\n", 1),
        ("field {p=2}\nfamily T = tower(2)\nsolve X from T shells=-1..1\n", 3),
        ("field {p=2}\nfamily T = tower(2)\nsolve X from T shells=1 max-scale=2\n", 3),
        ("field {p=2}\nfamily T = tower(2)\nsolve X from T shells=a..1 max-scale=2\n", 3),
        ("field {p=2}\nfamily T = tower(2)\nsolve X from T max-scale=2\n", 3),
        ("field {p=2}\nfamily T = tower(2)\nsolve X from T shells=-1..1 max-scale=x\n", 3),
        ("field {p=2}\nfamily T = tower(2)\n"
         "solve X from T shells=-1..1 max-scale=2 node-cap=-5\n", 3),
        ("field {p=2}\nfamily T = tower(2)\n"
         "solve X from T shells=-1..1 max-scale=2 node-cap=0\n", 3),
        ("field {p=2}\nfamily T = tower(2)\n"
         "solve X from T shells=-1..1 max-scale=2 node-cap=many\n", 3),
        # an unknown or repeated option, or stray text among the options
        ("field {p=2}\nfamily T = tower(2)\n"
         "solve X from T shells=-1..1 max-scale=2 nodecap=1\n", 3),
        ("field {p=2}\nfamily T = tower(2)\n"
         "solve X from T shells=-1..1 max-scale=2 max-scale=3\n", 3),
        ("field {p=2}\nfamily T = tower(2)\n"
         "solve X from T shells=-1..1 max-scale=2 node-cap 5\n", 3),
        ("field {p=2}\nfn a = indicator(O*)\nsimulate parseval [a] window=1,1 trial=3\n", 3),
        ("field {p=2}\nfn a = indicator(O*)\nsimulate gram [a] jmax=1 bogus=1\n", 3),
        ("field {p=2}\nfn a = indicator(O*)\nsimulate gram [a] window=1,1 window=0,0\n", 3),
        ("field {p=2}\nfn a = indicator(O*)\n"
         "simulate parseval [a] window=1,1 window=0,0\n", 3),
        ("field {p=2, q=3}\nset A = O*\n", 1),
        ("field {p=2, c=1, c=2}\nset A = O*\n", 1),
        ("field {p=2, 3}\nset A = O*\n", 1),
    ]
    for text, line in cases:
        with pytest.raises(SpecError) as err:
            run_text(text)
        assert err.value.line_no == line, text


def test_definition_names_are_words_other_than_O():
    # O is the integers, so a set named O could never be read back
    for text in ("set O = shell(1)\ncheck dilation O\n", "set A B = O*\n",
                 "fn = indicator(O*)\n", "fn f(x) = indicator(O*)\n",
                 "family O = shannon\n", "family F G = shannon\n",
                 "solve O from [shell(0)] shells=-1..1 max-scale=2\n"):
        with pytest.raises(SpecError, match="expected a name") as err:
            run_text("field {p=2}\n" + text)
        assert err.value.line_no == 2, text
    report = run_text("field {p=2}\nset A_1 = O*\nfn f2 = indicator(A_1)\n"
                      "family O2 = [f2]\ncheck frame O2\ncheck dilation A_1\n")
    assert [("error" in e) for e in report["directives"]] == [False] * 5


def test_filter_subcommands_run_the_definitions_and_one_kind(tmp_path, capsys):
    """`lfw bound|solve|simulate SPEC` runs the definitions (lines 6-14 of
    the spec) and the directives of that kind, each entry as `lfw check`
    reports it; the exit status is that of those directives."""
    golden = json.loads((SPECS / "every_directive_p5.json").read_text())
    entries = {e["line"]: e for e in golden["directives"]}
    definitions = list(range(6, 15))
    for sub, lines, status in (("bound", [26, 27], 0), ("solve", [28], 1),
                               ("simulate", [29, 30, 31], 1)):
        out = tmp_path / f"{sub}.json"
        assert main([sub, str(SPECS / "every_directive_p5.lfw"), "--json", str(out)]) == status
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert [e["line"] for e in report["directives"]] == definitions + lines, sub
        assert report["directives"] == [entries[n] for n in definitions + lines], sub
        assert report["field"] == golden["field"]


def assert_report_pinned(spec, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["check", str(SPECS / f"{spec}.lfw"), "--json", str(out)]) == 1
    capsys.readouterr()
    assert out.read_bytes() == (SPECS / f"{spec}.json").read_bytes()


def test_every_directive_p5_report_is_pinned(tmp_path, capsys):
    """Every directive kind at p=5 with zeta-valued spectra: the JSON report,
    non-rational residual and note strings included, is pinned byte for byte."""
    assert_report_pinned("every_directive_p5", tmp_path, capsys)


def test_every_directive_p2c2_report_is_pinned(tmp_path, capsys):
    """Every directive kind at p=2, c=2 (q=4): the JSON report, GF(4) digit
    literals included, is pinned byte for byte."""
    assert_report_pinned("every_directive_p2c2", tmp_path, capsys)


def test_inline_family_lists():
    head = ("field {p=3}\nfn a = indicator(translate(O, u(1)))\n"
            "fn b = indicator(translate(O, u(2)))\n")
    inline = run_text(head + "simulate parseval [a, b] window=1,1 trials=2\n", seed=3)
    named = run_text(head + "family F = [a, b]\nsimulate parseval F window=1,1 trials=2\n",
                     seed=3)
    assert inline["passed"] and inline["directives"][-1]["nonzero_residuals"] == 0
    assert inline["directives"][-1]["nonzero_residuals"] == \
        named["directives"][-1]["nonzero_residuals"]
    solve = "shells=-1..1 max-scale=3\n"
    inline = run_text("field {p=2}\nsolve X from [shell(0), shell(1)] " + solve)
    named = run_text("field {p=2}\nfamily T = tower(3)\nsolve X from T " + solve)
    assert inline["directives"][-1]["result"] == named["directives"][-1]["result"]
    assert inline["directives"][-1]["result"]["status"] == "unsat"
