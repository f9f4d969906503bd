"""Spec-language parsing, directive execution, JSON reports, determinism,
and the command-line entry points."""

import hashlib
import importlib.util
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from lfwave import stepfn, verify
from lfwave.cli import _FORMS, SpecError, main, parse_set_expr, parse_spec, parse_value, run
from lfwave.clopen import integers, shell, units
from lfwave.cyclo import CycloScalar
from lfwave.gfq import FieldConfig
from lfwave.lfield import coset_rep

CFG2 = FieldConfig(2, 1)
CFG3 = FieldConfig(3, 1)
SPECS = Path(__file__).parent / "specs"
CORPUS = Path(__file__).parent.parent / "perfbench" / "corpus.py"


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
    with pytest.raises(SpecError, match="line 1: field block needs p"):
        parse_spec("field {c=2}\n")


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
        CycloScalar.rational(2, 2, "1/2").q_half_shift(-2)
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


def test_zero_charged_failures_name_the_ball_O():
    # weight |1/2|^2 on O is not identically one; a spectrum charged at zero
    # meets infinitely many dilates, so equivalence is not decided
    report = run_text(
        "field {p=2}\n"
        "check translates indicator(O, 1/2) orthonormal\n"
        "check equivalent [indicator(O)], [indicator(shell(1))]\n"
    )
    O = {"kind": "ball", "ball": {"center": "0", "scale": 0}}
    translates, equivalent = (d["verdict"]["checks"] for d in report["directives"])
    assert translates[0] == {"name": "weight-identically-one", "status": "fail",
                             "witness": O, "note": "weight = 1/4"}
    assert equivalent == [{"name": "bounded-away-from-zero", "status": "fail", "witness": O}]


def test_scaling_set_of_a_two_shell_wavelet_set():
    # its dilates leave a tail that is no single ball at any finite depth
    report = run_text(
        "field {p=2}\n"
        "set W = union(ball(p + p^2, 3), ball(p^2, 4))\n"
        "check scaling W, scaling(W)\n"
    )
    verdict = report["directives"][-1]["verdict"]
    assert report["passed"] and verdict["passed"]
    assert [c["status"] for c in verdict["checks"] if c.get("binding", True)] == ["pass"] * 4


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


def test_solve_precondition_failures_are_named_in_the_report():
    # O tiles no dilation (it holds 0) and leaves no complement: the entry
    # names those checks in check order, and none that passed
    report = run_text("field {p=2}\nsolve T from [O] shells=-2..2 max-scale=3\n")
    assert report["directives"][0]["error"] == \
        "solver preconditions failed: existing-1-dilation-tiling, complement-nonempty"


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
        # a gram check over no translations or dilations checks nothing
        ("gram", "kmax=0"),
        ("gram", "kmax=-5"),
        ("gram", "jmax=-1"),
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


def test_even_half_grades_are_rationals():
    """A value c * qhalf^(2k) is the rational c * q^k: specs that were wrong
    while even grades stayed apart from grade 0."""
    # p=2: q^(2/2)/2 = 1 on O + u(1), the Shannon spectrum
    shannon = run_text("field {p=2}\n"
                       "check super-functions [indicator(translate(O, u(1)), 1/2*qhalf^2)]\n")
    assert shannon["passed"]
    equivalent = run_text("field {p=3}\nfn a = indicator(shell(1))\n"
                          "fn b = indicator(shell(1), 1/3*qhalf^2)\n"
                          "check equivalent [a], [b]\n")
    assert equivalent["passed"]
    for field, value in (("p=2", "1/2*qhalf^2"), ("p=2, c=2", "1/2*qhalf^1")):
        gram = run_text(f"field {{{field}}}\n"
                        f"simulate gram [indicator(translate(O, u(1)), {value})]\n")
        assert gram["directives"][-1]["non_delta_entries"] == 0, field
    # grade 2 and grade 0 values meet in one sum: a verdict, not an error
    mixed = run_text("field {p=3}\ncheck super-functions [indicator(translate(O, u(1)), "
                     "qhalf^2), indicator(translate(O, u(2)))]\n")
    assert "verdict" in mixed["directives"][-1]


def half_grade_spec_pair(p, c, rng):
    """One spec twice: its values written with even powers of qhalf, then as
    rationals c * q^k (an odd power keeps one qhalf^1 factor)."""
    q = p ** c

    def value():
        odd = rng.random() < 0.3  # one parity per value: the terms are summed
        terms = []
        for _ in range(rng.randint(1, 2)):
            a = Fraction(rng.choice((-2, -1, 1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
            k = rng.randint(-2, 2)
            z = f"zeta^{rng.randrange(p)}*" if p > 2 and rng.random() < 0.4 else ""
            tail = "*qhalf^1" if odd else ""
            terms.append((f"{z}{a}*qhalf^{2 * k + odd}", f"{z}{a * Fraction(q) ** k}{tail}"))
        return [" + ".join(side) for side in zip(*terms)]

    sets = [f"translate(O, u({i}))" for i in range(1, q)] + ["shell(1)", "shell(2)", "O*"]
    fns = [(name, rng.choice(sets), value()) for name in "fg"]
    body = ("check frame [f, g]\ncheck translates f\ncheck super-functions [f, g]\n"
            "check equivalent [f], [g]\nbound decomposability f\nbound extendability g\n"
            "simulate parseval [f, g] window=1,1 trials=1\n"
            "simulate gram [f, g] jmax=1 kmax=2\n")
    return [f"field {{p={p}, c={c}}}\n"
            + "".join(f"fn {name} = indicator({where}, {v[side]})\n" for name, where, v in fns)
            + body for side in (0, 1)]


def test_half_grade_spellings_give_equal_reports():
    def entries(text):
        return [{k: v for k, v in d.items() if k != "directive"}
                for d in run_text(text, seed=1)["directives"]]

    for p, c in ((2, 1), (3, 1), (5, 1), (2, 2)):
        rng = random.Random(f"half-grades/{p}/{c}")
        for _ in range(4):
            graded, rational = half_grade_spec_pair(p, c, rng)
            assert entries(graded) == entries(rational), graded


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
        "set S = scaling(translate(O, u(1)))\n"
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

    # an unreadable spec or --json path: exit status 2 and one line on stderr
    for argv in (["check", str(tmp_path / "missing.lfw")], ["solve", str(tmp_path)],
                 ["check", str(good), "--json", str(tmp_path / "no-dir" / "r.json")]):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("lfw: [Errno "), argv
        assert out.err.count("\n") == 1

    # a malformed spec: exit status 2 and its line on stderr, no traceback
    for text in ("field {p=2}\nset A = ball(3, 0)\ncheck dilation A\n",
                 "field {p=2}\nfrobnicate A\n"):
        bad.write_text(text)
        assert main(["check", str(bad)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("lfw: line 2: ")
        assert out.err.count("\n") == 1


def test_command_line_integers_are_ascii(tmp_path, capsys):
    # every integer option reads the spec language's ASCII integers: a
    # non-ASCII digit, an underscore or a sign is a usage error, exit 2
    good = tmp_path / "good.lfw"
    good.write_text("field {p=2}\ncheck dilation O*\n")
    for argv, bad in [("construct shell --p {} --m 1", "\u0662"),
                      ("construct shell --p 2 --m {}", "1_0"),
                      ("construct shell --p 2 --c {} --m 1", "+1"),
                      ("construct tower --p 2 --n {}", "\u0663"),
                      ("check good --seed {}", "\u0661"),
                      ("simulate good --seed {}", "0x1")]:
        for value, status in (("2", 0), (bad, 2)):
            args = argv.format(value).split()
            args = [str(good) if a == "good" else a for a in args]
            try:
                got = main(args)
            except SystemExit as exc:
                got = exc.code
            assert got == status, args
            err = capsys.readouterr().err
            if status == 2:
                assert f"expected an integer, got {bad!r}" in err, args


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
    "field {p=2}\nset W = translate(O, u(1))\ncheck scaling W, scaling(W)\n"
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
        # the bound kind is checked before its operand is read
        ("field {p=2}\nbound bogus indicator(nonsense)\n", 2, "unknown bound kind 'bogus'"),
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
        ("field {p=2}\nfn a = indicator(O*)\nsimulate gram [a] jmax=1 kmax=2 junk\n", 3,
         "unexpected 'junk'; options are KEY=VALUE"),
        ("field {p=2}\nfn a = indicator(O*)\nsimulate parseval a junk window=1,1\n", 3,
         "unexpected 'junk'; options are KEY=VALUE"),
        # scaling(W) takes the wavelet set only; the depth argument is gone
        ("field {p=2}\nset W = shell(1)\ncheck scaling W, scaling(W, 6)\n", 3,
         "scaling() takes 1 arguments, got 2"),
        ("field {p=2}\nfn a = indicator(O*)\n"
         "simulate parseval [a] window=1,1 window=0,0\n", 3),
        ("field {p=2, q=3}\nset A = O*\n", 1),
        ("field {p=2, c=1, c=2}\nset A = O*\n", 1),
        ("field {p=2, 3}\nset A = O*\n", 1),
        # an inline list is read as sets and as functions; the error is the
        # one of the reading that got further, so it names the bad item
        ("field {p=2}\nfamily F = [O*, bogus]\n", 2, "unknown set 'bogus'"),
        ("field {p=2}\nfn f = indicator(O*)\nfamily F = [f, O*]\n", 3,
         "unknown function expression 'O*'"),
        ("field {p=2}\nset A = O*\nfamily F = [A, bogus, O*]\n", 3, "'bogus'"),
    ]
    for text, line, *message in cases:
        with pytest.raises(SpecError) as err:
            run_text(text)
        assert err.value.line_no == line, text
        assert all(m in str(err.value) for m in message), (text, str(err.value))


# an integer in each position that reads one, as ASCII text and then spelt
# with a sign, an underscore or a non-ASCII digit: the first runs, the
# second is a SpecError naming the line where the two differ
_INTEGER_POSITIONS = [
    ("field {p=2}\nset A = shell(1)\n", "field {p=2}\nset A = shell(+1)\n"),
    ("field {p=2}\nset A = ball(p^3, 10)\n", "field {p=2}\nset A = ball(p^3, 1_0)\n"),
    ("field {p=2}\nset A = scale(O, 3)\n", "field {p=2}\nset A = scale(O, ٣)\n"),
    ("field {p=2}\nfamily T = tower(3)\n", "field {p=2}\nfamily T = tower(٣)\n"),
    ("field {p=2}\nset A = P^3\n", "field {p=2}\nset A = P^٣\n"),
    ("field {p=2}\nset A = ball(p^3, 4)\n", "field {p=2}\nset A = ball(p^٣, 4)\n"),
    ("field {p=2}\nset A = ball(u(3), 4)\n", "field {p=2}\nset A = ball(u(٣), 4)\n"),
    ("field {p=3}\nset A = ball(2*p, 4)\n", "field {p=3}\nset A = ball(٢*p, 4)\n"),
    ("field {p=2, c=2}\nset A = ball([1,1]*p, 4)\n",
     "field {p=2, c=2}\nset A = ball([1,١]*p, 4)\n"),
    ("field {p=2}\nfn f = indicator(O, 1/2)\n", "field {p=2}\nfn f = indicator(O, ١/2)\n"),
    ("field {p=2}\nfn f = indicator(O, zeta^1)\n",
     "field {p=2}\nfn f = indicator(O, zeta^١)\n"),
    ("field {p=2}\nfn f = indicator(O, qhalf^1)\n",
     "field {p=2}\nfn f = indicator(O, qhalf^١)\n"),
    ("field {p=2}\nset A = O\n", "field {p=٢}\nset A = O\n"),
    ("field {p=2, c=2}\nset A = O\n", "field {p=2, c=٢}\nset A = O\n"),
    ("field {p=2, c=2, modulus=[1,1,1]}\nset A = O\n",
     "field {p=2, c=2, modulus=[]}\nset A = O\n"),
    ("field {p=2, c=2, modulus=[1,1,1]}\nset A = O\n",
     "field {p=2, c=2, modulus=[1,1,١]}\nset A = O\n"),
    ("field {p=2}\nfamily T = tower(2)\nsolve X from T shells=-1..1 max-scale=2\n",
     "field {p=2}\nfamily T = tower(2)\nsolve X from T shells=-1..1 max-scale=٢\n"),
    ("field {p=2}\nfamily T = tower(2)\nsolve X from T shells=-1..1 max-scale=2\n",
     "field {p=2}\nfamily T = tower(2)\nsolve X from T shells=-١..1 max-scale=2\n"),
    ("field {p=2}\nfn a = indicator(O*)\nsimulate parseval [a] window=1,1\n",
     "field {p=2}\nfn a = indicator(O*)\nsimulate parseval [a] window=١,1\n"),
]


def test_integer_literals_are_ascii_in_every_position():
    for good, bad in _INTEGER_POSITIONS:
        run_text(good)
        with pytest.raises(SpecError) as err:
            run_text(bad)
        lines = zip(good.splitlines(), bad.splitlines())
        assert err.value.line_no == next(n for n, (a, b) in enumerate(lines, 1) if a != b), bad
    # the message of an empty modulus is lfwave's own, not int()'s
    with pytest.raises(SpecError, match="expected an integer, got ''"):
        parse_spec("field {p=2, c=2, modulus=[]}\n")


# one malformed argument for each call form, and a step{} whose cells overlap
MALFORMED_CALLS = {
    "shell": "shell(x)",
    "ball": "ball(p +, 0)",
    "union": "union(O, bogus)",
    "inter": "inter(O, bogus)",
    "diff": "diff(O, bogus)",
    "scale": "scale(O, 2*)",
    "translate": "translate(O, *p)",
    "scaling": "scaling(shell(1), 0)",
    "indicator": "indicator(O, 1/2 +)",
    "step": "step{(O, 1), (O*, 2)}",
}


def test_malformed_call_is_the_same_spec_error_in_a_definition_and_a_check():
    assert MALFORMED_CALLS.keys() - {"step"} == _FORMS.keys()
    for form, expr in MALFORMED_CALLS.items():
        if _FORMS.get(form, ("fn",))[0] == "set":
            uses = [f"set A = {expr}", f"check dilation {expr}", f"check translation {expr}"]
        else:
            uses = [f"fn f = {expr}", f"check frame [{expr}]", f"check translates {expr}"]
        errors = set()
        for use in uses:
            with pytest.raises(SpecError) as err:
                run_text(f"field {{p=2}}\n{use}\n")
            errors.add(str(err.value))
        assert len(errors) == 1 and errors.pop().startswith("line 2: "), (form, errors)


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


@pytest.mark.parametrize("spec", sorted(p.stem for p in SPECS.glob("*.lfw")))
def test_report_is_pinned(spec, tmp_path, capsys):
    # each spec's header comment says what its golden report pins
    out = tmp_path / "r.json"
    assert main(["check", str(SPECS / f"{spec}.lfw"), "--json", str(out)]) == 1
    capsys.readouterr()
    assert out.read_bytes() == (SPECS / f"{spec}.json").read_bytes()


def test_spec_corpus_reports_are_pinned():
    # the benchmark's spec corpus, drawn as its spec-verdicts workload draws
    # it, seeds 0-9 and rounds 0-2: each report as indented sorted JSON, or
    # the type and message of the exception, then NUL, in one digest
    spec = importlib.util.spec_from_file_location("corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    digest, count = hashlib.sha256(), 0
    for seed in range(10):
        for r in range(3):
            for doc in corpus.round_docs(random.Random(f"{seed}/spec-verdicts/{r}")):
                try:
                    out = json.dumps(run_text(doc["text"], doc["seed"]), indent=2,
                                     sort_keys=True)
                except Exception as exc:
                    out = f"{type(exc).__name__}: {exc}"
                digest.update(out.encode() + b"\0")
                count += 1
    assert count == 2070
    assert digest.hexdigest() == \
        "10e2fce23815f03e48ca53a139aedab2a7c8638958f6c95adaba489434cdaf03"


def test_nested_cell_sums_spec_sums_nested_balls(monkeypatch):
    # the corpus above never hands cell_sum two nested distinct balls; each
    # directive of this golden spec does, run with the spec's definitions
    nested = []
    real = stepfn.cell_sum

    def recorded(config, cells):
        balls = {b for b, _ in cells}
        nested.append(any(a != b and a.contains_ball(b) for a in balls for b in balls))
        return real(config, cells)

    monkeypatch.setattr(stepfn, "cell_sum", recorded)
    monkeypatch.setattr(verify, "cell_sum", recorded)
    lines = [line for line in (SPECS / "nested_cell_sums_p3.lfw").read_text().splitlines()
             if line and not line.startswith("#")]
    head = [line for line in lines if line.startswith(("field", "fn "))]
    for directive in lines[len(head):]:
        nested.clear()
        run_text("\n".join(head + [directive]) + "\n")
        assert any(nested), directive


def test_solve_completes_the_empty_family():
    # from [] the solver looks for a single orthonormal wavelet set
    report = run_text("field {p=2}\nsolve X from [] shells=-2..2 max-scale=3\n"
                      "check superwavelet [X]\n")
    result = report["directives"][0]["result"]
    assert report["passed"] and result["status"] == "sat"
    assert result["complement"] == [{"center": "p^-1", "scale": 0}]
    result = run_text("field {p=3}\nsolve X from [ ] shells=-2..2 max-scale=3\n")
    assert result["directives"][0]["result"]["certificate"]["kind"] == "parity"
    result = run_text("field {p=2, c=2}\nsolve X from [] shells=-1..1 max-scale=2\n")
    result = result["directives"][0]["result"]
    assert (result["status"], result["certificate"]["kind"], result["stats"]["nodes"]) == \
        ("unsat", "exhausted", 91)
    # every other empty list is refused
    for line in ("family F = []", "check superwavelet []", "check frame []",
                 "simulate parseval [] window=1,1", "check equivalent [], []"):
        with pytest.raises(SpecError, match="line 2: empty list"):
            run_text("field {p=2}\n" + line + "\n")


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
