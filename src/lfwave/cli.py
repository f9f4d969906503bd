"""Command-line front end: a small declarative spec language for fields,
sets, spectra, and check/bound/solve/simulate directives, with deterministic
JSON reports whose numbers are exact rational strings.  Each decision of the
language is one table: `_FORMS`, `_FAMILIES`, `_CHECKS` and `_DIRECTIVES`.
Their entries look up what they call in other modules when they run, so a
wrapper patched onto those modules (perfbench's layer tracer) sees the call.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction
from functools import reduce
from itertools import chain

from . import construct, framesim, verify
from .clopen import Ball, ClopenSet, fractional_ideal, integers, shell, units
from .cyclo import CycloScalar
from .gfq import FieldConfig
from .lfield import ElementSyntaxError, parse_element
from .stepfn import StepFunction


class SpecError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# ---------------------------------------------------------------------------
# Expression parsing (sets, spectra, scalar literals)
# ---------------------------------------------------------------------------


def _split_args(text: str, line_no: int):
    """Split on top-level commas, respecting (), [], {} nesting."""
    args, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth < 0:
                raise SpecError(line_no, f"unbalanced brackets in {text!r}")
        elif ch == "," and depth == 0:
            args.append(text[start:i].strip())
            start = i + 1
    if depth:
        raise SpecError(line_no, f"unbalanced brackets in {text!r}")
    tail = text[start:].strip()
    if tail or args:
        args.append(tail)
    return args


_CALL = re.compile(r"^([A-Za-z_][\w-]*)\s*\((.*)\)$", re.DOTALL)


def _call(text: str, line_no: int):
    """(name, args) of a call `name(a, b, ..)` with its argument count
    checked; (None, None) when text is not a call."""
    m = _CALL.match(text)
    if not m:
        return None, None
    fn, args = m.group(1), _split_args(m.group(2), line_no)
    lo, hi = _FORMS[fn][1:3] if fn in _FORMS else (0, None)
    if _FAMILIES.get(fn, (None,))[0]:  # a stock family takes its parameter
        lo = hi = 1
    if len(args) < lo or (hi is not None and len(args) > hi):
        want = lo if hi == lo else f"{lo} or more" if hi is None else f"{lo} to {hi}"
        raise SpecError(line_no, f"{fn}() takes {want} arguments, got {len(args)}")
    return fn, args


def _int(text: str) -> int:
    """An integer literal; a malformed one is a literal syntax error, like a
    malformed element, so that run() reports it as a SpecError."""
    try:
        return int(text)
    except ValueError:
        raise ElementSyntaxError(f"expected an integer, got {text!r}") from None


def _operand(kind, cfg, text, env, line_no):
    """text read as one operand of the given kind: a "set" or "fn"
    expression, a `[..]` list or family name of "sets" or "fns", or a
    "family" definition."""
    if kind in ("set", "fn"):
        return (parse_set_expr if kind == "set" else parse_fn_expr)(cfg, text, env, line_no)
    if kind == "family":
        return _parse_family(cfg, text, env, line_no)
    text = text.strip()
    if text.startswith("["):
        return [_operand(kind[:-1], cfg, a, env, line_no) for a in _list_items(text, line_no)]
    fam, want = env.get(text), ClopenSet if kind == "sets" else StepFunction
    if isinstance(fam, list) and all(isinstance(x, want) for x in fam):
        return fam
    raise SpecError(line_no, f"expected [..] list or {kind[:-1]} family name, got {text!r}")


def _sets(cfg, args, env, line_no):
    return [parse_set_expr(cfg, a, env, line_no) for a in args]


def _scaling(cfg, args, env, line_no):
    S, certified = construct.scaling_set(parse_set_expr(cfg, args[0], env, line_no),
                                         _int(args[1]))
    if not certified:
        raise SpecError(line_no, "scaling-set tail not certifiable at this depth")
    return S


# call forms NAME(args): name -> (what it builds, "set" or "fn"; fewest and
# most arguments, None unbounded; builder(cfg, args, env, line_no), which
# reads its arguments left to right)
_FORMS = {
    "shell": ("set", 1, 1, lambda cfg, a, env, ln: shell(cfg, _int(a[0]))),
    "ball": ("set", 2, 2, lambda cfg, a, env, ln:
             ClopenSet.from_ball(Ball(cfg, parse_element(cfg, a[0]), _int(a[1])))),
    "union": ("set", 0, None, lambda cfg, a, env, ln:
              reduce(ClopenSet.union, _sets(cfg, a, env, ln), ClopenSet.empty(cfg))),
    "inter": ("set", 1, None, lambda cfg, a, env, ln:
              reduce(ClopenSet.intersect, _sets(cfg, a, env, ln))),
    "diff": ("set", 2, 2, lambda cfg, a, env, ln: ClopenSet.subtract(*_sets(cfg, a, env, ln))),
    "scale": ("set", 2, 2, lambda cfg, a, env, ln:
              parse_set_expr(cfg, a[0], env, ln).scale_by(_int(a[1]))),
    "translate": ("set", 2, 2, lambda cfg, a, env, ln:
                  parse_set_expr(cfg, a[0], env, ln).translate(parse_element(cfg, a[1]))),
    "scaling": ("set", 2, 2, _scaling),
    "indicator": ("fn", 1, 2, lambda cfg, a, env, ln: StepFunction.indicator(
        parse_set_expr(cfg, a[0], env, ln), parse_value(cfg, a[1], ln) if a[1:] else None)),
}


def parse_set_expr(cfg: FieldConfig, text: str, env: dict, line_no: int) -> ClopenSet:
    text = text.strip()
    if text == "O":
        return integers(cfg)
    if text == "O*":
        return units(cfg)
    m = re.match(r"^P\^(-?\d+)$", text)
    if m:
        return fractional_ideal(cfg, int(m.group(1)))
    fn, args = _call(text, line_no)
    if fn:
        form = _FORMS.get(fn)
        if form is None or form[0] != "set":
            raise SpecError(line_no, f"unknown set function {fn!r}")
        return form[3](cfg, args, env, line_no)
    if text in env and isinstance(env[text], ClopenSet):
        return env[text]
    raise SpecError(line_no, f"unknown set {text!r}")


_VALUE_TERM = re.compile(
    r"^\s*(?:zeta\^(?P<zk>-?\d+)|qhalf\^(?P<qe>-?\d+)"
    r"|(?P<rat>-?\d+(?:/0*[1-9]\d*)?))\s*$"
)


def parse_value(cfg: FieldConfig, text: str, line_no: int) -> CycloScalar:
    """Scalar literal: sum of products of `a/b`, `zeta^k`, `qhalf^e`."""
    total = CycloScalar.zero(cfg.p, cfg.q)
    for addend in text.split("+"):
        term = CycloScalar.rational(cfg.p, cfg.q, 1)
        for factor in addend.split("*"):
            m = _VALUE_TERM.match(factor)
            if not m:
                raise SpecError(line_no, f"bad scalar literal {factor!r}")
            if m.group("zk") is not None:
                term = term * CycloScalar.zeta_pow(cfg.p, cfg.q, int(m.group("zk")))
            elif m.group("qe") is not None:
                term = term.q_half_shift(int(m.group("qe")))
            else:
                term = term * CycloScalar.rational(cfg.p, cfg.q, Fraction(m.group("rat")))
        total = total + term
    return total


def parse_fn_expr(cfg: FieldConfig, text: str, env: dict, line_no: int) -> StepFunction:
    text = text.strip()
    fn, args = _call(text, line_no)
    form = _FORMS.get(fn)
    if form and form[0] == "fn":
        return form[3](cfg, args, env, line_no)
    m = re.match(r"^step\{(.*)\}$", text, re.DOTALL)
    if m:
        cells = []
        for piece in _split_args(m.group(1), line_no):
            pm = re.match(r"^\((.*)\)$", piece.strip(), re.DOTALL)
            if not pm:
                raise SpecError(line_no, f"expected (ball(...), value), got {piece!r}")
            inner = _split_args(pm.group(1), line_no)
            if len(inner) != 2:
                raise SpecError(line_no, "cell needs exactly (ball, value)")
            support = parse_set_expr(cfg, inner[0], env, line_no)
            value = parse_value(cfg, inner[1], line_no)
            cells.extend((b, value) for b in support.balls)
        return StepFunction(cfg, cells)
    if text in env and isinstance(env[text], StepFunction):
        return env[text]
    raise SpecError(line_no, f"unknown function expression {text!r}")


def _list_items(text: str, line_no: int):
    """The items of a nonempty `[a, b, ..]` list."""
    if not text.endswith("]"):
        raise SpecError(line_no, f"unclosed list {text!r}")
    items = _split_args(text[1:-1], line_no)
    if not items:
        raise SpecError(line_no, "empty list")
    return items


# stock families: name -> (the integer parameter, None for none, which
# `lfw construct` takes as --m or --n; builder, with that option's default).
# `family F = shannon` names the one without a parameter, and the others are
# called: `family F = tower(3)`.
_FAMILIES = {
    "shannon": (None, lambda cfg: construct.shannon_family(cfg)),
    "scaled-shannon": ("m", lambda cfg, m=1: construct.scaled_shannon_family(cfg, m)),
    "shell-tuple": ("n", lambda cfg, n=2: construct.shell_tuple(cfg, n)),
    "tower": ("n", lambda cfg, n=2: construct.tower_components(cfg, n)),
}


def _parse_family(cfg, text, env, line_no):
    """A stock family, or a `[..]` list of sets or else of functions."""
    text = text.strip()
    fn, args = _call(text, line_no)
    stock = _FAMILIES.get(text if fn is None else fn)
    if stock and (stock[0] is None) == (fn is None):
        return stock[1](cfg, *map(_int, args or ()))
    if text.startswith("["):
        items = _list_items(text, line_no)
        try:
            return [parse_set_expr(cfg, a, env, line_no) for a in items]
        except SpecError:
            return [parse_fn_expr(cfg, a, env, line_no) for a in items]
    raise SpecError(line_no, f"unknown family {text!r}")


# ---------------------------------------------------------------------------
# Document parsing
# ---------------------------------------------------------------------------


_FIELD = re.compile(r"^field\s*\{(.*)\}$")
_KEYVAL = re.compile(r"\w[\w-]*=\S+")


def _options(items, allowed, line_no):
    """The `KEY=VALUE` items as a dict; each key is one of allowed, at most once."""
    opts = {}
    for item in items:
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in allowed:
            raise SpecError(line_no, f"unknown option {key!r}; expected {', '.join(allowed)}")
        if key in opts:
            raise SpecError(line_no, f"option {key!r} given twice")
        opts[key] = value.strip()
    return opts


class SpecDocument:
    def __init__(self):
        self.config: FieldConfig | None = None
        self.statements: list[tuple[int, str, str]] = []  # (line, keyword, rest)


def parse_spec(text: str) -> SpecDocument:
    doc = SpecDocument()
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _FIELD.match(line)
        if m:
            if doc.config is not None:
                raise SpecError(line_no, "field block redefined")
            params = _options(_split_args(m.group(1), line_no), ("p", "c", "modulus"), line_no)
            if "p" not in params:
                raise SpecError(line_no, "field block needs p")
            modulus = params.get("modulus")
            try:
                if modulus is not None:
                    modulus = tuple(int(x) for x in modulus.strip("[]").split(","))
                doc.config = FieldConfig(int(params["p"]), int(params.get("c", 1)), modulus)
            except ValueError as exc:
                raise SpecError(line_no, str(exc)) from None
            continue
        keyword, _, rest = line.partition(" ")
        if keyword not in _DIRECTIVES:
            raise SpecError(line_no, f"unknown directive {keyword!r}")
        doc.statements.append((line_no, keyword, rest.strip()))
    if doc.config is None and doc.statements:
        raise SpecError(1, "spec file has no field block")
    return doc


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _scalar_str(x) -> str:
    if x == float("inf"):
        return "inf"
    return repr(x) if isinstance(x, CycloScalar) else str(x)


def _int_option(opts, name, default, line_no, minimum=None):
    """The integer option name=N; a default of None makes it required."""
    text = opts.get(name)
    if text is None:
        if default is None:
            raise SpecError(line_no, f"missing {name}=")
        return default
    try:
        value = int(text)
    except ValueError:
        raise SpecError(line_no, f"{name}= needs an integer, got {text!r}") from None
    if minimum is not None and value < minimum:
        raise SpecError(line_no, f"{name}= must be at least {minimum}, got {value}")
    return value


_WORD = re.compile(r"\w+")


def _name(text, line_no):
    """A name a directive binds: a word other than O, which is the integers."""
    if not _WORD.fullmatch(text) or text == "O":
        raise SpecError(line_no, f"expected a name (a word other than O), got {text!r}")
    return text


def _definer(kind, field):
    """The handler of `KEYWORD NAME = EXPR`: bind NAME to EXPR read as an
    operand of kind, and report field(value)."""
    def define(cfg, env, line_no, rest, *_):
        name, _, expr = rest.partition("=")
        name = _name(name.strip(), line_no)
        env[name] = _operand(kind, cfg, expr, env, line_no)
        return field(env[name]), True
    return define


# check KIND ARGS: kind -> (verify function, operand kinds, modes with the
# default first[, what the operands are when there are two]).  Where there is
# a choice of modes, a trailing mode word picks one; a mode goes to the verifier.
_CHECKS = {
    "dilation": ("check_dilation_tiling", ("set",), ()),
    "translation": ("check_translation", ("set",), ("packing", "tiling")),
    "multiwavelet": ("verify_multiwavelet_set", ("sets",), ("orthonormal",)),
    "parseval-multiwavelet": ("verify_multiwavelet_set", ("sets",), ("parseval",)),
    "superwavelet": ("verify_superwavelet", ("sets",), ("orthonormal", "parseval")),
    "frame": ("verify_frame_pointwise", ("fns",), ()),
    "translates": ("verify_translates", ("fn",), ("parseval", "orthonormal")),
    "super-functions": ("verify_super_functions", ("fns",), ()),
    "equivalent": ("equivalent_superwavelets", ("fns", "fns"), (), "two function lists"),
    "scaling": ("mra_scaling_check", ("set", "set"), (), "a wavelet set and a scaling set"),
}


def _run_check(cfg, env, line_no, rest, *_):
    kind, _, args = rest.partition(" ")
    if kind not in _CHECKS:
        raise SpecError(line_no, f"unknown check kind {kind!r}")
    verifier, kinds, modes, *usage = _CHECKS[kind]
    args, mode = args.strip(), modes[:1]
    if len(modes) > 1:
        expr, word = args.rpartition(" ")[::2]
        if word in modes:
            args, mode = expr, (word,)
    parts = _split_args(args, line_no) if len(kinds) > 1 else [args]
    if len(parts) != len(kinds):
        raise SpecError(line_no, f"{kind} takes {usage[0]}")
    operands = [_operand(k, cfg, t, env, line_no) for k, t in zip(kinds, parts)]
    verdict = getattr(verify, verifier)(*operands, *mode)
    return {"verdict": verdict.as_json()}, verdict.passed


# bound KIND f: kind -> the singular-integral bound of f's periodized weight
_BOUNDS = {"decomposability": "decomposability_bound", "extendability": "extendability_bound"}


def _run_bound(cfg, env, line_no, rest, *_):
    kind, _, expr = rest.partition(" ")
    f = parse_fn_expr(cfg, expr.strip(), env, line_no)
    if kind not in _BOUNDS:
        raise SpecError(line_no, f"unknown bound kind {kind!r}")
    value, max_m = getattr(verify, _BOUNDS[kind])(f)
    return {"value": _scalar_str(value),
            "max_m_not_excluded": "unbounded" if max_m is None else max_m}, True


def _run_solve(cfg, env, line_no, rest, options, seed):
    m = re.match(r"^(\w+)\s+from\s+(\[.*?\]|\S+)\s+(.*)$", rest)
    if not m:
        raise SpecError(line_no,
                        "expected: solve NAME from F shells=a..b max-scale=r [node-cap=N]")
    name, fam_expr, opt_text = m.groups()
    name = _name(name, line_no)
    opts = _options(_KEYVAL.findall(opt_text), options, line_no)
    shells = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", opts.get("shells", ""))
    if not shells:
        raise SpecError(line_no, "expected shells=a..b with integers a, b")
    max_scale = _int_option(opts, "max-scale", None, line_no)
    node_cap = _int_option(opts, "node-cap", 2_000_000, line_no, minimum=1)
    fam = _operand("sets", cfg, fam_expr, env, line_no)
    stray = _KEYVAL.sub("", opt_text).split()
    if stray:
        raise SpecError(line_no, f"unexpected {stray[0]!r}; options are KEY=VALUE")
    shells = int(shells[1]), int(shells[2])
    result = construct.solve_complement(fam, shells, max_scale, node_cap=node_cap)
    if result.status == "sat":
        env[name] = result.complement
    return {"result": result.as_json()}, result.status == "sat"


def _run_simulate(cfg, env, line_no, rest, options, seed):
    kind, _, args = rest.partition(" ")
    if kind not in ("parseval", "gram"):
        raise SpecError(line_no, f"unknown simulate kind {kind!r}")
    opts = _options(_KEYVAL.findall(args), options, line_no)
    window = re.fullmatch(r"(\d+),(\d+)", opts.get("window", ""))
    if not window and (kind == "parseval" or "window" in opts):
        raise SpecError(line_no, "expected window=R,S with integers R, S >= 0")
    trials = _int_option(opts, "trials", 0, line_no, minimum=0)
    jmax = _int_option(opts, "jmax", 2, line_no)
    kmax = _int_option(opts, "kmax", 8, line_no)
    fns = _operand("fns", cfg, _KEYVAL.sub("", args), env, line_no)
    if kind == "gram":
        one, zero = CycloScalar.rational(cfg.p, cfg.q, 1), CycloScalar.zero(cfg.p, cfg.q)
        bad = sum(framesim.gram_entry(fns, (0, 0), (j, k)) != (one if (j, k) == (0, 0) else zero)
                  for j in range(-jmax, jmax + 1) for k in range(kmax))
        return {"non_delta_entries": bad}, not bad
    model = framesim.FiniteModel(cfg, int(window[1]), int(window[2]))
    rng = random.Random(seed)
    residuals = chain((r for _, r in framesim.mesh_delta_residuals(model, fns)),
                      (framesim.parseval_residual(model, fns, model.random_step(rng))[0]
                       for _ in range(trials)))
    bad = [r for r in residuals if not r.is_zero()]
    last = {"last_residual": _scalar_str(bad[-1])} if bad else {}
    return {"nonzero_residuals": len(bad), **last}, not bad


# directive keyword -> (handler, scope, the keys of its KEY=VALUE options).
# handler(cfg, env, line_no, rest, options, seed) returns (the fields of the
# report entry, whether the directive passed).  Scope "definition": it binds
# a name, every `lfw` subcommand runs it, and a ValueError in it is a
# SpecError; "spec": `lfw KEYWORD SPEC` runs the whole spec; "kind":
# `lfw KEYWORD SPEC` runs the definitions and the directives of this keyword.
_DIRECTIVES = {
    "set": (_definer("set", lambda S: {"set": S.as_json()}), "definition", ()),
    "fn": (_definer("fn", lambda f: {"cells": len(f.cells)}), "definition", ()),
    "family": (_definer("family", lambda F: {"size": len(F)}), "definition", ()),
    "check": (_run_check, "spec", ()),
    "bound": (_run_bound, "kind", ()),
    "solve": (_run_solve, "kind", ("shells", "max-scale", "node-cap")),
    "simulate": (_run_simulate, "kind", ("window", "trials", "jmax", "kmax")),
}


def run(doc: SpecDocument, seed: int = 0) -> dict:
    cfg = doc.config
    env: dict = {}
    field = {"p": cfg.p, "c": cfg.c, "q": cfg.q} if cfg else {}
    report = {"field": field, "directives": [], "passed": True}
    for line_no, keyword, rest in doc.statements:
        entry = {"line": line_no, "directive": f"{keyword} {rest}"}
        handler, scope, options = _DIRECTIVES[keyword]
        try:
            fields, passed = handler(cfg, env, line_no, rest, options, seed)
            entry.update(fields)
        except SpecError:
            raise
        except (ValueError, KeyError) as exc:
            # a malformed definition, integer or element names its line; only
            # the mathematics of a well-formed directive is an error entry
            if scope == "definition" or isinstance(exc, ElementSyntaxError):
                raise SpecError(line_no, str(exc)) from None
            entry["error"] = str(exc)
            passed = False
        report["passed"] = report["passed"] and passed
        report["directives"].append(entry)
    return report


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _run_file(path: str, seed: int, json_path: str | None, only: str | None = None) -> int:
    with open(path, encoding="utf-8") as fh:
        doc = parse_spec(fh.read())
    if only is not None:
        doc.statements = [s for s in doc.statements
                          if s[1] == only or _DIRECTIVES[s[1]][1] == "definition"]
    report = run(doc, seed=seed)
    text = json.dumps(report, indent=2, sort_keys=True)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report["passed"] else 1


# `lfw construct WHAT`: a stock family, or the Parseval frame wavelet set p^m O*
_CONSTRUCTS = {**_FAMILIES, "shell": ("m", lambda cfg, m=1: construct.shell_wavelet(cfg, m))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lfw", description="exact wavelet-set verification "
                                     "on local fields of positive characteristic")
    sub = parser.add_subparsers(dest="command", required=True)

    for keyword, (_, scope, _) in _DIRECTIVES.items():
        if scope != "definition":
            sp = sub.add_parser(keyword)
            sp.add_argument("spec")
            sp.add_argument("--json", dest="json_path")
            sp.add_argument("--seed", type=int, default=0)
            sp.set_defaults(only=keyword if scope == "kind" else None)

    cp = sub.add_parser("construct")
    cp.add_argument("what", choices=list(_CONSTRUCTS))
    cp.add_argument("--p", type=int, required=True)
    cp.add_argument("--c", type=int, default=1)
    cp.add_argument("--m", type=int)
    cp.add_argument("--n", type=int)

    args = parser.parse_args(argv)
    try:
        if args.command != "construct":
            return _run_file(args.spec, args.seed, args.json_path, args.only)
        param, build = _CONSTRUCTS[args.what]
        given = {k: v for k, v in (("m", args.m), ("n", args.n)) if v is not None}
        extra = sorted(given.keys() - {param})
        if extra:
            raise ValueError(f"{args.what} takes no --{extra[0]}")
        built = build(FieldConfig(args.p, args.c), **given)
    except ValueError as exc:  # a malformed spec or bad construct parameters
        print(f"lfw: {exc}", file=sys.stderr)
        return 2
    out = built.as_json() if isinstance(built, ClopenSet) else [W.as_json() for W in built]
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
