"""Command-line front end: a small declarative spec language for fields,
sets, spectra, and check/bound/solve/simulate directives, with deterministic
JSON reports whose numbers are exact rational strings.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction

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

# (fewest, most) arguments of each call form; None is unbounded
_ARITY = {
    "shell": (1, 1), "ball": (2, 2), "inter": (1, None), "diff": (2, 2),
    "scale": (2, 2), "translate": (2, 2), "scaling": (2, 2), "indicator": (1, 2),
    "tower": (1, 1), "shell-tuple": (1, 1), "scaled-shannon": (1, 1),
}


def _call(text: str, line_no: int):
    """(name, args) of a call `name(a, b, ..)` with its argument count
    checked; (None, None) when text is not a call."""
    m = _CALL.match(text)
    if not m:
        return None, None
    fn, args = m.group(1), _split_args(m.group(2), line_no)
    lo, hi = _ARITY.get(fn, (0, None))
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
        if fn == "shell":
            return shell(cfg, _int(args[0]))
        if fn == "ball":
            return ClopenSet.from_ball(
                Ball(cfg, parse_element(cfg, args[0]), _int(args[1]))
            )
        if fn == "union":
            out = ClopenSet.empty(cfg)
            for a in args:
                out = out.union(parse_set_expr(cfg, a, env, line_no))
            return out
        if fn == "inter":
            out = parse_set_expr(cfg, args[0], env, line_no)
            for a in args[1:]:
                out = out.intersect(parse_set_expr(cfg, a, env, line_no))
            return out
        if fn == "diff":
            return parse_set_expr(cfg, args[0], env, line_no).subtract(
                parse_set_expr(cfg, args[1], env, line_no)
            )
        if fn == "scale":
            return parse_set_expr(cfg, args[0], env, line_no).scale_by(_int(args[1]))
        if fn == "translate":
            return parse_set_expr(cfg, args[0], env, line_no).translate(
                parse_element(cfg, args[1])
            )
        if fn == "scaling":
            S, certified = construct.scaling_set(
                parse_set_expr(cfg, args[0], env, line_no), _int(args[1])
            )
            if not certified:
                raise SpecError(line_no, "scaling-set tail not certifiable at this depth")
            return S
        raise SpecError(line_no, f"unknown set function {fn!r}")
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
    if fn == "indicator":
        support = parse_set_expr(cfg, args[0], env, line_no)
        value = parse_value(cfg, args[1], line_no) if len(args) > 1 else None
        return StepFunction.indicator(support, value)
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


def _name_list(cfg, text, env, line_no, kind):
    """A `[..]` list or a family name: sets for kind "set", else functions."""
    parse, want = (parse_set_expr, ClopenSet) if kind == "set" else (parse_fn_expr, StepFunction)
    text = text.strip()
    if text.startswith("["):
        return [parse(cfg, a, env, line_no) for a in _list_items(text, line_no)]
    fam = env.get(text)
    if isinstance(fam, list) and all(isinstance(x, want) for x in fam):
        return fam
    raise SpecError(line_no, f"expected [..] list or {kind} family name, got {text!r}")


# ---------------------------------------------------------------------------
# Document parsing
# ---------------------------------------------------------------------------


_FIELD = re.compile(r"^field\s*\{(.*)\}$")


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
            params = {}
            for item in _split_args(m.group(1), line_no):
                key, _, val = item.partition("=")
                params[key.strip()] = val.strip()
            if "p" not in params:
                raise SpecError(line_no, "field block needs p")
            try:
                modulus = None
                if "modulus" in params:
                    modulus = tuple(
                        int(x) for x in params["modulus"].strip("[]").split(",")
                    )
                doc.config = FieldConfig(
                    int(params["p"]), int(params.get("c", 1)), modulus
                )
            except ValueError as exc:
                raise SpecError(line_no, str(exc)) from None
            continue
        keyword, _, rest = line.partition(" ")
        if keyword not in (
            "set", "fn", "family", "check", "bound", "solve", "simulate"
        ):
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
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, CycloScalar):
        return repr(x)
    return str(x)


_KEYVAL = re.compile(r"(\w[\w-]*)=(\S+)")

_STOCK_FAMILIES = {
    "scaled-shannon": construct.scaled_shannon_family,
    "shell-tuple": construct.shell_tuple,
    "tower": construct.tower_components,
}


def _options(text: str):
    return {m.group(1): m.group(2) for m in _KEYVAL.finditer(text)}


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


def _split_mode(args, modes):
    """(expression, mode): a trailing word in modes is the mode; otherwise
    the whole text is the expression and the mode is modes[0]."""
    expr, _, mode = args.rpartition(" ")
    if mode in modes:
        return expr, mode
    return args, modes[0]


def _run_check(cfg, rest, env, line_no):
    kind, _, args = rest.partition(" ")
    args = args.strip()
    if kind == "dilation":
        return verify.check_dilation_tiling(parse_set_expr(cfg, args, env, line_no))
    if kind == "translation":
        expr, mode = _split_mode(args, ("packing", "tiling"))
        return verify.check_translation(parse_set_expr(cfg, expr, env, line_no), mode)
    if kind == "parseval-multiwavelet":
        return verify.verify_multiwavelet_set(
            _name_list(cfg, args, env, line_no, "set"), mode="parseval"
        )
    if kind == "multiwavelet":
        return verify.verify_multiwavelet_set(_name_list(cfg, args, env, line_no, "set"))
    if kind == "superwavelet":
        expr, mode = _split_mode(args, ("orthonormal", "parseval"))
        return verify.verify_superwavelet(
            _name_list(cfg, expr, env, line_no, "set"), mode
        )
    if kind == "frame":
        return verify.verify_frame_pointwise(_name_list(cfg, args, env, line_no, "fn"))
    if kind == "translates":
        expr, mode = _split_mode(args, ("parseval", "orthonormal"))
        return verify.verify_translates(parse_fn_expr(cfg, expr, env, line_no), mode)
    if kind == "super-functions":
        return verify.verify_super_functions(_name_list(cfg, args, env, line_no, "fn"))
    if kind == "equivalent":
        parts = _split_args(args, line_no)
        if len(parts) != 2:
            raise SpecError(line_no, "equivalent takes two function lists")
        return verify.equivalent_superwavelets(
            _name_list(cfg, parts[0], env, line_no, "fn"),
            _name_list(cfg, parts[1], env, line_no, "fn"),
        )
    if kind == "scaling":
        parts = _split_args(args, line_no)
        if len(parts) != 2:
            raise SpecError(line_no, "scaling takes a wavelet set and a scaling set")
        return verify.mra_scaling_check(
            parse_set_expr(cfg, parts[0], env, line_no),
            parse_set_expr(cfg, parts[1], env, line_no),
        )
    raise SpecError(line_no, f"unknown check kind {kind!r}")


def run(doc: SpecDocument, seed: int = 0) -> dict:
    cfg = doc.config
    env: dict = {}
    report = {
        "field": {"p": cfg.p, "c": cfg.c, "q": cfg.q} if cfg else {},
        "directives": [],
        "passed": True,
    }
    for line_no, keyword, rest in doc.statements:
        entry = {"line": line_no, "directive": f"{keyword} {rest}"}
        try:
            if keyword == "set":
                name, _, expr = rest.partition("=")
                env[name.strip()] = parse_set_expr(cfg, expr, env, line_no)
                entry["set"] = env[name.strip()].as_json()
            elif keyword == "fn":
                name, _, expr = rest.partition("=")
                env[name.strip()] = parse_fn_expr(cfg, expr, env, line_no)
                entry["cells"] = len(env[name.strip()].cells)
            elif keyword == "family":
                name, _, expr = rest.partition("=")
                expr = expr.strip()
                fn, args = _call(expr, line_no)
                if expr == "shannon":
                    fam = construct.shannon_family(cfg)
                elif fn in _STOCK_FAMILIES:
                    fam = _STOCK_FAMILIES[fn](cfg, _int(args[0]))
                elif expr.startswith("["):
                    items = _list_items(expr, line_no)
                    try:
                        fam = [parse_set_expr(cfg, a, env, line_no) for a in items]
                    except SpecError:
                        fam = [parse_fn_expr(cfg, a, env, line_no) for a in items]
                else:
                    raise SpecError(line_no, f"unknown family {expr!r}")
                env[name.strip()] = fam
                entry["size"] = len(fam)
            elif keyword == "check":
                verdict = _run_check(cfg, rest, env, line_no)
                entry["verdict"] = verdict.as_json()
                if not verdict.passed:
                    report["passed"] = False
            elif keyword == "bound":
                kind, _, expr = rest.partition(" ")
                f = parse_fn_expr(cfg, expr.strip(), env, line_no)
                if kind == "decomposability":
                    value, max_m = verify.decomposability_bound(f)
                elif kind == "extendability":
                    value, max_m = verify.extendability_bound(f)
                else:
                    raise SpecError(line_no, f"unknown bound kind {kind!r}")
                entry["value"] = _scalar_str(value)
                entry["max_m_not_excluded"] = (
                    "unbounded" if max_m is None else max_m
                )
            elif keyword == "solve":
                m = re.match(r"^(\w+)\s+from\s+(\[.*?\]|\S+)\s+(.*)$", rest)
                if not m:
                    raise SpecError(
                        line_no, "expected: solve NAME from F shells=a..b max-scale=r [node-cap=N]"
                    )
                name, fam_expr, opt_text = m.groups()
                opts = _options(opt_text)
                shells = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", opts.get("shells", ""))
                if not shells:
                    raise SpecError(line_no, "expected shells=a..b with integers a, b")
                max_scale = _int_option(opts, "max-scale", None, line_no)
                node_cap = _int_option(opts, "node-cap", 2_000_000, line_no, minimum=1)
                fam = _name_list(cfg, fam_expr, env, line_no, "set")
                result = construct.solve_complement(
                    fam, (int(shells[1]), int(shells[2])), max_scale, node_cap=node_cap
                )
                entry["result"] = result.as_json()
                if result.status == "sat":
                    env[name] = result.complement
                else:
                    report["passed"] = False
            elif keyword == "simulate":
                kind, _, args = rest.partition(" ")
                if kind not in ("parseval", "gram"):
                    raise SpecError(line_no, f"unknown simulate kind {kind!r}")
                opts = _options(args)
                window = re.fullmatch(r"(\d+),(\d+)", opts.get("window", ""))
                if not window and (kind == "parseval" or "window" in opts):
                    raise SpecError(
                        line_no, "expected window=R,S with integers R, S >= 0"
                    )
                trials = _int_option(opts, "trials", 0, line_no, minimum=0)
                jmax = _int_option(opts, "jmax", 2, line_no)
                kmax = _int_option(opts, "kmax", 8, line_no)
                fns = _name_list(cfg, _KEYVAL.sub("", args), env, line_no, "fn")
                if kind == "parseval":
                    model = framesim.FiniteModel(cfg, int(window[1]), int(window[2]))
                    rng = random.Random(seed)
                    worst = CycloScalar.zero(cfg.p, cfg.q)
                    failures = 0
                    for _, residual in framesim.mesh_delta_residuals(model, fns):
                        if not residual.is_zero():
                            failures += 1
                            worst = residual
                    for _ in range(trials):
                        f = model.random_step(rng)
                        residual, _ = framesim.parseval_residual(model, fns, f)
                        if not residual.is_zero():
                            failures += 1
                            worst = residual
                    entry["nonzero_residuals"] = failures
                    if failures:
                        entry["last_residual"] = _scalar_str(worst)
                        report["passed"] = False
                else:
                    bad = 0
                    for j1 in range(-jmax, jmax + 1):
                        for k1 in range(kmax):
                            g = framesim.gram_entry(fns, (0, 0), (j1, k1))
                            want = (
                                CycloScalar.rational(cfg.p, cfg.q, 1)
                                if (j1, k1) == (0, 0)
                                else CycloScalar.zero(cfg.p, cfg.q)
                            )
                            if g != want:
                                bad += 1
                    entry["non_delta_entries"] = bad
                    if bad:
                        report["passed"] = False
        except SpecError:
            raise
        except (ValueError, KeyError) as exc:
            # a malformed definition, integer or element names its line; only
            # the mathematics of a well-formed directive is an error entry
            if keyword in ("set", "fn", "family") or isinstance(exc, ElementSyntaxError):
                raise SpecError(line_no, str(exc)) from None
            entry["error"] = str(exc)
            report["passed"] = False
        report["directives"].append(entry)
    return report


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _run_file(path: str, seed: int, json_path: str | None, only: str | None = None) -> int:
    with open(path, encoding="utf-8") as fh:
        doc = parse_spec(fh.read())
    if only is not None:
        doc.statements = [
            s for s in doc.statements
            if s[1] in ("set", "fn", "family", only)
        ]
    report = run(doc, seed=seed)
    text = json.dumps(report, indent=2, sort_keys=True)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lfw",
        description="exact wavelet-set verification on local fields of "
                    "positive characteristic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, only in (
        ("check", None), ("bound", "bound"), ("solve", "solve"),
        ("simulate", "simulate"),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("spec")
        sp.add_argument("--json", dest="json_path")
        sp.add_argument("--seed", type=int, default=0)
        sp.set_defaults(only=only)

    cp = sub.add_parser("construct")
    cp.add_argument("what", choices=[
        "shannon", "shell", "scaled-shannon", "shell-tuple", "tower"])
    cp.add_argument("--p", type=int, required=True)
    cp.add_argument("--c", type=int, default=1)
    cp.add_argument("--m", type=int, default=1)
    cp.add_argument("--n", type=int, default=2)

    args = parser.parse_args(argv)
    if args.command == "construct":
        cfg = FieldConfig(args.p, args.c)
        if args.what == "shannon":
            out = [W.as_json() for W in construct.shannon_family(cfg)]
        elif args.what == "shell":
            out = construct.shell_wavelet(cfg, args.m).as_json()
        elif args.what == "scaled-shannon":
            out = [W.as_json() for W in construct.scaled_shannon_family(cfg, args.m)]
        elif args.what == "shell-tuple":
            out = [W.as_json() for W in construct.shell_tuple(cfg, args.n)]
        else:
            out = [W.as_json() for W in construct.tower_components(cfg, args.n)]
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    try:
        return _run_file(args.spec, args.seed, args.json_path, args.only)
    except SpecError as exc:  # a malformed spec: its line, no traceback
        print(f"lfw: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
