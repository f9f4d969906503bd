"""Laurent-series field elements, the coset representative map, and the
canonical character, checked against digitwise oracles."""

import operator
import random

import pytest

from lfwave.cyclo import CycloScalar
from lfwave.gfq import ConfigMismatch, FieldConfig
from lfwave.lfield import (
    ElementSyntaxError,
    FieldElement,
    character,
    coset_index,
    coset_rep,
    format_element,
    parse_element,
    split_integral,
)

CFG2 = FieldConfig(2, 1)
CFG3 = FieldConfig(3, 1)
CFG4 = FieldConfig(2, 2)
CFG9 = FieldConfig(3, 2)
# the kernels' reference fields: q = 2, 3, 4, 5, 8, 9
KERNEL_FIELDS = (CFG2, CFG3, CFG4, FieldConfig(5, 1), FieldConfig(2, 3), CFG9)


def rand_element(cfg, rng, lo=-5, hi=5, max_terms=4):
    digits = {}
    for _ in range(rng.randrange(max_terms + 1)):
        e = rng.randrange(lo, hi + 1)
        digits[e] = rng.randrange(1, cfg.q)
    return FieldElement(cfg, digits)


def test_addition_is_digitwise_mod_p():
    # q=3: (2p + p^2) + (p + 2p^2) = 0
    x = parse_element(CFG3, "2*p + p^2")
    y = parse_element(CFG3, "p + 2*p^2")
    assert not (x + y)
    z = FieldElement.zero(CFG3)
    assert x + z == x
    # q=2: p^-1 + p^-1 = 0 in characteristic 2
    t = FieldElement.monomial(CFG2, 1, -1)
    assert not (t + t)


def test_multiplication_convolution():
    one = FieldElement.one(CFG2)
    x = parse_element(CFG2, "1 + p")
    assert x * one == x
    assert x * x == parse_element(CFG2, "1 + p^2")  # Frobenius in char 2
    for a in range(-8, 9):
        for b in range(-8, 9):
            pa = FieldElement.monomial(CFG3, 1, a)
            pb = FieldElement.monomial(CFG3, 1, b)
            assert pa * pb == FieldElement.monomial(CFG3, 1, a + b)


def test_multiplication_matches_convolution_oracle():
    rng = random.Random(5)
    for cfg in (CFG3, CFG4):
        for _ in range(200):
            x = rand_element(cfg, rng)
            y = rand_element(cfg, rng)
            conv = {}
            for e1, d1 in x.digits.items():
                for e2, d2 in y.digits.items():
                    prev = conv.get(e1 + e2, 0)
                    conv[e1 + e2] = cfg.add(prev, cfg.mul(d1, d2))
            expect = FieldElement(cfg, {e: d for e, d in conv.items() if d})
            assert x * y == expect


def test_valuation_and_ultrametric():
    rng = random.Random(6)
    assert FieldElement.monomial(CFG2, 1, 3).valuation() == 3
    for _ in range(10_000):
        x = rand_element(CFG3, rng)
        y = rand_element(CFG3, rng)
        s = x + y
        if not x or not y:
            continue
        assert s.valuation() >= min(x.valuation(), y.valuation())
        if x.valuation() != y.valuation():
            assert s.valuation() == min(x.valuation(), y.valuation())
    # |xy| = |x| |y|
    for _ in range(500):
        x = rand_element(CFG3, rng)
        y = rand_element(CFG3, rng)
        if x and y:
            assert (x * y).valuation() == x.valuation() + y.valuation()


def test_coset_rep_digits_are_base_q_digits():
    assert not coset_rep(CFG2, 0)
    assert coset_rep(CFG2, 2) == FieldElement.monomial(CFG2, 1, -2)
    for cfg in (CFG2, CFG3, CFG4):
        for n in range(200):
            x = coset_rep(cfg, n)
            m, digs = n, {}
            k = 0
            while m:
                m, b = divmod(m, cfg.q)
                if b:
                    digs[-(k + 1)] = b
                k += 1
            assert x == FieldElement(cfg, digs)


def test_coset_rep_absolute_value_classes():
    for cfg, q in ((CFG2, 2), (CFG3, 3), (FieldConfig(5, 1), 5)):
        for n in range(1, q ** 4):
            k = 1
            while q ** k <= n:
                k += 1
            assert coset_rep(cfg, n).valuation() == -k


def test_coset_index_round_trip():
    for cfg in (CFG2, CFG3):
        for n in range(10_000):
            assert coset_index(coset_rep(cfg, n)) == n
    for n in range(1000):
        assert coset_index(coset_rep(CFG4, n)) == n


def test_negation_permutes_representatives():
    for cfg in (CFG2, CFG3):
        seen = {}
        for n in range(10_000):
            m = coset_index(-coset_rep(cfg, n))
            seen[n] = m
        for n, m in seen.items():
            if m < 10_000:
                assert seen[m] == n  # involution


def test_translation_by_representative_permutes_prefix_groups():
    # {u(l) + u(n) : n < q^k} = {u(n) : n < q^k} whenever l < q^k, because
    # the representatives of bounded length form a group under addition.
    for cfg, q in ((CFG2, 2), (CFG3, 3)):
        k = 6 if q == 2 else 4
        block = q ** k
        for l in range(min(64, block)):
            ul = coset_rep(cfg, l)
            image = {coset_index(ul + coset_rep(cfg, n)) for n in range(block)}
            assert image == set(range(block))


def test_representative_scaling_identity():
    for cfg, q in ((CFG2, 2), (CFG3, 3)):
        for r in range(32):
            for k in range(4):
                ur_shift = coset_rep(cfg, r).scale_exponents(-k)
                for s in range(q ** k):
                    lhs = coset_rep(cfg, r * q ** k + s)
                    assert lhs == ur_shift + coset_rep(cfg, s)


def test_split_integral():
    x = parse_element(CFG2, "p")
    assert split_integral(x) == (0, x)
    y = parse_element(CFG2, "p^-1 + p")
    n, rem = split_integral(y)
    assert n == 1 and rem == x
    z = coset_rep(CFG3, 5) + parse_element(CFG3, "1 + p")
    assert split_integral(z) == (5, parse_element(CFG3, "1 + p"))


def test_character_trivial_on_integers():
    rng = random.Random(7)
    one3 = FieldElement.one(CFG3)
    unit = CycloScalar.rational(3, 3, 1)
    for _ in range(100):
        x = rand_element(CFG3, rng, lo=0, hi=6)
        assert character(one3, x) == unit


def test_character_nontrivial_on_inverse_ideal():
    minus_one = CycloScalar.rational(2, 2, -1)
    assert character(FieldElement.one(CFG2),
                     FieldElement.monomial(CFG2, 1, -1)) == minus_one
    unit3 = CycloScalar.rational(3, 3, 1)
    assert character(FieldElement.one(CFG3),
                     FieldElement.monomial(CFG3, 1, -1)) != unit3


def test_character_trivial_on_representative_products():
    for cfg in (CFG2, CFG4):
        unit = CycloScalar.rational(cfg.p, cfg.q, 1)
        bound = 256 if cfg is CFG2 else 64
        for k in range(bound):
            uk = coset_rep(cfg, k)
            for l in range(bound):
                assert character(uk, coset_rep(cfg, l)) == unit


def test_character_multiplicative_in_argument():
    rng = random.Random(8)
    for _ in range(300):
        y = rand_element(CFG3, rng)
        x1 = rand_element(CFG3, rng)
        x2 = rand_element(CFG3, rng)
        assert character(y, x1 + x2) == character(y, x1) * character(y, x2)


def test_subtraction_adds_the_negative():
    rng = random.Random(30)
    for cfg in KERNEL_FIELDS:
        zero = FieldElement.zero(cfg)
        for _ in range(200):
            x = rand_element(cfg, rng)
            y = rand_element(cfg, rng)
            # x with y's digits written over it: equal digits cancel
            z = FieldElement(cfg, {**x.digits, **y.digits})
            for a, b in ((x, y), (y, x), (x, z), (z, x), (x, zero), (zero, x)):
                assert a - b == a + (-b)
            assert x - x == zero
            assert x - x.truncate_below(0) == x.truncate_at_least(0)


def test_subtraction_and_character_refuse_mixed_fields():
    # each field against the next, and GF(9) under two moduli: same q,
    # another configuration
    pairs = list(zip(KERNEL_FIELDS, KERNEL_FIELDS[1:] + KERNEL_FIELDS[:1]))
    pairs.append((CFG9, FieldConfig(3, 2, (2, 1, 1))))
    for cfg, other in pairs:
        x, y = FieldElement.one(cfg), FieldElement.monomial(other, 1, -1)
        for op in (operator.sub, character):
            for a, b in ((x, y), (y, x)):
                with pytest.raises(ConfigMismatch, match="^elements from different field configurations$"):
                    op(a, b)


def test_character_matches_the_digit_of_the_product():
    rng = random.Random(31)
    for cfg in KERNEL_FIELDS:
        unit = CycloScalar.rational(cfg.p, cfg.q, 1)
        nontrivial = 0
        for _ in range(300):
            y = rand_element(cfg, rng, lo=-5, hi=4, max_terms=5)
            x = rand_element(cfg, rng, lo=-5, hi=4, max_terms=5)
            # the reference: build y * x and read its digit at exponent -1
            ref = CycloScalar.zeta_pow(cfg.p, cfg.q, cfg.trace((y * x).digit(-1)))
            assert character(y, x) == ref
            nontrivial += ref != unit
        assert nontrivial >= 50


def test_parse_format_round_trip():
    rng = random.Random(9)
    for cfg in (CFG2, CFG3, CFG9):
        for _ in range(300):
            x = rand_element(cfg, rng)
            assert parse_element(cfg, format_element(x)) == x
    assert format_element(FieldElement.zero(CFG2)) == "0"
    assert parse_element(CFG2, "u(17)") == coset_rep(CFG2, 17)


def test_parse_round_trip_with_random_spacing():
    # format_element's output with blanks strewn around every token
    rng = random.Random(10)
    for cfg in (CFG2, CFG3, CFG4, CFG9):
        for _ in range(200):
            x = rand_element(cfg, rng)
            text = format_element(x)
            for tok in ("+", "*", "^", "p", "-"):
                text = text.replace(tok, rng.choice(("", " ", "  ")) + tok
                                    + rng.choice(("", " ", "\t")))
            assert parse_element(cfg, text) == x, text


# (field, literal, digits): each term u(n), a digit, or [digit][*]p[^e]
ACCEPTED = [
    (CFG2, "", {}), (CFG2, "  ", {}), (CFG2, "0", {}), (CFG2, "1", {0: 1}),
    (CFG2, "p", {1: 1}), (CFG3, "2p", {1: 2}), (CFG3, "2 p", {1: 2}),
    (CFG3, "2 * p ^ - 1", {-1: 2}), (CFG3, "p ^ - 1", {-1: 1}), (CFG3, "p^0", {0: 1}),
    (CFG3, "2*p^3 + p^-1", {3: 2, -1: 1}), (CFG2, "p + p", {}), (CFG2, "u(0)", {}),
    (CFG2, "u( 5 )", {-1: 1, -3: 1}), (CFG3, "u(5) + 1", {-1: 2, -2: 1, 0: 1}),
    (CFG4, "[1,1]*p^-1", {-1: 3}), (CFG4, "[ 0 , 1 ]p", {1: 2}), (CFG9, "[2,1]", {0: 5}),
]
REFUSED = ["p +", "u(1)+", "2*", "*p", "p + + p", "+ p", "p^", "2 3", "p*2", "u(3)*p",
           "pp", "q + 1", "-1", "p^-", "u()", "[1,]", "[]*p", "2**p"]


def test_parse_accepts_literals():
    for cfg, text, digits in ACCEPTED:
        assert parse_element(cfg, text).digits == digits, text


def test_parse_rejects_bad_syntax():
    # a trailing `+` or a dangling `*` is malformed, not an ignored token
    for text in REFUSED:
        with pytest.raises(ElementSyntaxError):
            parse_element(CFG9, text)


def test_digit_literal_coordinates_must_be_residues():
    # a coordinate outside 0..p-1 is refused, as the integer digit 3 is at p=2
    for cfg, text in ((CFG2, "3"), (CFG2, "[3]"), (CFG2, "[2]*p"),
                      (CFG4, "[3,1]*p^-1"), (CFG4, "[1,2]"), (CFG9, "1 + [0,3]*p")):
        with pytest.raises(ElementSyntaxError):
            parse_element(cfg, text)
    assert parse_element(CFG4, "[1,1]*p^-1").digits == {-1: 3}
    assert parse_element(CFG9, "[2,1]*p").digits == {1: 5}


def test_constructor_takes_gfq_indices_only():
    with pytest.raises(ValueError):
        FieldElement(CFG4, {0: CFG4.one})  # an FqElement is not an index
    for bad in (-1, 4, 9, 1.0, "1", None):
        with pytest.raises(ValueError):
            FieldElement(CFG4, {-1: 1, 2: bad})
    assert FieldElement(CFG4, {-1: 0, 0: 3}).digits == {0: 3}
    assert FieldElement(CFG4, {0: 1}) == FieldElement.one(CFG4)


def test_hash_agrees_across_arithmetic_and_key_built_elements():
    from lfwave.clopen import Ball

    rng = random.Random(41)
    for cfg in (CFG2, CFG3, CFG4, CFG9):
        # the n-th sub-ball of p**-2 O at scale 1 has centre p * u(n)
        atoms = list(Ball.integers(cfg, -2).split_to(1))
        keyed = [a.center for a in atoms]
        built = [coset_rep(cfg, n).scale_exponents(1) for n in range(len(atoms))]
        shifted = []
        for x in built:
            y = rand_element(cfg, rng)
            shifted.append((x + y) - y)
        for x, y, z in zip(keyed, built, shifted):
            assert x == y == z
            assert hash(x) == hash(y) == hash(z)
        assert set(keyed) == set(built) == set(shifted)
        assert len(set(keyed + built + shifted)) == len(atoms)
        table = {x: n for n, x in enumerate(keyed)}
        assert [table[x] for x in shifted] == list(range(len(atoms)))
        assert {x: n for n, x in enumerate(shifted)} == table
