"""Residue-field arithmetic: field laws, trace properties, and independent
polynomial-reduction oracles for the extension cases."""

import random

import pytest

from lfwave.gfq import (
    ConfigMismatch,
    FieldConfig,
    default_modulus,
    is_irreducible,
)

SMALL_CONFIGS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                 (11, 1), (13, 1), (2, 4)]


def elem(cfg, coords):
    """The element with these power-basis coordinates."""
    return cfg.from_index(cfg.index(coords))


def poly_mul_mod(a, b, modulus, p):
    """Independent oracle: coefficient lists (low degree first) multiplied
    and reduced mod the monic modulus over GF(p)."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    deg = len(modulus) - 1
    while len(prod) > deg:
        lead = prod.pop()
        for i in range(deg):
            prod[-deg + i] = (prod[-deg + i] - lead * modulus[i]) % p
    while len(prod) < deg:
        prod.append(0)
    return [x % p for x in prod]


def oracle_trace(a, modulus, p, c):
    """Tr(a) = a + a**p + ... + a**(p**(c-1)) by repeated oracle products;
    the sum must land in GF(p)."""
    total, x = list(a), list(a)
    for _ in range(c - 1):
        y = [1] + [0] * (c - 1)
        for _ in range(p):
            y = poly_mul_mod(y, x, modulus, p)
        x = y
        total = [(s + t) % p for s, t in zip(total, x)]
    assert not any(total[1:])
    return total[0]


def check_index_arithmetic(cfg, indices, pairs):
    """The index tables against coordinatewise sums and the polynomial
    oracle: negative, inverse and trace of each index, sum and product of
    each pair."""
    p, c, mod = cfg.p, cfg.c, list(cfg.modulus)
    one = [1] + [0] * (c - 1)
    for i in indices:
        a = list(cfg.coords(i))
        assert cfg.index(a) == i
        assert list(cfg.coords(cfg.neg(i))) == [-x % p for x in a]
        assert cfg.trace(i) == oracle_trace(a, mod, p, c)
        if i:
            inv = cfg.from_index(i).inverse()
            assert poly_mul_mod(a, list(inv.coords), mod, p) == one
    for i, j in pairs:
        a, b = list(cfg.coords(i)), list(cfg.coords(j))
        assert list(cfg.coords(cfg.add(i, j))) == [(x + y) % p for x, y in zip(a, b)]
        assert list(cfg.coords(cfg.mul(i, j))) == poly_mul_mod(a, b, mod, p)


@pytest.mark.parametrize("p,c", SMALL_CONFIGS + [(3, 4)])
def test_index_tables_match_polynomial_oracle_exhaustive(p, c):
    cfg = FieldConfig(p, c)
    check_index_arithmetic(cfg, range(cfg.q),
                           [(i, j) for i in range(cfg.q) for j in range(cfg.q)])


def test_index_tables_match_polynomial_oracle_gf13_4():
    cfg = FieldConfig(13, 4)  # q = 28,561: O(q) tables, where q x q would be 8e8
    rng = random.Random(1304)
    pairs = [(rng.randrange(cfg.q), rng.randrange(cfg.q)) for _ in range(2000)]
    pairs += [(0, 5), (7, 0), (1, cfg.neg(1)), (cfg.q - 1, cfg.neg(cfg.q - 1))]
    check_index_arithmetic(cfg, sorted({i for pair in pairs for i in pair}), pairs)


# every field with q <= 125
ALL_FIELDS_TO_125 = [(p, c) for p in (2, 3, 5, 7, 11, 13) for c in (1, 2, 3, 4) if p**c <= 125]


@pytest.mark.parametrize("p,c", ALL_FIELDS_TO_125)
def test_exp_log_tables_match_order_walk(p, c):
    """The generator is the first index, in index order, whose powers first
    return to 1 after q-1 steps; exp and log are its power table."""
    cfg = FieldConfig(p, c)
    q, mod = cfg.q, list(cfg.modulus)
    one = [1] + [0] * (c - 1)
    for g in range(1, q):
        powers, x = [1], list(cfg.coords(g))
        while x != one:
            powers.append(cfg.index(x))
            x = poly_mul_mod(x, list(cfg.coords(g)), mod, p)
        if len(powers) == q - 1:
            break
    assert cfg._exp[:q - 1] == powers
    assert cfg._exp[q - 1:2 * (q - 1)] == powers
    assert [cfg._log[i] for i in powers] == list(range(q - 1))


@pytest.mark.parametrize("p,c", SMALL_CONFIGS)
def test_field_laws_exhaustive(p, c):
    cfg = FieldConfig(p, c)
    if cfg.q > 16:
        pytest.skip("exhaustive triple laws limited to q <= 16")
    elems = list(cfg.elements())
    zero, one = cfg.zero, cfg.one
    for a in elems:
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if a:
            assert a * a.inverse() == one
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for x in elems:
                assert (a + b) + x == a + (b + x)
                assert (a * b) * x == a * (b * x)
                assert a * (b + x) == a * b + a * x


@pytest.mark.parametrize("p,c", SMALL_CONFIGS)
def test_inverses_exhaustive(p, c):
    cfg = FieldConfig(p, c)
    one = cfg.one
    for a in cfg.elements():
        if a:
            assert a * a.inverse() == one


def test_gf4_product_matches_polynomial_oracle():
    cfg = FieldConfig(2, 2, modulus=[1, 1, 1])  # x^2 + x + 1
    eps = elem(cfg, [0, 1])
    prod = eps * eps
    assert list(prod.coords) == poly_mul_mod([0, 1], [0, 1], [1, 1, 1], 2)
    assert prod == elem(cfg, [1, 1])  # eps^2 = eps + 1


def test_extension_products_match_polynomial_oracle():
    for p, c in [(2, 2), (2, 3), (3, 2)]:
        cfg = FieldConfig(p, c)
        mod = list(cfg.modulus)
        for a in cfg.elements():
            for b in cfg.elements():
                expect = poly_mul_mod(list(a.coords), list(b.coords), mod, p)
                assert list((a * b).coords) == expect


def test_inverse_examples():
    assert FieldConfig(2, 1).one.inverse() == FieldConfig(2, 1).one
    cfg5 = FieldConfig(5, 1)
    assert elem(cfg5, [2]).inverse() == elem(cfg5, [3])
    cfg4 = FieldConfig(2, 2, modulus=[1, 1, 1])
    assert elem(cfg4, [0, 1]).inverse() == elem(cfg4, [1, 1])


def test_trace_examples():
    assert FieldConfig(2, 1).zero.trace() == 0
    cfg4 = FieldConfig(2, 2, modulus=[1, 1, 1])
    assert elem(cfg4, [0, 1]).trace() == 1  # eps + eps^2 = eps + eps + 1
    cfg7 = FieldConfig(7, 1)
    for a in range(7):
        assert elem(cfg7, [a]).trace() == a  # identity when c = 1


@pytest.mark.parametrize("p,c", SMALL_CONFIGS)
def test_trace_additive_frobenius_surjective(p, c):
    cfg = FieldConfig(p, c)
    if cfg.q > 16:
        pytest.skip("exhaustive laws limited to q <= 16")
    elems = list(cfg.elements())
    for a in elems:
        assert (a ** p).trace() == a.trace()
        for b in elems:
            assert (a + b).trace() == (a.trace() + b.trace()) % p
    assert {a.trace() for a in elems} == set(range(p))


def test_modulus_irreducibility_enforced():
    assert is_irreducible([1, 1, 1], 2)
    assert not is_irreducible([1, 0, 1], 2)  # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError):
        FieldConfig(2, 2, modulus=[1, 0, 1])
    with pytest.raises(ValueError):
        FieldConfig(4, 1)  # 4 is not prime


def test_default_moduli_are_irreducible():
    for p, c in SMALL_CONFIGS:
        assert is_irreducible(default_modulus(p, c), p)


def test_cached_default_modulus_matches_search():
    # FieldConfig searches the default modulus once per (p, c); every field
    # with q <= 125 must get what the uncached search finds, twice over
    for p in (2, 3, 5, 7, 11):
        for c in range(1, 5):
            if p**c <= 125:
                want = default_modulus(p, c)
                assert FieldConfig(p, c).modulus == want
                assert FieldConfig(p, c).modulus == want


def test_explicit_modulus_bypasses_the_default_cache():
    default = FieldConfig(3, 2)
    other = FieldConfig(3, 2, modulus=(2, 1, 1))  # x^2 + x + 2
    assert default.modulus == default_modulus(3, 2) != other.modulus == (2, 1, 1)
    assert other != default
    assert FieldConfig(3, 2).modulus == default.modulus
    FieldConfig(2, 2)
    with pytest.raises(ValueError, match="reducible"):
        FieldConfig(2, 2, modulus=[1, 0, 1])
    with pytest.raises(ValueError, match="monic"):
        FieldConfig(2, 2, modulus=[1, 1])


def test_config_mismatch_rejected():
    a = FieldConfig(2, 1).one
    b = FieldConfig(3, 1).one
    with pytest.raises(ConfigMismatch):
        a + b
    with pytest.raises(ConfigMismatch):
        a * b


def test_coordinate_indexing_round_trip():
    for p, c in SMALL_CONFIGS:
        cfg = FieldConfig(p, c)
        for i in range(cfg.q):
            assert cfg.from_index(i).index == i


def test_from_index_refuses_out_of_range():
    for p, c in SMALL_CONFIGS:
        cfg = FieldConfig(p, c)
        assert cfg.from_index(0) == cfg.zero and cfg.from_index(1) == cfg.one
        # an equal config gives equal elements
        other = FieldConfig(p, c)
        assert other.from_index(cfg.q - 1) == cfg.from_index(cfg.q - 1)
        for bad in (-1, cfg.q, cfg.q + 7):
            with pytest.raises(ValueError):
                cfg.from_index(bad)
