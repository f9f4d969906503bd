"""Residue-field arithmetic: field laws, trace properties, and independent
polynomial-reduction oracles for the extension cases."""

import pytest

from lfwave.gfq import (
    ConfigMismatch,
    FieldConfig,
    default_modulus,
    is_irreducible,
)

SMALL_CONFIGS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                 (11, 1), (13, 1), (2, 4)]


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
    eps = cfg.element([0, 1])
    prod = eps * eps
    assert list(prod.coords) == poly_mul_mod([0, 1], [0, 1], [1, 1, 1], 2)
    assert prod == cfg.element([1, 1])  # eps^2 = eps + 1


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
    assert cfg5.element([2]).inverse() == cfg5.element([3])
    cfg4 = FieldConfig(2, 2, modulus=[1, 1, 1])
    assert cfg4.element([0, 1]).inverse() == cfg4.element([1, 1])


def test_trace_examples():
    assert FieldConfig(2, 1).zero.trace() == 0
    cfg4 = FieldConfig(2, 2, modulus=[1, 1, 1])
    assert cfg4.element([0, 1]).trace() == 1  # eps + eps^2 = eps + eps + 1
    cfg7 = FieldConfig(7, 1)
    for a in range(7):
        assert cfg7.element([a]).trace() == a  # identity when c = 1


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


def test_from_index_shares_one_element_per_index():
    for p, c in SMALL_CONFIGS:
        cfg = FieldConfig(p, c)
        assert cfg.from_index(0) is cfg.zero and cfg.from_index(1) is cfg.one
        for i in range(cfg.q):
            assert cfg.from_index(i) is cfg.from_index(i)
        # an equal config has its own elements, equal to these
        other = FieldConfig(p, c)
        assert other.from_index(cfg.q - 1) == cfg.from_index(cfg.q - 1)
        for bad in (-1, cfg.q, cfg.q + 7):
            for _ in range(2):  # a refused index is not cached
                with pytest.raises(ValueError):
                    cfg.from_index(bad)
            assert bad not in cfg._by_index
