import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elltowers import cyclotomic
from elltowers.cyclotomic import (
    norm_to_int,
    phi_ell_power,
    pi_adic_ord,
    pi_adic_ords,
)
from elltowers.treecount import ord_prime

from oracles import Cyclotomic as CycInt
from oracles import norm_by_conjugates

LEVELS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]


def cyc_elements(ell, level):
    phi = phi_ell_power(ell, level)
    return st.lists(st.integers(min_value=-9, max_value=9), min_size=phi, max_size=phi).map(
        lambda cs: CycInt(ell, level, cs)
    )


any_level = st.sampled_from(LEVELS)


def zeta_power(ell, level, k):
    """zeta^k, reduced by from_exponents (k modulo ell^level)."""
    return CycInt.from_exponents(ell, level, [0] * (k % ell**level) + [1])


def power(x, k):
    return math.prod([x] * k, start=CycInt.one(x.ell, x.level))


def test_zeta_power_examples():
    assert zeta_power(2, 1, 1) == CycInt.integer(2, 1, -1)
    assert zeta_power(2, 2, 2) == CycInt.integer(2, 2, -1)
    assert zeta_power(3, 1, 3) == CycInt.integer(3, 1, 1)


def test_zeta_has_exact_order():
    z = zeta_power(3, 2, 1)
    assert power(z, 9) == 1
    assert power(z, 3) != 1


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ring_laws(data):
    ell, level = data.draw(any_level)
    elems = cyc_elements(ell, level)
    a = data.draw(elems)
    b = data.draw(elems)
    c = data.draw(elems)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_record_and_ring_are_one_element(data):
    # the package's record and the oracles' ring element on the same
    # coefficients: equal both ways, hashed alike, one norm and one order
    ell, level = data.draw(st.sampled_from(LEVELS + [(3, 0)]))
    x = data.draw(cyc_elements(ell, level))
    record = cyclotomic.CycInt(ell, level, x.coeffs)
    assert type(record) is not type(x)
    assert record == x and x == record and not record != x and not x != record
    assert hash(record) == hash(x) and len({record, x}) == 1
    assert norm_to_int(record) == norm_to_int(x)
    if x:
        assert pi_adic_ord(record) == pi_adic_ord(x)
    other = x + 1
    assert record != other and other != record
    for coeffs in (x.coeffs + (0,), x.coeffs[1:]):
        with pytest.raises(ValueError):
            cyclotomic.CycInt(ell, level, coeffs)


def test_norm_examples():
    # norm of a constant is c^phi
    assert norm_to_int(CycInt.integer(2, 2, 2)) == 4
    assert norm_to_int(CycInt.integer(3, 1, 5)) == 25
    # norm of 1 - zeta is ell at every level
    for ell, level in LEVELS:
        x = CycInt.one(ell, level) - zeta_power(ell, level, 1)
        assert norm_to_int(x) == ell
    # (1 - i)(1 + i) = 2
    one = CycInt.one(2, 2)
    assert norm_to_int((one - zeta_power(2, 2, 1)) * (one - zeta_power(2, 2, -1))) == 4
    assert norm_to_int(CycInt.zero(3, 2)) == 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_norm_matches_conjugate_product(data):
    ell, level = data.draw(any_level)
    x = data.draw(cyc_elements(ell, level))
    assert norm_to_int(x) == norm_by_conjugates(x)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_norm_multiplicative(data):
    ell, level = data.draw(any_level)
    elems = cyc_elements(ell, level)
    a = data.draw(elems)
    b = data.draw(elems)
    assert norm_to_int(a * b) == norm_to_int(a) * norm_to_int(b)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_norm_galois_invariant(data):
    ell, level = data.draw(any_level)
    x = data.draw(cyc_elements(ell, level))
    m = ell**level
    u = data.draw(st.sampled_from([u for u in range(1, m) if u % ell]))
    assert norm_to_int(x.conjugate(u)) == norm_to_int(x)


def test_valuation_examples():
    for ell, level in LEVELS:
        x = CycInt.one(ell, level) - zeta_power(ell, level, 1)
        assert pi_adic_ord(x) == 1
        assert pi_adic_ord(CycInt.integer(ell, level, ell)) == phi_ell_power(ell, level)
    assert pi_adic_ord(CycInt.integer(2, 1, 4)) == 2


def test_one_minus_root_is_in_the_open_disk():
    for ell, level in LEVELS:
        m = ell**level
        for k in range(1, m):
            x = CycInt.one(ell, level) - zeta_power(ell, level, k)
            assert pi_adic_ord(x) > 0


def test_valuation_rejects_zero():
    with pytest.raises(ValueError):
        pi_adic_ord(CycInt.zero(2, 2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pi_adic_ord_matches_norm_valuation(data):
    # (2, 6) has phi = 32, where an order can need many division steps
    ell, level = data.draw(st.sampled_from(LEVELS + [(2, 6), (3, 3)]))
    x = data.draw(cyc_elements(ell, level))
    if not x:
        return
    phi = phi_ell_power(ell, level)
    c = data.draw(st.integers(min_value=0, max_value=2))
    j = data.draw(st.integers(min_value=0, max_value=phi - 1))
    pi = CycInt.one(ell, level) - zeta_power(ell, level, 1)
    y = x * ell**c * power(pi, j)
    # total ramification: ord of the norm equals the pi-adic order
    assert ord_prime(abs(norm_to_int(y)), ell) == pi_adic_ord(y)
    assert pi_adic_ord(y) == pi_adic_ord(x) + c * phi + j


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pi_adic_ords_batch_matches_norm_valuation(data):
    # a batch of rows x * ell^c * pi^j with mixed c and j; a wide batch
    # scales one row past 2^62, which forces Python-integer rows
    ell, level = data.draw(st.sampled_from(LEVELS + [(2, 6), (3, 3)]))
    phi = phi_ell_power(ell, level)
    pi = CycInt.one(ell, level) - zeta_power(ell, level, 1)
    wide = data.draw(st.booleans())
    batch = []
    for i in range(data.draw(st.integers(min_value=1, max_value=5))):
        x = data.draw(cyc_elements(ell, level).filter(bool))
        c = data.draw(st.integers(min_value=0, max_value=2)) + (64 if wide and i == 0 else 0)
        j = data.draw(st.integers(min_value=0, max_value=phi - 1))
        batch.append(x * ell**c * power(pi, j))
    rows = np.array([y.coeffs for y in batch], dtype=object if wide else np.int64)
    assert wide == (max(abs(c) for y in batch for c in y.coeffs) >= 2**62)
    want = [ord_prime(abs(norm_to_int(y)), ell) for y in batch]
    assert pi_adic_ords(rows, ell).tolist() == want
    assert [pi_adic_ord(y) for y in batch] == want


def _high_order_element(rng, ell, level, c, r):
    """u * ell^c * prod_s (1 - zeta^(ell^s))^(e_s) with e_s the base-ell
    digits of r, as a coefficient list: small coefficients, and order
    c * phi + r, since 1 - zeta^(ell^s) has exact order ell^s and u is a
    unit (u(1) is not 0 mod ell)."""
    phi = phi_ell_power(ell, level)
    coeffs = [rng.randint(-2, 2) for _ in range(phi)]
    coeffs[0] += 1 - sum(coeffs) % ell
    y = CycInt(ell, level, coeffs)
    one = CycInt.one(ell, level)
    s = 0
    while r:
        r, e = divmod(r, ell)
        for _ in range(e):
            y = (one - zeta_power(ell, level, ell**s)) * y
        s += 1
    return [x * ell**c for x in y.coeffs]


@pytest.mark.parametrize("ell, level", [(2, 9), (3, 6), (5, 4)])
def test_pi_adic_ords_lazy_reduction_at_wide_levels(ell, level):
    # phi = 256, 486 and 500: orders up to phi - 1 lie far past the fold
    # width of TowerCalculator's level orders, in one batch with rows of
    # small order, all through the one Taylor shift
    rng = random.Random(ell * 100 + level)
    phi = phi_ell_power(ell, level)
    cases = [(0, phi - 1), (1, phi - 2), (2, 0), (0, 1)]
    cases += [(rng.randint(0, 2), rng.randrange(30, phi)) for _ in range(6)]
    rows = [_high_order_element(rng, ell, level, c, r) for c, r in cases]
    want = [c * phi + r for c, r in cases]
    assert max(abs(x) for row in rows for x in row) < 2**20
    assert pi_adic_ords(np.array(rows, dtype=np.int64), ell).tolist() == want
    # one row past 2^62 makes the batch Python integers, through the same code
    rows.append(_high_order_element(rng, ell, level, 62, phi // 2 + 3))
    want.append(62 * phi + phi // 2 + 3)
    assert pi_adic_ords(np.array(rows, dtype=object), ell).tolist() == want


def _fold_edges(ell, level):
    """Orders at the edges of pi_adic_ords' Taylor shift, which strips the
    content and then shifts once over the digits of phi = t * ell^b: the
    fold width m = ell^ceil(b/2) of TowerCalculator's level orders (the
    rows whose fold vanishes, which pi_adic_ords gets there, have order at
    least m, or content), the digit block ell^b, and phi."""
    phi = phi_ell_power(ell, level)
    b = 0
    while phi % ell ** (b + 1) == 0:
        b += 1
    m = ell ** ((b + 1) // 2)
    return sorted({r for r in (0, 1, m - 1, m, m + 1, ell**b - 1, ell**b, phi - 1) if 0 <= r < phi})


@pytest.mark.parametrize("ell, level", [(2, 1), (3, 1), (2, 8), (3, 5), (5, 3), (7, 3), (11, 2)])
def test_pi_adic_ords_at_the_fold_and_digit_edges(ell, level):
    # known answers u * ell^c * prod_s (1 - zeta^(ell^s))^(e_s) at every edge
    # order, each with content 0, 1 and 2; for odd ell the orders in
    # [ell^b, phi) need the top digit, of size ell - 1
    rng = random.Random(ell * 1000 + level)
    phi = phi_ell_power(ell, level)
    cases = [(c, r) for r in _fold_edges(ell, level) for c in (0, 1, 2)]
    rows = [_high_order_element(rng, ell, level, c, r) for c, r in cases]
    want = [c * phi + r for c, r in cases]
    assert max(abs(x) for row in rows for x in row) < 2**62
    assert pi_adic_ords(np.array(rows, dtype=np.int64), ell).tolist() == want
    # one row past 2^62 makes the batch Python integers, through the same code
    rows.append(_high_order_element(rng, ell, level, 62, phi - 1))
    want.append(62 * phi + phi - 1)
    assert pi_adic_ords(np.array(rows, dtype=object), ell).tolist() == want
    for dtype in (np.int64, object):
        assert pi_adic_ords(np.zeros((0, phi), dtype=dtype), ell).tolist() == []


def test_pi_adic_ords_rejects_a_zero_row():
    rows = np.array([[1, 0], [0, 0], [2, 1]], dtype=np.int64)
    with pytest.raises(ValueError):
        pi_adic_ords(rows, 3)
    with pytest.raises(ValueError):
        pi_adic_ords(rows.astype(object), 3)


def test_level_zero_degenerates_to_integers():
    x = CycInt.integer(3, 0, 18)
    assert pi_adic_ord(x) == 2
    assert norm_to_int(x) == 18


def test_constant_value_guards():
    z = zeta_power(3, 2, 1)
    with pytest.raises(ValueError):
        z.constant_value()
    assert CycInt.integer(3, 2, 7).constant_value() == 7


def test_mixed_levels_rejected():
    with pytest.raises(ValueError):
        CycInt.one(2, 1) + CycInt.one(2, 2)
