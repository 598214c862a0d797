import random
from fractions import Fraction

import pytest

from elltowers.fit import (
    SequenceEntry,
    ValuationSequence,
    fit_window,
    format_fit,
    leading_coefficients_integral,
    monomial_basis,
    valuation_sequence,
    verify_fit,
)

from conftest import fixture_spec


def test_monomial_basis_orders():
    assert monomial_basis(2) == [(2, 0), (1, 1), (1, 0), (0, 1), (0, 0)]
    assert monomial_basis(1) == [(1, 0), (0, 1), (0, 0)]
    assert len(monomial_basis(3)) == 7


def synthetic_sequence(ell, d, poly, n_range):
    entries = []
    for n in n_range:
        val = sum(c * ell ** (k * n) * n**j for (k, j), c in poly.items())
        entries.append(SequenceEntry(n, val, "l-function"))
    return ValuationSequence(ell, d, tuple(entries))


def test_fit_recovers_synthetic_polynomial():
    poly = {(2, 0): 3, (1, 1): 1, (1, 0): 2, (0, 1): -4, (0, 0): 7}
    seq = synthetic_sequence(2, 2, poly, range(1, 9))
    fit = fit_window(seq, (4, 8))
    assert fit.coefficients == {k: Fraction(v) for k, v in poly.items()}
    verified, residuals = verify_fit(fit, seq)
    assert verified == (1, 8)
    assert all(r == 0 for _, r in residuals)
    assert leading_coefficients_integral(fit)


def test_constant_sequence_fits_constant():
    seq = synthetic_sequence(3, 2, {(0, 0): 9}, range(1, 8))
    fit = fit_window(seq, (3, 7))
    assert fit.coefficients[(0, 0)] == 9
    assert all(fit.coefficients[k] == 0 for k in monomial_basis(2) if k != (0, 0))
    verified, _ = verify_fit(fit, seq)
    assert verified == (1, 7)


def test_verified_range_is_a_suffix():
    poly = {(1, 0): 1, (0, 1): 1, (0, 0): 0}
    seq = synthetic_sequence(2, 1, poly, range(1, 9))
    # corrupt the two earliest layers: the fit should verify from n = 3 on
    entries = list(seq.entries)
    entries[0] = SequenceEntry(1, entries[0].ord_ell + 1, "l-function")
    entries[1] = SequenceEntry(2, entries[1].ord_ell + 2, "l-function")
    seq = ValuationSequence(2, 1, tuple(entries))
    fit = fit_window(seq, (6, 8))
    verified, residuals = verify_fit(fit, seq)
    assert verified == (3, 8)
    assert residuals[0][1] != 0 and residuals[1][1] != 0


def test_no_suffix_when_last_layer_misses():
    poly = {(1, 0): 1, (0, 1): 0, (0, 0): 0}
    seq = synthetic_sequence(2, 1, poly, range(1, 6))
    entries = list(seq.entries)
    entries[-1] = SequenceEntry(5, entries[-1].ord_ell + 1, "l-function")
    broken = ValuationSequence(2, 1, tuple(entries))
    fit = fit_window(seq, (3, 5))
    verified, _ = verify_fit(fit, broken)
    assert verified is None


def test_window_must_match_unknown_count():
    seq = synthetic_sequence(2, 2, {(0, 0): 1}, range(1, 9))
    with pytest.raises(ValueError):
        fit_window(seq, (1, 3))


def test_format_fit_renders_rational_coefficients():
    spec = fixture_spec("bouquet2_ell3")
    seq = valuation_sequence(spec, 7, matrix_tree_budget=0)
    fit = fit_window(seq, (3, 7))
    assert format_fit(fit) == "4*3^n - 2*n - 4"
    assert leading_coefficients_integral(fit)


def test_fractional_leading_coefficient_flagged():
    entries = [SequenceEntry(n, (3 * 2**n + (-1) ** n) // 2, "l-function") for n in range(1, 6)]
    seq = ValuationSequence(2, 1, tuple(entries))
    fit = fit_window(seq, (3, 5))
    assert fit.coefficients == {(1, 0): Fraction(5, 4), (0, 1): 3, (0, 0): -8}
    assert not leading_coefficients_integral(fit)


# Every window is solvable: its rows ell^(k n) n^j over consecutive n are
# 2d + 1 independent solutions of one linear recurrence whose roots
# ell^0..ell^d are nonzero, so the window matrix (their Casoratian) is
# never singular.  Random valuations give rational coefficients, and the
# fit reproduces them exactly on its window.
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_every_window_fits(ell, d):
    unknowns = len(monomial_basis(d))
    seq = synthetic_sequence(ell, d, {(0, 0): 1}, range(1, 8 + unknowns))
    rng = random.Random(ell * 10 + d)
    for start in range(1, 9):
        window = (start, start + unknowns - 1)
        fit = fit_window(seq, window)
        assert fit.coefficients == {key: int(key == (0, 0)) for key in monomial_basis(d)}
        noisy = ValuationSequence(ell, d, tuple(
            SequenceEntry(n, rng.randrange(-10**9, 10**9), "l-function") for n in range(start, window[1] + 1)
        ))
        fit = fit_window(noisy, window)
        assert all(fit.evaluate(e.n) == e.ord_ell for e in noisy.entries)


def test_route_field_reflects_cross_check():
    spec = fixture_spec("bouquet2_ell2")
    seq = valuation_sequence(spec, 3, matrix_tree_budget=20)
    routes = {e.n: e.route for e in seq.entries}
    assert routes[1] == "both-agree"  # 4 vertices
    assert routes[2] == "both-agree"  # 16 vertices
    assert routes[3] == "l-function"  # 64 vertices exceed the budget
