import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elltowers.cyclotomic import CycInt
from elltowers.fit import fit_window, valuation_sequence, verify_fit
from elltowers.graphs import build_graph
from elltowers.lfunctions import CharacterIndex, l_value_at_one
from elltowers.series import LaurentPoly, char_poly, character_values, iwasawa_invariants_d1, q_series
from elltowers.treecount import ord_prime
from elltowers.voltage import VoltageSpec, default_section, load_tower_spec

from conftest import FIXTURE_NAMES, fixture_spec, random_connected_spec
from test_acceptance import FITS

E1 = fixture_spec("bouquet2_ell2")


def test_q_series_constant_term_vanishes():
    for name in ("bouquet2_ell2", "bouquet2_ell3"):
        _, q = q_series(fixture_spec(name))
        assert (0, 0) not in q.terms


def test_q_series_leading_form_example_one():
    # P = 4 - x1 - 1/x1 - x2 - 1/x2, so x1 x2 P at x_i = 1 - T_i
    m, q = q_series(E1)
    assert m == (1, 1)
    assert q.terms == {(2, 0): -1, (0, 2): -1, (2, 1): 1, (1, 2): 1}


def test_q_series_non_bouquet_pinned():
    # two vertices, a loop and two parallel edges; the coefficients were
    # computed by a determinant over the truncated power-series ring,
    # independently of P; q_series returns them times (1 - T1)(1 - T2)
    g = build_graph(2, [(0, 1), (0, 1), (0, 0)])
    spec = VoltageSpec(g, default_section(g), ((1, 0), (0, 1), (1, 1)), 2, 2)
    q_to_degree_3 = {
        (0, 2): -3, (0, 3): -3, (1, 1): -2, (1, 2): -1, (2, 0): -3, (2, 1): -1, (3, 0): -3,
    }
    expected = {}
    for (i, j), c in q_to_degree_3.items():
        for (di, dj), sign in (((0, 0), 1), ((1, 0), -1), ((0, 1), -1), ((1, 1), 1)):
            if i + di + j + dj <= 3:
                expected[(i + di, j + dj)] = expected.get((i + di, j + dj), 0) + sign * c
    m, q = q_series(spec)
    assert m == (1, 1)
    assert {e: c for e, c in q.terms.items() if sum(e) <= 3} == {e: c for e, c in expected.items() if c}


def test_mu_of_char_poly_matches_fitted_leading_coefficient():
    # Cuoco-Monsky: the least ell-adic valuation among P's coefficients is
    # the coefficient of (ell^n)^d in the growth polynomial
    for name in FIXTURE_NAMES:
        spec = fixture_spec(name)
        mu = min(ord_prime(abs(c), spec.ell) for c in char_poly(spec).terms.values())
        assert mu == FITS[name][0][(spec.d, 0)], name


def test_classical_point_trivial_is_zero():
    # P at the trivial character is det(D - A) = 0
    assert character_values(char_poly(E1), 2, 1, [(0, 0)]).tolist() == [[0]]


def test_classical_point_example():
    # P = 4 - x1 - 1/x1 - x2 - 1/x2 at (x1, x2) = (-1, 1), i.e. T = (2, 0)
    row = character_values(char_poly(E1), 2, 1, [(1, 0)])[0].tolist()
    assert row == [4]
    assert CycInt(2, 1, row) == l_value_at_one(E1, 1, CharacterIndex(1, (1, 0)))
    for avecs in ([(1,)], [(1, 0, 0)], [(1, 0), (1,)]):
        with pytest.raises(ValueError, match="must have 2 entries, the tower rank"):
            character_values(char_poly(E1), 2, 1, avecs)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_classical_point_matches_l_value(seed):
    rng = random.Random(seed)
    spec = random_connected_spec(rng, max_vertices=3)
    n = rng.randint(1, 2)
    m = spec.ell**n
    vec = tuple(rng.randrange(m) for _ in range(spec.d))
    row = character_values(char_poly(spec), spec.ell, n, [vec])[0].tolist()
    assert CycInt(spec.ell, n, row) == l_value_at_one(spec, n, CharacterIndex(n, vec))


def test_iwasawa_examples():
    # ell^2 (T^3 + ell T): content 2, distinguished part of degree 3
    q = LaurentPoly({(1,): 8, (3,): 4})
    assert iwasawa_invariants_d1(q, 2) == (2, 3)
    q = LaurentPoly({(2,): 1, (4,): 2})
    assert iwasawa_invariants_d1(q, 2) == (0, 2)
    unit = LaurentPoly({(0,): 1, (1,): 6})
    assert iwasawa_invariants_d1(unit, 2) == (0, 0)


def test_iwasawa_guards():
    with pytest.raises(ValueError):
        iwasawa_invariants_d1(LaurentPoly({}), 2)
    with pytest.raises(ValueError):
        iwasawa_invariants_d1(LaurentPoly({(1, 0): 1}), 2)
    with pytest.raises(ValueError):
        iwasawa_invariants_d1(LaurentPoly({(-1,): 1}), 2)


def test_q_series_one_variable_matches_direct_expansion():
    # independent oracle: expand 4 - (1-T) - (1-T)^{-1} - (1-T)^3 - (1-T)^{-3}
    # with hand-rolled dense polynomial arithmetic up to degree 10, then
    # multiply by (1-T)^3, the unit that clears x^{-3}
    cap = 10

    def geom_inverse_power(p):
        # coefficients of (1-T)^(-p): C(t+p-1, p-1)
        from math import comb

        return [comb(t + p - 1, p - 1) for t in range(cap + 1)]

    def poly_power(p):
        from math import comb

        return [(-1) ** t * comb(p, t) if t <= p else 0 for t in range(cap + 1)]

    expected = [0] * (cap + 1)
    expected[0] = 4
    for coeffs in (poly_power(1), geom_inverse_power(1), poly_power(3), geom_inverse_power(3)):
        for t, c in enumerate(coeffs):
            expected[t] -= c

    cube = poly_power(3)
    expected = [sum(expected[s] * cube[t - s] for s in range(t + 1)) for t in range(cap + 1)]

    g = build_graph(1, [(0, 0), (0, 0)])
    spec = VoltageSpec(g, default_section(g), ((1,), (3,)), 2, 1)
    m, q = q_series(spec)
    assert m == (3,)
    assert max(t for (t,) in q.terms) <= cap
    assert [q.terms.get((t,), 0) for t in range(cap + 1)] == expected


def test_one_variable_tower_consistency():
    """mu and lambda read off Q(T) predict the valuation growth: the
    series has an automatic zero at T = 0 (trivial character), so the
    tower's linear coefficient is lambda(Q) - 1."""
    g = build_graph(1, [(0, 0), (0, 0)])
    bouquet = VoltageSpec(g, default_section(g), ((1,), (3,)), 2, 1)
    # lambda = 32 lies past the old heuristic coefficient window of 28,
    # which reported (1, 18)
    wide = load_tower_spec(
        {
            "graph": {"vertices": 4, "edges": [[2, 0], [3, 2], [1, 0], [3, 0], [3, 1]]},
            "ell": 2,
            "d": 1,
            "alpha": [[5], [5], [-4], [-1], [-2]],
        }
    )
    for spec, expected in ((bouquet, (0, 6)), (wide, (0, 32))):
        _, q = q_series(spec)
        mu, lam_q = iwasawa_invariants_d1(q, 2)
        assert (mu, lam_q) == expected
        seq = valuation_sequence(spec, 8, matrix_tree_budget=70)
        fit = fit_window(seq, (6, 8))
        verified, _ = verify_fit(fit, seq)
        coeffs = fit.coefficients
        assert coeffs[(1, 0)] == mu
        assert coeffs[(0, 1)] == lam_q - 1
        assert coeffs[(0, 0)].denominator == 1
        assert verified is not None and verified[0] <= 6
        # spot check the closed form against the table
        nu = coeffs[(0, 0)]
        for entry in seq.entries:
            if entry.n >= verified[0]:
                assert entry.ord_ell == mu * 2**entry.n + (lam_q - 1) * entry.n + nu
