"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The valuation tables and fitted formulas frozen below are the ground truth
for the whole artifact; everything is exact integer or exact rational
arithmetic, so every comparison is equality, never a tolerance.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from elltowers.cyclotomic import CycInt
from elltowers.fit import fit_window, valuation_sequence, verify_fit
from elltowers.lfunctions import CharacterIndex, TowerCalculator, enumerate_orbits
from elltowers.series import char_poly, character_values
from elltowers.treecount import kappa_matrix_tree
from elltowers.voltage import derived_graph

from conftest import FIXTURE_NAMES, fixture_spec, random_connected_spec, random_validated_graph
from oracles import ihara_h, l_value_at_one, matrices, twisted_adjacency

TABLES = {
    "bouquet2_ell2": [5, 19, 61, 167, 417, 987, 2261, 5071, 11209, 24515],
    "bouquet4_ell2_parallel": [8, 34, 124, 422, 1440, 5082, 18644, 70606, 273352, 1073090],
    "bouquet4_ell2_skew": [5, 19, 65, 179, 403, 887, 1923, 4127, 8795, 18647],
    "bouquet2_ell3": [6, 28, 98, 312, 958, 2900, 8730],
    "bouquet3_ell3": [10, 48, 166, 524, 1602, 4840, 14558],
}

FITS = {
    "bouquet2_ell2": ({(2, 0): 0, (1, 1): 2, (1, 0): 4, (0, 1): -6, (0, 0): -1}, (1, 10)),
    "bouquet4_ell2_parallel": ({(2, 0): 1, (1, 1): 2, (1, 0): 4, (0, 1): -6, (0, 0): -2}, (1, 10)),
    "bouquet4_ell2_skew": (
        {(2, 0): 0, (1, 1): 1, (1, 0): Fraction(33, 4), (0, 1): -4, (0, 0): -1},
        (4, 10),
    ),
    "bouquet2_ell3": ({(2, 0): 0, (1, 1): 0, (1, 0): 4, (0, 1): -2, (0, 0): -4}, (1, 7)),
    "bouquet3_ell3": ({(2, 0): 0, (1, 1): 0, (1, 0): Fraction(20, 3), (0, 1): -2, (0, 0): -8}, (1, 7)),
}


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {description}")


@pytest.fixture(scope="module")
def calculators():
    return {name: TowerCalculator(fixture_spec(name)) for name in FIXTURE_NAMES}


@pytest.fixture(scope="module")
def sequences(calculators):
    out = {}
    for name, expected in TABLES.items():
        calc = calculators[name]
        out[name] = valuation_sequence(
            calc.spec, len(expected), matrix_tree_budget=0, calculator=calc
        )
    return out


def test_criterion_1_first_table(sequences):
    with criterion(1, "first tower table reproduced exactly for n = 1..10"):
        got = [e.ord_ell for e in sequences["bouquet2_ell2"].entries]
        assert got == TABLES["bouquet2_ell2"]
        assert all(e.route == "l-function" for e in sequences["bouquet2_ell2"].entries)
        # the command-line surface reports the same numbers
        import subprocess
        import sys

        from conftest import FIXTURES

        result = subprocess.run(
            [
                sys.executable, "-m", "elltowers.cli", "table",
                "--spec", str(FIXTURES / "bouquet2_ell2.json"),
                "--n-max", "4", "--budget", "0",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
        assert [int(r[1]) for r in rows] == TABLES["bouquet2_ell2"][:4]


def test_criterion_2_remaining_tables(sequences):
    with criterion(2, "remaining four tower tables reproduced to full depth"):
        for name in FIXTURE_NAMES[1:]:
            got = [e.ord_ell for e in sequences[name].entries]
            assert got == TABLES[name], name


def test_criterion_3_fitted_polynomials(sequences):
    with criterion(3, "fitted polynomials match with exact rational coefficients"):
        for name, (coeffs, verified_range) in FITS.items():
            seq = sequences[name]
            n_max = seq.entries[-1].n
            fit = fit_window(seq, (n_max - 4, n_max))
            assert fit.coefficients == {k: Fraction(v) for k, v in coeffs.items()}, name
            verified, residuals = verify_fit(fit, seq)
            assert verified == verified_range, (name, verified)
            # window stability: the two deepest windows agree coefficientwise
            earlier = fit_window(seq, (n_max - 5, n_max - 1))
            assert earlier.coefficients == fit.coefficients, name
        # the uneven fixture really does miss its early layers
        seq = sequences["bouquet4_ell2_skew"]
        fit = fit_window(seq, (6, 10))
        _, residuals = verify_fit(fit, seq)
        assert all(r != 0 for n, r in residuals if n <= 3)


def test_criterion_4_route_equivalence(calculators):
    with criterion(4, "matrix-tree and L-function tree numbers agree on every layer within budget"):
        for name, calc in calculators.items():
            spec = calc.spec
            n = 1
            while spec.base.n_vertices * spec.ell ** (spec.d * n) <= 3000:
                layer = derived_graph(spec, n)
                mt = kappa_matrix_tree(layer.graph, spec.ell)
                assert mt.kappa == calc.kappa_exact(n), (name, n)
                n += 1
            assert n > 1


def test_criterion_5_series_evaluation_identity(calculators):
    with criterion(5, "classical-point evaluation equals the twisted special value everywhere"):
        rng = random.Random(2024)
        specs = [calc.spec for calc in calculators.values()]
        for i in range(20):
            specs.append(random_connected_spec(rng, max_vertices=4))
        for spec in specs:
            poly = char_poly(spec)
            for n in range(1, 4):
                m = spec.ell**n
                vecs = [(a1, a2) for a1 in range(m) for a2 in range(m)]
                for vec, row in zip(vecs, character_values(poly, spec.ell, n, vecs).tolist()):
                    lhs = CycInt(spec.ell, n, row)
                    rhs = l_value_at_one(spec, n, CharacterIndex(n, vec))
                    assert lhs == rhs, (spec.ell, n, vec)


def test_criterion_6_class_formula_suite():
    with criterion(6, "h(1) = 0 and h'(1) = -2 chi kappa on 100 random graphs"):
        rng = random.Random(97)
        for _ in range(100):
            g = random_validated_graph(rng, max_vertices=8)
            h = ihara_h(g)
            assert h(1) == 0
            kappa = kappa_matrix_tree(g).kappa
            assert h.derivative_at(1) == -2 * g.euler_char * kappa


def _cyc_poly_mul(p, q, ell, level):
    out = [CycInt.zero(ell, level) for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def test_criterion_7_artin_formalism_at_layer_one(calculators):
    with criterion(7, "h_layer1(u) = h_base(u) * prod of twisted polynomials, exactly"):
        for name, calc in calculators.items():
            spec = calc.spec
            ell = spec.ell
            g = spec.base
            deg = matrices(g).degree
            prod = [CycInt.one(ell, 1)]
            for a1 in range(ell):
                for a2 in range(ell):
                    if (a1, a2) == (0, 0):
                        continue
                    chi = CharacterIndex(1, (a1, a2))
                    a_psi = twisted_adjacency(spec, 1, chi)[0][0]
                    # bouquet: det(I - A_psi u + (D - I) u^2) is the 1x1 entry
                    factor = [
                        CycInt.one(ell, 1),
                        -a_psi,
                        CycInt.integer(ell, 1, deg[0][0] - 1),
                    ]
                    prod = _cyc_poly_mul(prod, factor, ell, 1)
            h_base = ihara_h(g)
            base_poly = [CycInt.integer(ell, 1, c) for c in h_base.coeffs]
            lhs = _cyc_poly_mul(base_poly, prod, ell, 1)
            layer = derived_graph(spec, 1)
            h_layer = ihara_h(layer.graph)
            assert len(lhs) == len(h_layer.coeffs)
            for got, expected in zip(lhs, h_layer.coeffs):
                assert got.constant_value() == expected, name


def test_criterion_8_orbit_enumeration_at_two():
    with criterion(8, "unit-group orbits at ell = 2, n = 3, d = 1 partition as sizes 1, 2, 4"):
        # brute force: close {-1, 5} under multiplication mod 8, act on 1..7
        units = {1}
        frontier = [7, 5]  # -1 mod 8 and 5
        while frontier:
            u = frontier.pop()
            if u not in units:
                units.add(u)
                frontier.extend(u * v % 8 for v in list(units) + [7, 5])
        assert units == {1, 3, 5, 7}
        brute = set()
        for a in range(1, 8):
            brute.add(frozenset(u * a % 8 for u in units))
        enumerated = {
            frozenset(m.vector[0] for m in o.members()) for o in enumerate_orbits(2, 3, 1)
        }
        assert enumerated == brute
        assert sorted(len(o) for o in enumerated) == [1, 2, 4]
        orders = {o.exact_order: o.size for o in enumerate_orbits(2, 3, 1)}
        assert orders == {2: 1, 4: 2, 8: 4}
