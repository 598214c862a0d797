import pickle
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elltowers import cli, lfunctions
from elltowers.cyclotomic import norm_to_int, phi_ell_power, pi_adic_ords
from elltowers.fit import valuation_sequence
from elltowers.graphs import build_graph, validate_base
from elltowers.lfunctions import (
    CharacterIndex,
    TowerCalculator,
    enumerate_orbits,
    orbit_count,
    orbit_records,
)
from elltowers.series import LaurentPoly, char_poly, character_values
from elltowers.treecount import kappa_matrix_tree, ord_prime
from elltowers.voltage import (
    DisconnectedCoverError,
    VoltageSpec,
    check_tower_connectivity,
    default_section,
    derived_graph,
)

from conftest import FIXTURE_NAMES, FIXTURES, fixture_spec, random_connected_spec, random_validated_graph
from oracles import Cyclotomic as CycInt
from oracles import l_value_at_one, matrices, orbit_members, twisted_adjacency

E1 = fixture_spec("bouquet2_ell2")
E4 = fixture_spec("bouquet2_ell3")


def _level_block(ell, k, d):
    """The exact-level-k block of _orbit_reps(ell, k, d): least members of
    the orbits on the primitive vectors mod ell^k."""
    reps, levels = lfunctions._orbit_reps(ell, k, d)
    return reps[levels == k]


def test_trivial_character_gives_plain_adjacency():
    g = build_graph(2, [(0, 1), (0, 1), (0, 0)])
    spec = VoltageSpec(g, default_section(g), ((1, 0), (0, 1), (1, 1)), 2, 2)
    a = twisted_adjacency(spec, 1, CharacterIndex(1, (0, 0)))
    plain = matrices(g).adjacency
    for i in range(2):
        for j in range(2):
            assert a[i][j] == plain[i][j]


def test_twisted_adjacency_examples():
    a = twisted_adjacency(E1, 1, CharacterIndex(1, (1, 0)))
    assert a[0][0] == CycInt.integer(2, 1, 0)
    a = twisted_adjacency(E1, 1, CharacterIndex(1, (1, 1)))
    assert a[0][0] == CycInt.integer(2, 1, -4)


def test_twisted_adjacency_conjugate_symmetric():
    rng = random.Random(11)
    for _ in range(5):
        spec = random_connected_spec(rng, max_vertices=3)
        n = 2
        m = spec.ell**n
        chi = CharacterIndex(n, tuple(rng.randrange(m) for _ in range(spec.d)))
        a = twisted_adjacency(spec, n, chi)
        g = spec.base
        for i in range(g.n_vertices):
            for j in range(g.n_vertices):
                assert a[j][i] == a[i][j].conjugate(m - 1)


def test_l_value_examples():
    assert not l_value_at_one(E1, 1, CharacterIndex(1, (0, 0)))
    assert l_value_at_one(E1, 1, CharacterIndex(1, (1, 0))) == CycInt.integer(2, 1, 4)
    assert l_value_at_one(E1, 1, CharacterIndex(1, (1, 1))) == CycInt.integer(2, 1, 8)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from((1, 2, 3)))
def test_char_poly_values_match_determinant(seed, d):
    # P specialized at a character equals the twisted determinant oracle,
    # on bouquets and on bases with several vertices, at levels 0..2
    rng = random.Random(seed)
    spec = random_connected_spec(rng, max_vertices=4, d=d)
    poly = char_poly(spec)
    for n in range(3):
        m = spec.ell**n
        vecs = [tuple(rng.randrange(m) for _ in range(d)) for _ in range(3)]
        for vec, row in zip(vecs, character_values(poly, spec.ell, n, vecs).tolist()):
            assert CycInt(spec.ell, n, row) == l_value_at_one(spec, n, CharacterIndex(n, vec))


@pytest.mark.parametrize("d", (1, 2, 3))
def test_character_values_match_l_value(d):
    # one batched row per character, for every character at levels 1 and 2
    rng = random.Random(40 + d)
    for _ in range(2):
        spec = random_connected_spec(rng, max_vertices=3, d=d)
        poly = char_poly(spec)
        for n in (1, 2):
            vecs = list(product(range(spec.ell**n), repeat=d))
            rows = character_values(poly, spec.ell, n, vecs)
            for vec, row in zip(vecs, rows.tolist()):
                assert CycInt(spec.ell, n, row) == l_value_at_one(spec, n, CharacterIndex(n, vec))


def test_character_values_reduce_large_exponents():
    # voltages and index vectors past int64 act through their residues
    big = LaurentPoly({(2**70 + 1, 0): 3, (-(2**65), 1): -2, (0, 0): 1})
    small = LaurentPoly({((2**70 + 1) % 8, 0): 3, (-(2**65) % 8, 1): -2, (0, 0): 1})
    rows = character_values(big, 2, 3, [(2**80 + 1, 3), (5, -(2**64))])
    assert rows.tolist() == character_values(small, 2, 3, [(1, 3), (5, 0)]).tolist()


@pytest.mark.parametrize("spec, k", [(E1, 5), (E4, 3)], ids=["bouquet2_ell2", "bouquet2_ell3"])
def test_level_ords_independent_of_chunking(monkeypatch, spec, k):
    def level(calc):
        return calc.level_ords(k), calc.level_sum(k), calc.level_norms(k)

    monkeypatch.setattr(lfunctions, "_CHUNK_ENTRIES", 2**40)
    whole = level(TowerCalculator(spec))
    # a few representatives per chunk, and one per chunk, in the value
    # pass (level_sum takes no chunks)
    for entries in (3 * spec.ell**k, 1):
        monkeypatch.setattr(lfunctions, "_CHUNK_ENTRIES", entries)
        assert level(TowerCalculator(spec)) == whole
    ords, total, norms = whole
    calc = TowerCalculator(spec)
    reps = _level_block(spec.ell, k, spec.d)
    values = (CycInt(spec.ell, k, row) for row in character_values(calc.poly, spec.ell, k, reps).tolist())
    assert norms == tuple(map(norm_to_int, values))
    assert ords == tuple(ord_prime(norm, spec.ell) for norm in norms) and total == sum(ords)


def test_orbit_enumeration_small_cases():
    orbits = enumerate_orbits(2, 1, 2)
    assert len(orbits) == 3
    assert all(o.size == 1 for o in orbits)
    assert {o.representative.vector for o in orbits} == {(0, 1), (1, 0), (1, 1)}

    orbits = enumerate_orbits(3, 1, 2)
    assert len(orbits) == 4
    assert all(o.size == 2 for o in orbits)

    orbits = enumerate_orbits(2, 2, 1)
    reps = {o.representative.vector: o for o in orbits}
    assert set(reps) == {(2,), (1,)}
    assert reps[(2,)].size == 1 and reps[(2,)].exact_order == 2
    assert reps[(1,)].size == 2 and reps[(1,)].exact_order == 4
    assert [m.vector for m in orbit_members(reps[(1,)])] == [(1,), (3,)]


def _exact_level(ell, order):
    k = 0
    while order > 1:
        order //= ell
        k += 1
    return k


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from((2, 3, 5)),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=2),
)
def test_orbits_partition_the_nontrivial_indices(ell, n, d):
    if ell**(n * d) > 2500:
        return
    orbits = enumerate_orbits(ell, n, d)
    keys = [(o.exact_order, o.representative.vector) for o in orbits]
    assert keys == sorted(keys)
    seen = set()
    for o in orbits:
        members = orbit_members(o)
        assert len(members) == o.size
        assert o.size == phi_ell_power(ell, _exact_level(ell, o.exact_order))
        assert o.representative == members[0]
        for mem in members:
            assert mem.vector not in seen
            seen.add(mem.vector)
    assert len(seen) == ell ** (n * d) - 1
    assert (0,) * d not in seen


def test_representative_is_lexicographically_least():
    for ell, n, d in ((2, 3, 2), (3, 2, 2), (2, 4, 1)):
        for o in enumerate_orbits(ell, n, d):
            assert o.representative.vector == min(m.vector for m in orbit_members(o))
    # against the minimum over all phi(ell^k) units of each normal form
    # (first unit coordinate 1); ell = 2 with k >= 4 has cosets with k - t = 1
    for ell, d in product((2, 3, 5, 7), (1, 2, 3)):
        for k in range(1, 8):
            m = ell**k
            if m ** (d + 1) > 2 * 10**5:
                break
            units = [u for u in range(1, m) if u % ell]
            brute = []
            for pivot in range(d):
                for prefix in product(range(0, m, ell), repeat=pivot):
                    for suffix in product(range(m), repeat=d - 1 - pivot):
                        v = prefix + (1,) + suffix
                        brute.append(min(tuple(u * x % m for x in v) for u in units))
            got = _level_block(ell, k, d).tolist()
            assert got == [list(v) for v in sorted(brute)], (ell, k, d)


def _brute_orbits(ell, n, d):
    """(exact order, least member, size) of every orbit of nonzero vectors
    mod ell^n under all units: scanning in lexicographic order, an orbit's
    first vector seen is its least member."""
    m = ell**n
    units = [u for u in range(1, m) if u % ell]
    seen, out = set(), []
    for v in product(range(m), repeat=d):
        if any(v) and v not in seen:
            orbit = {tuple(u * x % m for x in v) for u in units}
            seen |= orbit
            low = min(ord_prime(x, ell) for x in v if x)
            out.append((ell ** (n - low), v, len(orbit)))
    return sorted(out)


def test_enumerate_orbits_matches_brute_force_partition():
    for ell, d in product((2, 3, 5, 7), (1, 2, 3, 4)):
        for n in range(1, 6):
            if ell ** (n * d) > 5000:
                break
            got = [(o.exact_order, o.representative.vector, o.size) for o in enumerate_orbits(ell, n, d)]
            assert got == _brute_orbits(ell, n, d), (ell, n, d)


def test_orbit_counts_match_closed_form():
    # (ell^(dk) - ell^(d(k-1))) / phi(ell^k) orbits of exact order ell^k
    for ell, n, d in ((2, 10, 2), (3, 7, 2), (2, 6, 3), (5, 3, 3), (7, 2, 4), (3, 2, 5), (2, 40, 1)):
        reps, levels = lfunctions._orbit_reps(ell, n, d)
        counts = np.bincount(levels, minlength=n + 1).tolist()
        want = [(ell ** (d * k) - ell ** (d * (k - 1))) // phi_ell_power(ell, k) for k in range(1, n + 1)]
        assert counts == [0] + want, (ell, n, d)
        assert len(reps) == len(levels) == sum(want)
        assert len(_level_block(ell, n, d)) == want[-1]


@pytest.mark.parametrize("ell, n", [(2, 62), (2, 63), (2, 70), (3, 40), (3, 41)])
def test_orbits_stay_exact_past_int64(ell, n):
    # the one orbit of exact order ell^k is that of ell^(n-k); vectors past
    # 2^63 come out as Python integers, not wrapped int64
    orbits = enumerate_orbits(ell, n, 1)
    assert [o.representative.vector for o in orbits] == [(ell ** (n - k),) for k in range(1, n + 1)]
    assert [(o.exact_order, o.size) for o in orbits] == [(ell**k, phi_ell_power(ell, k)) for k in range(1, n + 1)]
    assert all(type(o.representative.vector[0]) is int for o in orbits)
    assert _level_block(ell, n, 1).tolist() == [[1]]


def test_orbit_records_enumerate_once(monkeypatch):
    # one enumeration per call and one value pass per level, which gives
    # the records' rows and orders alike (each level here fits in one chunk)
    reps_calls, values = [], []
    reps_fn, values_fn = lfunctions._orbit_reps, lfunctions.character_values

    def counted_reps(*args):
        reps_calls.append(args)
        return reps_fn(*args)

    def counted_values(poly, ell, level, avecs):
        values.append(level)
        return values_fn(poly, ell, level, avecs)

    monkeypatch.setattr(lfunctions, "_orbit_reps", counted_reps)
    monkeypatch.setattr(lfunctions, "character_values", counted_values)
    records = orbit_records(E1, 4)
    assert len(reps_calls) == 1
    assert values == [1, 2, 3, 4]
    assert [r.orbit for r in records] == enumerate_orbits(2, 4, 2)


def _spy_orders(monkeypatch):
    """Records each level of a value pass (character_values) and each
    (level, fold) of a sparse order that TowerCalculator takes."""
    values, sparse = [], []
    values_fn, sparse_fn = lfunctions.character_values, lfunctions.sparse_ord

    def counted_values(poly, ell, level, avecs):
        values.append(level)
        return values_fn(poly, ell, level, avecs)

    def counted_sparse(terms, ell, level, *, fold=False):
        sparse.append((level, fold))
        return sparse_fn(terms, ell, level, fold=fold)

    monkeypatch.setattr(lfunctions, "character_values", counted_values)
    monkeypatch.setattr(lfunctions, "sparse_ord", counted_sparse)
    return values, sparse


def test_kappa_exact_evaluates_each_level_once(monkeypatch):
    # a cold kappa_exact reads its norms and their check orders off one
    # value pass per level, and takes no sparse order (each level here
    # fits in one chunk)
    values, sparse = _spy_orders(monkeypatch)
    assert TowerCalculator(E1).kappa_exact(4) == kappa_matrix_tree(derived_graph(E1, 4).graph).kappa
    assert sparse == []
    assert values == [1, 2, 3, 4]
    # a table cross-checks layers 1..5 within the default budget and reads
    # the level sums of all seven: the refinement walks each depth once,
    # in order, with one full order and one fold per class reaching it
    sparse.clear()
    valuation_sequence(E1, 7)
    levels = [level for level, _ in sparse]
    assert levels == sorted(levels) and set(levels) == set(range(1, 8))
    assert sparse == [(level, fold) for level, _ in sparse[::2] for fold in (False, True)]
    # the orders first and then the norms: the depths are walked once and
    # kept, and the norms take no sparse order
    sparse.clear()
    calc = TowerCalculator(E1)
    calc.ord_valuation(4)
    walked = len(sparse)
    calc.kappa_exact(4)
    calc.ord_valuation(4)
    assert len(sparse) == walked


def _full_row_ords(calc, k, reps):
    """Orders of the level-k values of reps from their full power-basis
    rows (pi_adic_ords on character_values), a few hundred rows at a time."""
    ell = calc.spec.ell
    return tuple(
        o
        for i in range(0, len(reps), 256)
        for o in pi_adic_ords(character_values(calc.poly, ell, k, reps[i : i + 256]), ell).tolist()
    )


def _drawn_spec(rng, ell, d, copies):
    """A tower over a base of 1-4 vertices with voltages in [-5, 5]^d; with
    copies = ell every edge is repeated ell times with its voltage, so D - A_x
    is ell times the drawn one and P has ell-content at least the vertex count."""
    while True:
        g = random_validated_graph(rng, 4)
        alpha = [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(g.n_undirected)]
        g = build_graph(g.n_vertices, [pair for pair in g.edge_pairs for _ in range(copies)])
        alpha = tuple(a for a in alpha for _ in range(copies))
        spec = VoltageSpec(g, default_section(g), alpha, ell, d)
        if validate_base(g).ok and check_tower_connectivity(spec).ok:
            return spec


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from((2, 3, 5)),
    st.sampled_from((1, 2, 3)),
    st.booleans(),
)
def test_level_ords_match_full_rows(seed, ell, d, content):
    # the fold of P's exponents gives the sum of the orders of the full
    # power-basis rows, with and without ell-content in P; level_ords
    # gives them row by row
    spec = _drawn_spec(random.Random(seed), ell, d, ell if content else 1)
    calc = TowerCalculator(spec)
    if content:
        assert all(c % ell == 0 for c in calc.poly.terms.values())
    for k in range(1, 7):
        reps = _level_block(ell, k, d)
        if len(reps) * ell**k > 20000:
            break
        want = _full_row_ords(calc, k, reps)
        assert calc.level_sum(k) == sum(want), k
        assert calc.level_ords(k) == want, k


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_level_ords_match_full_rows_to_frozen_depth(all_fixture_specs, name):
    spec = all_fixture_specs[name]
    calc = TowerCalculator(spec)
    for k in range(1, {2: 10, 3: 7}[spec.ell] + 1):
        want = _full_row_ords(calc, k, _level_block(spec.ell, k, spec.d))
        assert calc.level_sum(k) == sum(want), k
        assert calc.level_ords(k) == want, k


def test_level_sum_builds_few_full_rows(monkeypatch):
    # level_sum builds no dense row, and takes full sparse orders only for
    # the classes the refinement reaches: at most 1/16 of the 1,536 orbits
    # of bouquet2_ell2's level 10, over all its depths
    values, sparse = _spy_orders(monkeypatch)
    total = TowerCalculator(E1).level_sum(10)
    assert values == []
    assert sum(not fold for _, fold in sparse) <= 1536 // 16
    ords = TowerCalculator(E1).level_ords(10)
    assert len(ords) == 1536 and total == sum(ords)


_CLOSED_FORMS = {
    "bouquet2_ell2": (range(11, 61), lambda k: k * 2**k + 3 * 2**k - 4),
    "bouquet2_ell3": (range(7, 39), lambda k: 8 * 3 ** (k - 1)),
    "bouquet3_ell3": (range(7, 39), lambda k: 40 * 3 ** (k - 2)),
}


@pytest.mark.parametrize("name", _CLOSED_FORMS)
def test_level_sums_follow_the_closed_forms(all_fixture_specs, name):
    # a regression check past the full-row tests' reach: the closed forms
    # were observed, not proved, at every level here
    levels, closed_form = _CLOSED_FORMS[name]
    calc = TowerCalculator(all_fixture_specs[name])
    assert [calc.level_sum(k) for k in levels] == [closed_form(k) for k in levels]


@pytest.mark.parametrize("seed, ell, d", [(1, 2, 2), (2, 2, 3), (3, 3, 2), (4, 3, 1), (5, 5, 2)])
def test_level_sum_with_content_in_p(seed, ell, d):
    # every edge repeated ell times: P has ell-content, which every closed
    # class carries as mu * phi(ell^k)
    spec = _drawn_spec(random.Random(seed), ell, d, ell)
    calc = TowerCalculator(spec)
    assert calc._mu > 0
    for k in range(1, 7):
        reps = _level_block(ell, k, d)
        if len(reps) * ell**k > 20000:
            break
        assert calc.level_sum(k) == sum(_full_row_ords(calc, k, reps)), k


def test_level_sum_refuses_past_the_open_class_capacity(monkeypatch, capsys):
    # bouquet2_ell2 has three open classes at depth 1, two at each later one
    monkeypatch.setattr(lfunctions, "_MAX_OPEN_CLASSES", 2)
    calc = TowerCalculator(E1)
    assert calc.level_sum(1) == 7
    with pytest.raises(ValueError, match=r"^level 9: 3 open classes at depth 1, past the capacity of 2$"):
        calc.level_sum(9)
    spec = str(FIXTURES / "bouquet2_ell2.json")
    assert cli.main(["table", "--spec", spec, "--n-max", "20", "--budget", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error: level 2: 3 open classes at depth 1" in captured.err


def test_level_sum_refuses_an_ell_past_the_pascal_capacity(monkeypatch):
    # refused at the call, before sparse_ord builds a table or expands a term
    g = build_graph(1, [(0, 0), (0, 0)])
    big = VoltageSpec(g, default_section(g), ((1,), (2,)), 1000000007, 1)
    monkeypatch.setattr(lfunctions, "sparse_ord", lambda *args, **kwargs: pytest.fail("sparse_ord was called"))
    message = r"^ell = 1000000007: Pascal tables of 1000000014000000049 entries, past the capacity of 65536$"
    with pytest.raises(ValueError, match=message):
        TowerCalculator(big).level_sum(1)
    monkeypatch.undo()
    monkeypatch.setattr(lfunctions, "_MAX_PASCAL", 9)
    assert TowerCalculator(E4).level_sum(1) == 8
    monkeypatch.setattr(lfunctions, "_MAX_PASCAL", 8)
    with pytest.raises(ValueError, match=r"^ell = 3: Pascal tables of 9 entries, past the capacity of 8$"):
        TowerCalculator(E4).level_sum(1)


def test_orbit_enumeration_refuses_past_the_orbit_capacity():
    # 3 (2^40 - 1) orbits at level 40 for d = 2, refused before the residue
    # table over 2^40 residues is built; d = 1 has n orbits and no table
    with pytest.raises(ValueError, match=r"^level 40: 3298534883325 character orbits, past the capacity of 1048576$"):
        lfunctions._orbit_reps(2, 40, 2)
    assert len(enumerate_orbits(2, 70, 1)) == 70


@pytest.mark.parametrize("ell, n, d", [(3, 3, 2), (2, 4, 3), (5, 2, 2)])
def test_orbit_capacity_counts_the_orbits_exactly(monkeypatch, ell, n, d):
    orbits = enumerate_orbits(ell, n, d)
    for k in range(1, n + 1):
        assert orbit_count(ell, d, k) == sum(o.exact_order == ell**k for o in orbits), k
    count = len(orbits)
    monkeypatch.setattr(lfunctions, "_MAX_ORBITS", count)
    assert len(enumerate_orbits(ell, n, d)) == count
    monkeypatch.setattr(lfunctions, "_MAX_ORBITS", count - 1)
    with pytest.raises(ValueError, match=rf"^level {n}: {count} character orbits, past the capacity of {count - 1}$"):
        enumerate_orbits(ell, n, d)


def test_value_passes_refuse_rows_past_the_width_capacity(monkeypatch):
    # level 40 of a d = 1 tower has 40 orbits, but rows of 2^21 entries
    # from level 21 on: orbit_records refuses them before the first norm
    g = build_graph(1, [(0, 0), (0, 0)])
    d1 = VoltageSpec(g, default_section(g), ((1,), (2,)), 2, 1)
    with pytest.raises(ValueError, match=r"^level 21: value rows of 2097152 entries, past the capacity of 1048576$"):
        orbit_records(d1, 40)
    monkeypatch.setattr(lfunctions, "_MAX_ROW_WIDTH", 8)
    calc = TowerCalculator(E1)
    assert len(calc.level_norms(3)) == len(calc.level_ords(3)) == 12
    for read in (calc.level_norms, calc.level_ords, lambda k: orbit_records(E1, k)):
        with pytest.raises(ValueError, match=r"^level 4: value rows of 16 entries, past the capacity of 8$"):
            read(4)


def test_orbit_records_are_immutable_hashable_and_picklable():
    orbits = enumerate_orbits(3, 3, 2)
    orbit = orbits[7]
    with pytest.raises(AttributeError):
        orbit.size = 1
    with pytest.raises(AttributeError):
        orbit.representative.vector = (0, 1)
    # built again from its own construction: a different object, equal and
    # with the same hash
    again = enumerate_orbits(3, 3, 2)
    assert again[7] is not orbit and again[7] == orbit and hash(again[7]) == hash(orbit)
    assert len(set(orbits) | set(again)) == len(orbits)
    assert orbits[6] != orbit
    assert pickle.loads(pickle.dumps(orbits)) == orbits
    assert orbit_members(orbit)[0] == orbit.representative
    records = orbit_records(E4, 3)
    assert len(records) == len(orbits)
    for i, record in enumerate(records):
        assert record.orbit == orbits[i]
    assert pickle.loads(pickle.dumps(records)) == records


def test_orbit_values_example_one():
    records = {rec.orbit.representative.vector: rec for rec in orbit_records(E1, 1)}
    assert records[(1, 0)].integer_value == 4
    assert records[(0, 1)].integer_value == 4
    assert records[(1, 1)].integer_value == 8
    product = 1
    for rec in records.values():
        product *= rec.integer_value
    # ell^(2n) kappa_n: 128 = 4 * 32
    assert product == 2**2 * 32


def test_orbit_ord_sum_example_four():
    total = sum(rec.ord_ell for rec in orbit_records(E4, 1))
    assert total == 8  # 2*1 + ord_3(kappa_1) with kappa_1 valuation 6


def test_vanishing_value_signals_disconnection():
    g = build_graph(1, [(0, 0), (0, 0)])
    bad = VoltageSpec(g, default_section(g), ((2, 0), (0, 1)), 2, 2)
    # the orbit of (1, 0) sees both voltages as 0 mod 2; the connectivity
    # check rejects the tower before any value is computed
    with pytest.raises(DisconnectedCoverError):
        orbit_records(bad, 1)


def test_conjugate_character_pairing():
    rng = random.Random(23)
    for _ in range(5):
        spec = random_connected_spec(rng, max_vertices=3)
        n = 2
        m = spec.ell**n
        vec = tuple(rng.randrange(m) for _ in range(spec.d))
        neg = tuple((-x) % m for x in vec)
        a = l_value_at_one(spec, n, CharacterIndex(n, vec))
        b = l_value_at_one(spec, n, CharacterIndex(n, neg))
        assert b == a.conjugate(m - 1)


def test_orbit_integer_values_positive():
    rng = random.Random(5)
    specs = [E1, E4] + [random_connected_spec(rng, max_vertices=3) for _ in range(4)]
    for spec in specs:
        records = orbit_records(spec, 2)
        for rec in records:
            assert rec.integer_value is not None and rec.integer_value > 0
        # each level's records carry the calculator's orders and norms
        calc = TowerCalculator(spec)
        for k in (1, 2):
            level = [rec for rec in records if rec.orbit.exact_order == spec.ell**k]
            assert tuple(rec.ord_ell for rec in level) == calc.level_ords(k)
            assert tuple(rec.integer_value for rec in level) == calc.level_norms(k)


def test_route_equivalence_on_random_specs():
    rng = random.Random(31)
    for _ in range(4):
        spec = random_connected_spec(rng, max_vertices=3)
        for n in (1, 2):
            if spec.base.n_vertices * spec.ell ** (spec.d * n) > 800:
                continue
            layer = derived_graph(spec, n)
            calc = TowerCalculator(spec)
            kappa = calc.kappa_exact(n)
            assert kappa_matrix_tree(layer.graph).kappa == kappa
            assert ord_prime(kappa, spec.ell) == calc.ord_valuation(n)


def test_digit_limit_suppresses_large_norms():
    records = orbit_records(E1, 3, digit_limit=2)
    assert any(rec.integer_value is None for rec in records)
    assert all(rec.ord_ell >= 0 for rec in records)
    full = orbit_records(E1, 3)
    assert all(rec.integer_value is not None for rec in full)
    for a, b in zip(records, full):
        assert a.ord_ell == b.ord_ell


def test_calculator_rejects_bad_towers():
    g = build_graph(1, [(0, 0), (0, 0)])
    bad = VoltageSpec(g, default_section(g), ((2, 0), (0, 1)), 2, 2)
    with pytest.raises(DisconnectedCoverError):
        TowerCalculator(bad)
    c3 = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    chi_zero = VoltageSpec(c3, default_section(c3), ((1, 0), (0, 1), (1, 1)), 2, 2)
    with pytest.raises(ValueError):
        TowerCalculator(chi_zero)


def test_non_bouquet_tower_tables():
    # 2 vertices joined by 3 parallel edges: chi = -1, kappa_X = 3, so the
    # base factor enters the product formula (with ord_3(kappa_X) = 1 for
    # ell = 3).  Frozen values were cross-checked against matrix-tree
    # counts of the explicit layers (route "both-agree" up to the budget).
    g = build_graph(2, [(0, 1), (0, 1), (0, 1)])
    spec2 = VoltageSpec(g, default_section(g), ((1, 0), (0, 1), (0, 0)), 2, 2)
    seq2 = valuation_sequence(spec2, 3, matrix_tree_budget=600)
    assert [e.ord_ell for e in seq2.entries] == [7, 35, 111]
    assert all(e.route == "both-agree" for e in seq2.entries)

    spec3 = VoltageSpec(g, default_section(g), ((1, 0), (1, 1), (0, 2)), 3, 2)
    seq3 = valuation_sequence(spec3, 2, matrix_tree_budget=300)
    assert [e.ord_ell for e in seq3.entries] == [9, 37]
    assert all(e.route == "both-agree" for e in seq3.entries)
