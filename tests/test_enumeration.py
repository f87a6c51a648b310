"""Exhaustive census of spherical systems and canonical-form deduplication."""

import gc
import hashlib
import weakref
from functools import lru_cache
from itertools import combinations, product

import pytest

from sphsys import build_root_system, enumeration, make_system, validate
from sphsys.enumeration import (_sigma_candidates, canonical_form, census,
                                enumerate_a_matrices, enumerate_systems)
from sphsys.quotient import enumerate_distinguished, quotient
from sphsys.rootsys import cartan_eval, sub_root_system
from sphsys.serialize import emit_system
from sphsys.sphroots import sp_of, spherical_roots_of, spp_of
from sphsys.system import is_cuspidal, localize_s


def test_f4_census_counts(f4_census):
    assert f4_census.by_rank == {0: 16, 1: 41, 2: 61, 3: 77, 4: 71}
    assert len(f4_census.systems) == 266
    assert f4_census.diff({0: 16, 1: 41, 2: 61, 3: 77, 4: 71}) == {}


def test_f4_census_diff_reports_mismatch(f4_census):
    assert f4_census.diff({0: 16, 1: 40, 2: 61, 3: 77, 4: 71}) == {1: (41, 40)}


@pytest.mark.parametrize(
    "name,by_rank",
    [
        ("A1", {0: 2, 1: 2}),
        ("A2", {0: 4, 1: 5, 2: 3}),
        ("B2", {0: 4, 1: 7, 2: 8}),
        ("G2", {0: 4, 1: 7, 2: 5}),
        ("A3", {0: 8, 1: 15, 2: 17, 3: 10}),
        # regression values of this engine, not reference values from the
        # paper: the D4 triality images of the d-shape root moved them from
        # 264 and 1,044 systems
        ("D4", {0: 16, 1: 44, 2: 78, 3: 78, 4: 50}),
        ("D5", {0: 32, 1: 98, 2: 181, 3: 243, 4: 287, 5: 205}),
    ],
)
def test_small_census_counts(name, by_rank):
    assert census(name).by_rank == by_rank


def test_rank_zero_systems_are_sp_choices(f4_census):
    rank0 = [s for s in f4_census.systems if not s.sigma]
    assert len(rank0) == 16
    assert {tuple(sorted(s.sp)) for s in rank0} == {
        tuple(sorted(sp))
        for sp in [
            tuple(i for i in range(4) if m & (1 << i)) for m in range(16)
        ]
    }


# The types of the differential gate below. The census search builds only
# systems that satisfy the axioms and never validates them, so this test is
# where that invariant is checked.
@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4",
     "A1xA1", "A2xA1", "A3xA1", "A2xA2", "B2xA1", "B3xA1", "A1xG2",
     "A5", "B5", "C5", "D5"],
)
def test_census_members_are_valid_and_distinct(name):
    seen = set()
    for sys in census(name).systems:
        assert validate(sys) == []
        assert sys not in seen
        seen.add(sys)


def test_census_contains_worked_fixtures(f4, f4_census):
    fixtures = [
        make_system(f4, [(1, 2, 3, 2)], [0, 1, 2], []),
        make_system(
            f4,
            [(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)],
            [],
            [(1, 0, 0), (1, -1, 0)],
        ),
        make_system(
            f4,
            [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
            [],
            [(0, 0, 1, -1), (-2, 0, 1, 0), (0, 0, -1, 1), (0, -1, 0, 1)],
        ),
    ]
    members = set(f4_census.systems)
    for sys in fixtures:
        assert sys in members


def test_diagram_automorphisms():
    assert build_root_system("F4").automorphisms == ((0, 1, 2, 3),)
    assert build_root_system("A3").automorphisms == ((0, 1, 2), (2, 1, 0))
    assert len(build_root_system("D4").automorphisms) == 6


def test_census_mod_diagram_automorphisms_orbits(a3_census):
    rs = build_root_system("A3")
    reps = census("A3", mod_diagram_auts=True).systems
    assert len(reps) == 37
    # representative count equals the number of orbits in the full census
    orbits = {canonical_form(s) for s in a3_census.systems}
    assert len(orbits) == len(reps)


@pytest.mark.parametrize("name", ["F4", "B3", "C4", "G2", "B2xG2"])
def test_orbit_census_of_a_trivial_group_is_the_full_census(name):
    # members are built in canonical order: each is its own canonical form
    full = census(name)
    assert census(name, mod_diagram_auts=True) == full
    assert [canonical_form(s).key() for s in full.systems] == [s.key() for s in full.systems]


def test_orbit_census_reuses_the_full_census(monkeypatch):
    # the census mod diagram automorphisms is read off the full census, so
    # asking for it enumerates once
    calls = []
    search = enumeration.enumerate_systems

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(enumeration, "enumerate_systems", counting)
    reps = census("A1xA3", mod_diagram_auts=True)
    assert len(calls) == 1
    full = census("A1xA3")
    assert set(reps.systems) == {canonical_form(s) for s in full.systems}
    assert reps.total < full.total


@pytest.mark.parametrize("spec,mod_diagram_auts", [("A2", False), ("A1xA3", True)])
def test_no_census_is_kept(spec, mod_diagram_auts):
    # a command asks for its census once, so the process keeps none
    ref = weakref.ref(census(spec, mod_diagram_auts=mod_diagram_auts))
    gc.collect()
    assert ref() is None


def test_canonical_form_presentation_invariance(f4):
    a = make_system(
        f4,
        [(0, 1, 1, 0), (1, 0, 0, 0), (0, 0, 1, 1)],
        [],
        [(-1, 1, 0), (0, 1, 0)],
    )
    b = make_system(
        f4,
        [(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)],
        [],
        [(1, 0, 0), (1, -1, 0)],
    )
    assert a == b
    assert canonical_form(a) == canonical_form(b)


# A frozen copy of the generate-then-filter census search, kept as the
# reference for the pruned search: every Sigma subset with its pairwise
# constraints, S^p choices filtered afterwards, and an A-matrix search that
# re-checks every pair of owners at every step. Pairings come from
# cartan_eval, not from the catalog's precomputed ones.

def _reference_pair_ok(rs, s, t):
    su, tv = s.coeffs, t.coeffs
    if all(a * sum(tv) == b * sum(su) for a, b in zip(su, tv)):
        return False
    for x, y in ((s, t), (t, s)):
        if x.shape == "2a1":
            v = cartan_eval(rs, x.coeffs.index(2), y.coeffs)
            if v > 0 or v % 2 != 0:
                return False
        if x.shape == "a1xa1":
            i, j = x.support
            if cartan_eval(rs, i, y.coeffs) != cartan_eval(rs, j, y.coeffs):
                return False
    return True


def _reference_sigma_candidates(rs):
    roots = spherical_roots_of(rs)
    k = len(roots)
    compat = [[False] * k for _ in range(k)]
    for i, j in combinations(range(k), 2):
        compat[i][j] = compat[j][i] = _reference_pair_ok(rs, roots[i], roots[j])
    out = []

    def rec(chosen, start):
        out.append(tuple(roots[i] for i in chosen))
        for i in range(start, k):
            if all(compat[j][i] for j in chosen):
                rec(chosen + [i], i + 1)

    rec([], 0)
    return out


def _reference_sp_choices(rs, sigma):
    low, high = set(), set(range(rs.rank))
    for s in sigma:
        low |= spp_of(s)
        high &= sp_of(s)
    if not low <= high:
        return []
    free = sorted(high - low)
    return [frozenset(low) | frozenset(extra)
            for size in range(len(free) + 1) for extra in combinations(free, size)]


def _reference_a_matrices(rs, sigma):
    r = len(sigma)
    simple_cols = {s.coeffs.index(1): col for col, s in enumerate(sigma) if s.height == 1}
    owners = sorted(simple_cols)
    if not owners:
        return [()]
    cols_simple = set(simple_cols.values())

    def mult(pair, row):
        return (pair[0] == row) + (pair[1] == row)

    def pair_choices(alpha):
        col = simple_cols[alpha]
        cart = tuple(cartan_eval(rs, alpha, s.coeffs) for s in sigma)
        ranges = [[1] if j == col else
                  [v for v in range(cart[j] - 1, 2)
                   if (v != 1 or j in cols_simple) and (cart[j] - v != 1 or j in cols_simple)]
                  for j in range(r)]
        pairs = []
        for row in product(*ranges):
            partner = tuple(c - v for c, v in zip(cart, row))
            if row <= partner:
                pairs.append((row, partner))
        return pairs

    def consistent(assign):
        for a, pa in assign.items():
            for b, pb in assign.items():
                if a >= b:
                    continue
                ca, cb = simple_cols[a], simple_cols[b]
                if any(row[cb] == 1 and mult(pa, row) != mult(pb, row) for row in pa):
                    return False
                if any(row[ca] == 1 and mult(pb, row) != mult(pa, row) for row in pb):
                    return False
        return True

    choices = {a: pair_choices(a) for a in owners}
    results = []

    def rec(idx, assign):
        if idx == len(owners):
            m = {}
            for pa in assign.values():
                for row in set(pa):
                    m[row] = max(m.get(row, 0), mult(pa, row))
            results.append(tuple(sorted(row for row, k in m.items() for _ in range(k))))
            return
        a = owners[idx]
        for pair in choices[a]:
            assign[a] = pair
            if consistent(assign):
                rec(idx + 1, assign)
            del assign[a]

    rec(0, {})
    return results


def _reference_census(rs):
    seen = {}
    for sigma in _reference_sigma_candidates(rs):
        for sp in _reference_sp_choices(rs, sigma):
            for rows in _reference_a_matrices(rs, sigma):
                sys = make_system(rs, [s.coeffs for s in sigma], sp, rows)
                if not validate(sys):
                    seen.setdefault(sys.key(), sys)
    return [seen[k] for k in sorted(seen)]


# The rank-5 types run under `slow`: A5 and C5 take about 12 s each against
# the reference, B5 about a minute. D5 (several minutes, over 1 GB) stays a
# regression value in CENSUS_DIGESTS below.
@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4",
     "A1xA1", "A2xA1", "A3xA1", "A2xA2", "B2xA1", "B3xA1", "A1xG2"]
    + [pytest.param(t, marks=pytest.mark.slow) for t in ["A5", "C5", "B5"]],
)
def test_pruned_search_matches_reference(name):
    rs = build_root_system(name)
    got = [emit_system(s) for s in enumerate_systems(rs).systems]
    assert got == [emit_system(s) for s in _reference_census(rs)]


# The A-matrix layer alone, Sigma by Sigma, on types the census comparison
# above does not reach. With the owner rule (`_owner_ok`) off, the
# candidates include the sigmas it removes.
A_MATRIX_TYPES = ["A2xA3", "A4xA1", "F4xA1"] + [pytest.param(t, marks=pytest.mark.slow)
                                                for t in ["A5", "B5", "C5", "D5"]]


@pytest.mark.parametrize("name", A_MATRIX_TYPES)
def test_a_matrices_match_reference(monkeypatch, name):
    rs = build_root_system(name)
    monkeypatch.setattr(enumeration, "_owner_ok", lambda s, t: True)
    for sigma, _, _ in _sigma_candidates(rs):
        assert enumerate_a_matrices(sigma) == sorted(_reference_a_matrices(rs, sigma))


# The owner rule is exact: every sigma that the other pairwise rules accept
# and it rejects has no A-matrix by the frozen reference.
@pytest.mark.parametrize("name", A_MATRIX_TYPES)
def test_owner_rule_removes_only_sigmas_without_a_matrices(monkeypatch, name):
    rs = build_root_system(name)
    kept = {sigma for sigma, _, _ in _sigma_candidates(rs)}
    monkeypatch.setattr(enumeration, "_owner_ok", lambda s, t: True)
    removed = [sigma for sigma, _, _ in _sigma_candidates(rs) if sigma not in kept]
    assert removed
    for sigma in removed:
        assert _reference_a_matrices(rs, sigma) == []


# With the owner rule, the Sigma search yields no sigma without an A-matrix
# on these types. LADDER: the types of the benchmark's census workload, then
# D5 and E6.
LADDER = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4",
          "A1xA1", "A2xA1", "A2xA2", "A3xA1", "B2xA1", "B3xA1", "A1xG2", "A2xA3",
          "A4xA1", "F4xA1", "D5", "E6"]


@pytest.mark.parametrize("name", LADDER + [pytest.param("E7", marks=pytest.mark.slow)])
def test_every_sigma_candidate_has_an_a_matrix(name):
    for sigma, _, _ in _sigma_candidates(build_root_system(name)):
        assert enumerate_a_matrices(sigma)


# One census call builds the S^p choices once per S^p interval, not once per
# sigma: F4 has 95 sigmas on 14 intervals, E6 727 on 39.
@pytest.mark.parametrize("name,sigmas,intervals", [("F4", 95, 14), ("E6", 727, 39)])
def test_sp_choices_once_per_interval(monkeypatch, name, sigmas, intervals):
    rs = build_root_system(name)
    candidates = _sigma_candidates(rs)
    assert len(candidates) == sigmas
    assert len({(low, high) for _, low, high in candidates}) == intervals
    calls = []
    choices = enumeration._sp_choices

    def counting(*args):
        calls.append(args)
        return choices(*args)

    monkeypatch.setattr(enumeration, "_sp_choices", counting)
    enumerate_systems(rs)
    assert len(calls) == len(set(calls)) == intervals


# The A-matrix table lives as long as the process, and a Levi's sigma has the
# same signature inside every larger type: F4xA1 finds 27 of its 68
# signatures already there after F4 and A1. The census is the same, line for
# line, whatever the table holds. Fresh tables keep the counts independent of
# what other tests have filled.
def test_a_matrix_table_is_shared_and_changes_no_census(monkeypatch):
    def fresh_table():
        table = lru_cache(maxsize=None)(enumeration._a_matrices.__wrapped__)
        monkeypatch.setattr(enumeration, "_a_matrices", table)
        return table

    def lines(name):
        return [emit_system(s) for s in enumerate_systems(build_root_system(name)).systems]

    fresh_table()
    alone = lines("F4xA1")
    table = fresh_table()
    lines("F4")
    assert table.cache_info().misses == 27
    lines("A1")
    assert table.cache_info().misses == 27
    assert lines("F4xA1") == alone
    assert table.cache_info().misses == 68


# The A-matrix search propagates forced partners, so a fresh pair is tried
# only where no placed row decides the pair. Output identity cannot see a
# loss of that pruning: a search that opens more columns to fresh pairs
# finds the same matrices after trying many more. On the E7 signature of
# Sigma = S, the search iterates 13,516 fresh pairs; opening every owner's
# column to them makes it 1,847,610.
def test_a_matrix_search_tries_only_consistent_fresh_pairs(monkeypatch):
    rs = build_root_system("E7")
    sigma = next(s for s, _, _ in _sigma_candidates(rs) if len(s) == rs.rank
                 and all(r.shape == "a1" for r in s))
    monkeypatch.setattr(enumeration, "_a_matrices",
                        lru_cache(maxsize=None)(enumeration._a_matrices.__wrapped__))
    fresh, tried = enumeration._fresh_pairs, []

    def counting(*args):
        pairs = fresh(*args)
        tried.append(len(pairs))
        return pairs

    monkeypatch.setattr(enumeration, "_fresh_pairs", counting)
    assert len(enumerate_a_matrices(sigma)) == 4259
    assert sum(tried) == 13516


# A forced partner is computed again in every branch that forces it, and the
# table keeps the first object of each. On the E7 signature of Sigma = S, the
# 4,259 matrices hold 768 distinct rows in 1,620 objects; keeping a new tuple
# per branch makes 4,654.
def test_a_matrix_table_holds_each_forced_partner_once():
    rs = build_root_system("E7")
    sigma = next(s for s, _, _ in _sigma_candidates(rs) if len(s) == rs.rank
                 and all(r.shape == "a1" for r in s))
    table = enumeration._a_matrices.__wrapped__(enumeration._a_signature(sigma))
    rows = [row for matrix in table for row in matrix]
    assert len(table) == 4259
    assert len(set(rows)) == 768
    assert len({id(row) for row in rows}) == 1620


# The census builds its members directly, not through make_system: sigma in
# catalog order and the rows as sorted tuples over it must already be the
# canonical order that make_system gives.
@pytest.mark.parametrize("name", ["F4", "D4", "A2xA3", "F4xA1"])
def test_members_are_built_canonical(name):
    for s in census(name).systems:
        again = make_system(s.rs, [r.coeffs for r in s.sigma], s.sp, s.a_rows)
        assert again == s
        assert again.sigma == s.sigma and again.a_rows == s.a_rows


# sha256 of the sorted emit_system lines of each census: regression values of
# this engine, not reference values from the paper. The reference search
# above checks A5, B5 and C5 as well (under `slow`); D5, E6, E7 and E8 are
# beyond it, and a faster reference must stay independent of the pruned
# search, or it checks nothing.
CENSUS_DIGESTS = {
    "A5": "6f6b287fb5db4e640f23dbc7c41727cef4e65f244dbccc7182616f0837767df1",
    "B5": "818137f930c29d65d9dcbb332528c55801a07c4fe4078124e35fefc430bfaee4",
    "C5": "622d76b748930acc3e5b9b94054d848fa655718fcee624bba22081613ae429f5",
    "D5": "7d0e9c15daa58556e9d2a8e9a269bd17a83b0564505c5cb7814fb9b7306cbd69",
    "E6": "3df310bf74cf456a554254d09c7873ec3bafe836295fcaec6a6ea2e3c8401550",
    "E7": "e991e85089c710907d9484234825a89bc2a853aebfcd8ffb3c3c7862b27e21d2",
    "E8": "190a5aa1c96ee9d842cda130a5b7b75e95d9a529467651510b38053d04332413",
}


@pytest.mark.parametrize("name", ["A5", "B5", "C5", "D5", "E6"]
                         + [pytest.param(t, marks=pytest.mark.slow) for t in ["E7", "E8"]])
def test_census_digest(name):
    lines = sorted(emit_system(s) for s in census(name).systems)
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == CENSUS_DIGESTS[name]


# The census lists its members in key order without sorting them
# (`enumerate_systems`). The digests above hash sorted lines, so they cannot
# see the order; strictly increasing keys also rule out duplicates.
@pytest.mark.parametrize("name", LADDER + [pytest.param(t, marks=pytest.mark.slow)
                                           for t in ["E7", "E8"]])
def test_census_members_in_strict_key_order(name):
    keys = [s.key() for s in census(name).systems]
    assert all(a < b for a, b in zip(keys, keys[1:]))


# The same digest for each census modulo diagram automorphisms.
MOD_AUT_DIGESTS = {
    "D4": "1128abe981a3246463ab3f652a7d56f809e08a346988fc199ee900f5fae0dd27",
    "D5": "558d7ce4696288c5473d2bdc221ae3d24446eaf1e78bf65fe0e2a59f3f534ddc",
    "E6": "5f042dc6a7d79cf086e37178b23306d0efc9a2e3831b4623efa6ab0a2f8b9291",
}


@pytest.mark.parametrize("name", ["D4", "D5", "E6"])
def test_census_mod_diagram_automorphisms_digest(name):
    lines = sorted(emit_system(s) for s in census(name, mod_diagram_auts=True).systems)
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == MOD_AUT_DIGESTS[name]


def _image(sys, p, rs=None):
    """The system moved along p, which sends simple root i of sys.rs to simple
    root p[i] of rs: a diagram automorphism of sys.rs when rs is left out."""
    rs = sys.rs if rs is None else rs
    vecs = []
    for s in sys.sigma:
        v = [0] * rs.rank
        for i, c in enumerate(s.coeffs):
            v[p[i]] = c
        vecs.append(tuple(v))
    return make_system(rs, vecs, [p[i] for i in sys.sp], sys.a_rows)


@pytest.mark.parametrize("name", ["A5", "B5", "C5", "D5", "D4"])
def test_census_closed_under_diagram_automorphisms(name):
    rs = build_root_system(name)
    catalog = {s.coeffs for s in spherical_roots_of(rs)}
    members = set(census(name).systems)
    for p in rs.automorphisms:
        for sys in members:
            moved = _image(sys, p)
            assert {s.coeffs for s in moved.sigma} <= catalog
            assert moved in members


# Closure oracles: a census must hold every quotient and localization of its
# members, and its members modulo diagram automorphisms must be orbits that
# add up to it again.
SLOW = pytest.mark.slow
CLOSURE_TYPES = ["D4", "A2xA2"] + [pytest.param(t, marks=SLOW)
                                   for t in ["A5", "B5", "C5", "D5", "D4xA1"]]


@pytest.mark.parametrize("name", CLOSURE_TYPES)
def test_census_closed_under_quotients(name):
    members = set(census(name).systems)
    for sys in members:
        for d in enumerate_distinguished(sys):
            q = quotient(sys, d.members)
            assert validate(q) == []
            assert q in members


@pytest.mark.parametrize("name", CLOSURE_TYPES)
def test_census_closed_under_localization(name):
    rank = build_root_system(name).rank
    subcensus = {}
    for sys in census(name).systems:
        for k in range(rank):
            for keep in combinations(range(rank), k):
                loc = localize_s(sys, keep)
                if loc.rs.name not in subcensus:
                    subcensus[loc.rs.name] = set(census(loc.rs.name).systems)
                assert loc in subcensus[loc.rs.name]


# Parabolic induction (Luna's reduction to cuspidal systems): a system is
# induced from its localization at S' = supp Sigma u S^p, which is cuspidal
# over the Levi of S', and every cuspidal system of a Levi embeds as a
# system. So a census is the disjoint union over S' of the embedded cuspidal
# censuses of the Levis.
@pytest.mark.parametrize("name", ["F4", "D4", "A2xA2", "B3xA1"]
                         + [pytest.param(t, marks=SLOW) for t in ["D5", "E6"]])
def test_census_by_parabolic_induction(name):
    rs = build_root_system(name)
    induced = []
    for k in range(rs.rank + 1):
        for keep in combinations(range(rs.rank), k):
            levi, emb = sub_root_system(rs, keep)
            induced += [emit_system(_image(c, emb, rs))
                        for c in census(levi.name).systems if is_cuspidal(c)]
    assert sorted(induced) == sorted(emit_system(s) for s in census(name).systems)


@pytest.mark.parametrize(
    "name,orbits",
    [("D4", 92), ("A2xA2", 56)] + [pytest.param(t, n, marks=SLOW) for t, n in [
        ("A5", 498), ("B5", 1419), ("C5", 1202), ("D5", 696), ("D4xA1", 470)]])
def test_orbit_stabilizer(name, orbits):
    auts = build_root_system(name).automorphisms
    reps = census(name, mod_diagram_auts=True).systems
    images = [{_image(sys, p) for p in auts} for sys in reps]
    assert len(reps) == orbits
    assert sum(len(o) for o in images) == census(name).total
    assert set().union(*images) == set(census(name).systems)
