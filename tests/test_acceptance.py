"""End-to-end acceptance checks, one test per criterion.

Run with -v to get one pass/fail line per criterion; each test also prints
an explicit "criterion N: PASS" line on success.
"""

from itertools import combinations, product

import pytest

from sphsys import (
    build_root_system,
    colors,
    defect,
    dimension,
    fundamental_weights,
    is_cuspidal,
    localize_s,
    make_system,
    validate,
)
from sphsys.closure import faithful_couples, gamma_group, is_spherically_closed, is_strict
from sphsys.enumeration import census
from sphsys.quotient import (
    classify,
    enumerate_distinguished,
    is_distinguished,
    is_strongly_solvable,
    quotient,
)
from sphsys.rootsys import parabolic_grading
from sphsys.serialize import emit_system, parse_system
from sphsys.sphroots import spherical_roots_of

from conftest import gamma_orbit


def done(n, text):
    print(f"criterion {n}: PASS ({text})")


def pairing(sys):
    """Full pairing rows as a set, each keyed by values against named sigma."""
    order = [s.coeffs for s in sys.sigma]
    return {tuple(c.row[order.index(v)] for v in sorted(order)) for c in colors(sys).colors}


def rows_against(sys, sigma_order):
    idx = [[s.coeffs for s in sys.sigma].index(v) for v in sigma_order]
    return sorted(tuple(c.row[i] for i in idx) for c in colors(sys).colors)


def test_criterion_01_f4_census(f4_census):
    assert f4_census.by_rank == {0: 16, 1: 41, 2: 61, 3: 77, 4: 71}
    assert len(f4_census.systems) == 266
    assert f4_census.diff({0: 16, 1: 41, 2: 61, 3: 77, 4: 71}) == {}
    done(1, "F4 census 16/41/61/77/71, total 266")


def test_criterion_02_f4_spherical_roots(f4):
    got = {r.coeffs for r in spherical_roots_of(f4)}
    expected = {
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2),
        (1, 1, 0, 0), (0, 0, 1, 1),
        (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1),
        (0, 1, 1, 0), (1, 1, 1, 0),
        (0, 2, 2, 0), (2, 2, 2, 0),
        (0, 1, 2, 1), (1, 2, 3, 0), (1, 2, 3, 2),
    }
    assert got == expected
    done(2, "20 spherical roots of F4")


def test_criterion_03_pairing_tables(f4):
    b4 = build_root_system("B4")
    ex1 = make_system(b4, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 2)], [3], [])
    assert rows_against(
        ex1, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 2)]
    ) == sorted([(2, -1, 0), (-1, 2, -1), (0, -2, 2)])

    a4 = build_root_system("A4")
    ex3 = make_system(
        a4,
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)],
        [],
        [(1, -1, 1), (1, 0, -1), (0, 1, -1), (-1, 1, 1)],
    )
    assert sorted(ex3.a_rows) == sorted(
        tuple(r[i] for i in [2, 1, 0])  # canonical order (a4, a2, a1)
        for r in [(1, -1, 1), (1, 0, -1), (0, 1, -1), (-1, 1, 1)]
    )
    assert rows_against(
        ex3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)]
    ) == sorted([(1, -1, 1), (1, 0, -1), (0, 1, -1), (-1, 1, 1), (0, -1, -1)])

    ex4 = make_system(
        f4,
        [(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)],
        [],
        [(1, 0, 0), (1, -1, 0)],
    )
    assert rows_against(
        ex4, [(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)]
    ) == sorted([(1, 0, 0), (1, -1, 0), (-1, 1, -1), (0, 0, 1), (0, -1, 1)])

    rank2 = make_system(f4, [(1, 0, 0, 1), (0, 1, 1, 0)], [], [])
    assert rows_against(
        rank2, [(1, 0, 0, 1), (0, 1, 1, 0)]
    ) == sorted([(2, -1), (-1, 1), (-1, 0)])

    s12 = make_system(
        f4,
        [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        [],
        [(0, 0, 1, -1), (-2, 0, 1, 0), (0, 0, -1, 1), (0, -1, 0, 1)],
    )
    assert rows_against(
        s12, [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    ) == sorted(
        [
            (0, 0, 1, -1), (-2, 0, 1, 0), (0, 0, -1, 1), (0, -1, 0, 1),
            (1, -1, 0, 0),  # b color at the first simple root
            (1, 1, -1, 0),  # b color at the second simple root
        ]
    )

    a3 = build_root_system("A3")
    sl4 = make_system(
        a3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [],
        [(1, -1, 1), (1, 0, -1), (0, 1, 0), (-1, 1, -1), (-1, 0, 1)],
    )
    assert rows_against(
        sl4, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    ) == sorted([(1, -1, 1), (1, 0, -1), (0, 1, 0), (-1, 1, -1), (-1, 0, 1)])

    b3 = build_root_system("B3")
    b3sys = make_system(
        b3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [],
        [(1, 1, -1), (1, -2, 1), (-2, 1, 0), (-1, 0, 1)],
    )
    assert rows_against(
        b3sys, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    ) == sorted([(1, 1, -1), (1, -2, 1), (-2, 1, 0), (-1, 0, 1)])
    done(3, "all golden pairing tables reproduced")


def test_criterion_04_sl4_quotients():
    rs = build_root_system("A3")
    sl4 = make_system(
        rs,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [],
        [(1, -1, 1), (1, 0, -1), (0, 1, 0), (-1, 1, -1), (-1, 0, 1)],
    )
    rows = [c.row for c in colors(sl4).colors]
    plus = rows.index((1, -1, 1))
    a1m = rows.index((-1, 0, 1))
    a2p = rows.index((0, 1, 0))
    a2m = rows.index((-1, 1, -1))
    a3m = rows.index((1, 0, -1))
    named = {
        (plus, a2m): {(1, 1, 0), (0, 1, 1)},
        (a1m, a3m): {(1, 0, 1), (0, 1, 0)},
        (a2p,): {(1, 0, 0), (0, 0, 1)},
        (plus, a2m, a1m, a3m): {(1, 2, 1)},
        (a1m, a2p, a3m): {(1, 0, 1)},
    }
    for members, sigma in named.items():
        assert is_distinguished(sl4, members) is not None
        q = quotient(sl4, sorted(members))
        assert {s.coeffs for s in q.sigma} == sigma
    done(4, "the five named distinguished subsets and their quotients")


def test_criterion_05_rank2_example(f4):
    sys = make_system(f4, [(1, 0, 0, 1), (0, 1, 1, 0)], [], [])
    assert dimension(sys) == 26
    subs = [d for d in enumerate_distinguished(sys) if d.minimal]
    assert len(subs) == 1
    members = subs[0].members
    owner_sets = [colors(sys).colors[m].owners for m in members]
    assert sorted(owner_sets) == [(0, 3), (1,)]
    q = quotient(sys, members)
    assert q.sigma == () and sorted(q.sp) == [0, 1, 3]
    assert classify(sys, members) == "L"
    done(5, "unique distinguished subset, L-type quotient to S^p={a1,a2,a4}")


def test_criterion_06_rank1_sources(f4_census, rank1_omega4):
    r1 = rank1_omega4
    assert dimension(r1) == 16
    assert defect(r1) == 0
    assert is_strict(r1) and is_cuspidal(r1)
    sources = []
    for s in f4_census.systems:
        if s == r1:
            continue
        if any(
            quotient(s, d.members) == r1 for d in enumerate_distinguished(s)
        ):
            sources.append(s)
    assert len(sources) == 5
    assert sorted(defect(s) for s in sources) == [1, 1, 1, 1, 2]
    # defect drops on every such quotient, so they are all of the P kind
    assert all(defect(s) > defect(r1) for s in sources)
    done(6, "five sources with defects (2,1,1,1,1) onto the rank-1 system")


def test_criterion_07_strongly_solvable(f4, f4_census):
    rank4 = [s for s in f4_census.systems if len(s.sigma) == 4]
    assert len(rank4) == 71
    solvable = [s for s in rank4 if is_strongly_solvable(s)[0]]
    assert len(solvable) == 38
    chain2 = make_system(
        f4,
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        [],
        [
            (1, -1, 1, 0), (1, 0, -1, 0), (-1, -1, 1, -1),
            (0, 1, 0, 1), (-1, 1, -1, -1), (0, -1, -1, 1),
        ],
    )
    ok, chain = is_strongly_solvable(chain2)
    assert ok and len(chain) == 2
    chain3 = make_system(
        f4,
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        [],
        [
            (1, 0, 0, 0), (1, -1, 0, 0), (0, 1, -1, 1), (-1, 1, 0, -1),
            (0, -1, 0, 1), (0, 0, 1, 0), (0, -2, 1, -1),
        ],
    )
    ok, chain = is_strongly_solvable(chain3)
    assert ok and len(chain) == 3
    done(7, "38 of 71 strongly solvable; example chains of length 2 and 3")


def test_criterion_08_spherical_closure(f4_census):
    non_closed = [s for s in f4_census.systems if not is_spherically_closed(s)]
    assert len(non_closed) == 3
    done(8, "exactly 3 non spherically closed systems")


def test_criterion_09_faithful_couples(f4, f4_census, a3_census):
    expected = {1: 3, 2: 10, 3: 8, 4: 3}
    for i, count in expected.items():
        target = tuple(int(j == i - 1) for j in range(4))
        couples = faithful_couples(f4_census.systems, f4, target)
        assert len(couples) == count, (i, len(couples))
        for couple, _ in couples:
            assert gamma_group(couple.system).order() == 1
    a3 = build_root_system("A3")
    couples = faithful_couples(a3_census.systems, a3, (1, 0, 1))
    assert len(couples) == 5
    done(9, "faithful couples 3/10/8/3 for F4 and 5 for the adjoint A3 weight")


def test_criterion_10_parabolic_gradings(f4):
    table = {
        0: ("C3", 2, (14, 1)),
        1: ("A1xA2", 3, (12, 6, 2)),
        2: ("A2xA1", 4, (6, 9, 2, 3)),
        3: ("B3", 2, (8, 7)),
    }
    for alpha, (levi, steps, dims) in table.items():
        g = parabolic_grading(f4, alpha)
        assert (g.levi, g.steps, g.dims) == (levi, steps, dims)
    done(10, "all four maximal parabolic gradings")


def test_criterion_11_fundamental_weights(f4):
    assert fundamental_weights(f4) == [
        (2, 3, 4, 2),
        (3, 6, 8, 4),
        (2, 4, 6, 3),
        (1, 2, 3, 2),
    ]
    done(11, "fundamental weights of F4 in root coordinates")


def test_criterion_12a_localization_closure(f4_census):
    for sys in f4_census.systems:
        for k in range(5):
            for keep in combinations(range(4), k):
                assert validate(localize_s(sys, keep)) == []
    done("12a", "localizations at every subset of S are valid")


def test_criterion_12b_quotient_validity(f4_census):
    for sys in f4_census.systems:
        for d in enumerate_distinguished(sys):
            assert validate(quotient(sys, d.members)) == []
    done("12b", "every quotient of every census member is valid")


def test_criterion_12c_feasibility_oracle(f4_census):
    box = 3
    for sys in f4_census.systems:
        rows = [c.row for c in colors(sys).colors]
        width = len(sys.sigma)
        for k in range(1, len(rows) + 1):
            for members in combinations(range(len(rows)), k):
                w = is_distinguished(sys, members)
                if w is not None:
                    assert all(x > 0 for x in w)
                    for j in range(width):
                        assert (
                            sum(x * rows[m][j] for x, m in zip(w, members)) >= 0
                        )
                elif width:
                    sub = [rows[m] for m in members]
                    assert not any(
                        all(
                            sum(x[i] * sub[i][j] for i in range(k)) >= 0
                            for j in range(width)
                        )
                        for x in product(range(1, box + 1), repeat=k)
                    )
    done("12c", "exact feasibility agrees with the bounded integer oracle")


def test_criterion_12d_omega_gamma_invariance(f4_census):
    import random

    from sphsys.closure import omega_of

    rng = random.Random(7)
    for sys in f4_census.systems:
        g = gamma_group(sys)
        n = len(colors(sys).colors)
        for _ in range(3):
            counts = tuple(rng.randrange(4) for _ in range(n))
            for other in gamma_orbit(g, counts):
                assert omega_of(sys, other) == omega_of(sys, counts)
    done("12d", "omega is invariant under the color-swap group")


def test_criterion_12e_json_round_trip(f4_census):
    for sys in f4_census.systems:
        assert parse_system(emit_system(sys)) == sys
    done("12e", "JSON round-trip over the full census")
