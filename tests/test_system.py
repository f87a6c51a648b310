"""System construction, axiom checking, colors, pairing tables, invariants."""

import hashlib
from itertools import combinations

import pytest

from sphsys import (
    build_root_system,
    colors,
    defect,
    dimension,
    emit_system,
    is_cuspidal,
    localize_s,
    localize_sigma,
    make_system,
    negative_colors,
    parse_system,
    validate,
)
from sphsys.enumeration import census
from sphsys.rootsys import sub_root_system


def pairing_rows(sys):
    """Rows of the full Cartan pairing keyed by (kind, owners)."""
    return {(c.kind, c.owners): c.row for c in colors(sys).colors}


def sigma_index(sys, v):
    return [s.coeffs for s in sys.sigma].index(v)


@pytest.fixture(scope="module")
def b4_doubled():
    rs = build_root_system("B4")
    return make_system(rs, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 2)], [3], [])


@pytest.fixture(scope="module")
def a4_three_simple():
    rs = build_root_system("A4")
    return make_system(
        rs,
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)],
        [],
        [(1, -1, 1), (1, 0, -1), (0, 1, -1), (-1, 1, 1)],
    )


@pytest.fixture(scope="module")
def f4_example(f4):
    return make_system(
        f4,
        [(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)],
        [],
        [(1, 0, 0), (1, -1, 0)],
    )


def test_examples_are_valid(b4_doubled, a4_three_simple, f4_example):
    assert validate(b4_doubled) == []
    assert validate(a4_three_simple) == []
    assert validate(f4_example) == []


def test_b4_doubled_pairing(b4_doubled):
    rows = pairing_rows(b4_doubled)
    assert set(rows) == {("2a", (0,)), ("2a", (1,)), ("b", (2,))}
    i1 = sigma_index(b4_doubled, (2, 0, 0, 0))
    i2 = sigma_index(b4_doubled, (0, 2, 0, 0))
    i3 = sigma_index(b4_doubled, (0, 0, 2, 2))
    expected = {
        ("2a", (0,)): {i1: 2, i2: -1, i3: 0},
        ("2a", (1,)): {i1: -1, i2: 2, i3: -1},
        ("b", (2,)): {i1: 0, i2: -2, i3: 2},
    }
    for key, vals in expected.items():
        assert rows[key] == tuple(vals[i] for i in range(3))


def test_f4_example_pairing(f4_example):
    rows = pairing_rows(f4_example)
    i1 = sigma_index(f4_example, (1, 0, 0, 0))
    i2 = sigma_index(f4_example, (0, 1, 1, 0))
    i3 = sigma_index(f4_example, (0, 0, 1, 1))
    a_rows = sorted(c.row for c in colors(f4_example).colors if c.kind == "a")
    expect_a = sorted(
        tuple(d[i] for i in range(3))
        for d in ({i1: 1, i2: 0, i3: 0}, {i1: 1, i2: -1, i3: 0})
    )
    assert a_rows == expect_a
    expected_b = {
        ("b", (1,)): {i1: -1, i2: 1, i3: -1},
        ("b", (2,)): {i1: 0, i2: 0, i3: 1},
        ("b", (3,)): {i1: 0, i2: -1, i3: 1},
    }
    for key, vals in expected_b.items():
        assert rows[key] == tuple(vals[i] for i in range(3))
    assert len(colors(f4_example).colors) == 5


def test_a4_shared_colors(a4_three_simple):
    # two of the four rows belong to two owners at once
    cs = colors(a4_three_simple)
    owner_sizes = sorted(len(c.owners) for c in cs.colors if c.kind == "a")
    assert owner_sizes == [1, 1, 2, 2]
    i1 = sigma_index(a4_three_simple, (1, 0, 0, 0))
    i2 = sigma_index(a4_three_simple, (0, 1, 0, 0))
    i4 = sigma_index(a4_three_simple, (0, 0, 0, 1))
    shared = {c.owners for c in cs.colors if len(c.owners) == 2}
    assert shared == {(0, 3), (1, 3)}
    rows = pairing_rows(a4_three_simple)
    assert rows[("a", (0, 3))][i1] == 1
    assert rows[("a", (0, 3))][i4] == 1
    assert rows[("a", (0, 3))][i2] == -1


def test_axiom_violation_detected(f4):
    # doubled simple root paired with value 1 breaks the doubled-root axiom
    bad = make_system(f4, [(2, 0, 0, 0), (0, 0, 0, 1)], [], [(0, 1)])
    assert validate(bad) != []


def test_a2_violation_detected(f4):
    # the two rows at a simple spherical root must sum to the Cartan row
    bad = make_system(
        f4,
        [(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)],
        [],
        [(1, 0, 0), (1, -1, 1)],
    )
    assert any("A2" in v for v in validate(bad))


def test_nonproportional_rejected(f4):
    bad = make_system(f4, [(1, 0, 0, 0), (2, 0, 0, 0)], [], [(1, 2)])
    assert validate(bad) != []


@pytest.mark.parametrize(
    "spec,sigma,sp,rows,message",
    [
        ("B2", [(1, 1), (2, 2)], [1], [],
         "proportional spherical roots a1+a2 and 2a1+2a2"),
        ("A2", [(1, 1)], [0], [], "(S) Sp not compatible with a1+a2"),
        ("A2", [(1, 0), (1, 1)], [], [(1, 2), (1, -1)],
         "(A1) value 2 > 1 in row (1, 2)"),
        ("A3", [(1, 0, 0), (0, 1, 1)], [], [(1, 1), (1, -2)],
         "(A1) value 1 at non-simple root a2+a3 in row (1, 1)"),
        ("A2", [(1, 0)], [], [(1,)], "(A2) A(a1) has 1 elements, expected 2"),
        ("A2", [(0, 1), (1, 0)], [], [(0, 1), (0, 1), (1, 0), (1, -1)],
         "(A2) A(a1) sums to (0, 2), expected (-1, 2)"),
        ("A1xA1", [(1, 0)], [1], [(1,), (1,), (0,)],
         "(A3) row (0,) belongs to no A(alpha)"),
        ("A3", [(2, 0, 0), (0, 1, 1)], [], [],
         "(Sigma1) <a1^vee, a2+a3> = -1 is not a non-positive even integer"),
        ("A3", [(1, 0, 1), (1, 1, 0)], [], [],
         "(Sigma2) <a1^vee,a1+a2> = 1 != <a3^vee,a1+a2> = -1"),
    ],
    ids=["proportional", "S", "A1-value", "A1-non-simple", "A2-count",
         "A2-sum", "A3", "Sigma1", "Sigma2"],
)
def test_validate_message(spec, sigma, sp, rows, message):
    # each system breaks exactly one axiom
    assert validate(make_system(build_root_system(spec), sigma, sp, rows)) == [message]


def test_defect_and_dimension(b4_doubled, f4_example, a4_three_simple):
    assert defect(b4_doubled) == 0
    assert defect(f4_example) == 2
    assert defect(a4_three_simple) == 2
    # full support and no parabolic part: dim = rank + positive roots
    assert dimension(f4_example) == 3 + 24


def test_cuspidality(f4, f4_example):
    assert is_cuspidal(f4_example)
    # support misses a simple root: parabolic induction applies
    assert not is_cuspidal(make_system(f4, [(0, 0, 0, 1)], [], [(1,), (1,)]))


def test_canonical_form_row_order(f4):
    a = make_system(
        f4,
        [(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)],
        [],
        [(1, 0, 0), (1, -1, 0)],
    )
    b = make_system(
        f4,
        [(0, 0, 1, 1), (1, 0, 0, 0), (0, 1, 1, 0)],
        [],
        [(0, 1, -1), (0, 1, 0)],
    )
    assert a == b


def test_localize_sigma(f4, f4_example):
    loc = localize_sigma(f4_example, [(1, 0, 0, 0)])
    assert [s.coeffs for s in loc.sigma] == [(1, 0, 0, 0)]
    assert len(loc.a_rows) == 2
    assert validate(loc) == []


def test_localize_sigma_keeps_only_roots_of_sigma(f4_example):
    with pytest.raises(ValueError, match="^keep_vectors must be a subset of sigma$"):
        localize_sigma(f4_example, [(1, 0, 0, 0), (5, 0, 0, 0)])


def test_make_system_checks_the_row_width(f4):
    with pytest.raises(ValueError,
                       match="^a_rows width must equal the number of spherical roots$"):
        make_system(f4, [(1, 0, 0, 0)], [], [(1,), (1, 0)])


def test_colors_reject_an_odd_pairing_at_a_doubled_simple_root():
    # 2 alpha_1 is in Sigma and <alpha_1^vee, alpha_2> = -1 is odd; the 2a
    # color of alpha_1 takes half of each pairing, so only (Sigma1) fails,
    # and `colors` says why
    a2 = build_root_system("A2")
    sys = make_system(a2, [(2, 0), (0, 1)], [], [(-1, 1), (-1, 1)])
    assert [e[:8] for e in validate(sys)] == ["(Sigma1)"]
    with pytest.raises(ValueError, match="^odd pairing value -1 at a doubled simple root$"):
        colors(sys)


def test_localize_s_support_filter():
    rs = build_root_system("C4")
    sys = make_system(rs, [(1, 0, 0, 1), (0, 1, 1, 0)], [], [])
    assert validate(sys) == []
    loc = localize_s(sys, [1, 2])
    assert loc.rs.name == "A2"
    assert [s.coeffs for s in loc.sigma] == [(1, 1)]


@pytest.mark.parametrize("keep", [[7], [-1], [0, 7]])
def test_localize_s_checks_its_indices(f4_census, keep):
    # [7] gave an A1 with empty Sigma, [-1] localized at the last simple
    # root, and [0, 7] raised IndexError
    with pytest.raises(ValueError, match=r"simple root indices .* outside 0\.\.3"):
        localize_s(f4_census.systems[100], keep)


def _reference_localize_sigma(sys, keep_vectors):
    """Column-by-column localization at a subset of Sigma: the reference."""
    keep = {tuple(v) for v in keep_vectors}
    cols = [i for i, s in enumerate(sys.sigma) if s.coeffs in keep]
    if len(cols) != len(keep):
        raise ValueError("keep_vectors must be a subset of sigma")
    kept_simple_cols = {c for c in cols if sys.sigma[c].height == 1}
    rows = [tuple(r[c] for c in cols) for r in sys.a_rows
            if any(r[c] == 1 for c in kept_simple_cols)]
    return make_system(sys.rs, [sys.sigma[c].coeffs for c in cols], sys.sp, rows)


def _reference_localize_s(sys, s_keep):
    """Localization at a subset of S in one pass: the reference."""
    s_keep = frozenset(s_keep)
    sub, emb = sub_root_system(sys.rs, s_keep)
    cols = [i for i, s in enumerate(sys.sigma)
            if all(s.coeffs[j] == 0 for j in range(sys.rs.rank) if j not in s_keep)]
    kept_simple_cols = {c for c in cols
                        if sys.sigma[c].height == 1
                        and sys.sigma[c].coeffs.index(1) in s_keep}
    rows = [tuple(r[c] for c in cols) for r in sys.a_rows
            if any(r[c] == 1 for c in kept_simple_cols)]
    new_vectors = [tuple(sys.sigma[c].coeffs[j] for j in emb) for c in cols]
    new_sp = [p for p, j in enumerate(emb) if j in sys.sp]
    return make_system(sub, new_vectors, new_sp, rows)


@pytest.mark.parametrize("spec", ["F4", "D4"])
def test_localizations_match_reference(spec):
    for sys in census(spec).systems:
        for k in range(sys.rank + 1):
            for keep in combinations([s.coeffs for s in sys.sigma], k):
                assert emit_system(localize_sigma(sys, keep)) == \
                    emit_system(_reference_localize_sigma(sys, keep))
        for k in range(sys.rs.rank + 1):
            for keep in combinations(range(sys.rs.rank), k):
                assert emit_system(localize_s(sys, keep)) == \
                    emit_system(_reference_localize_s(sys, keep))


@pytest.mark.parametrize("spec", ["F4", "D5", "E6"])
def test_support_is_the_nonzero_coefficients_of_sigma(spec):
    for sys in census(spec).systems:
        assert sys.support() == {i for s in sys.sigma for i, c in enumerate(s.coeffs) if c}


def test_negative_colors(f4, f4_example):
    negs = negative_colors(f4_example)
    assert all(all(v <= 0 for v in c.row) for c, _ in negs)


def test_localization_preserves_validity(f4_census):
    sample = f4_census.systems[:: max(1, len(f4_census.systems) // 40)]
    for sys in sample:
        for i in range(len(sys.sigma)):
            sub = [s.coeffs for j, s in enumerate(sys.sigma) if j != i]
            assert validate(localize_sigma(sys, sub)) == []


def test_equal_systems_share_key_and_hash(a3_census):
    rs = build_root_system("A3")
    sigma = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    rows = [(1, -1, 1), (1, 0, -1), (0, 1, 0), (-1, 1, -1), (-1, 0, 1)]
    sys = make_system(rs, sigma, [], rows)
    # sigma reversed, with the row columns permuted to match and rows reordered
    moved = make_system(rs, sigma[::-1], [], [r[::-1] for r in reversed(rows)])
    parsed = parse_system(emit_system(sys))
    for other in (moved, parsed):
        assert other is not sys
        assert other == sys and other.key() == sys.key() and hash(other) == hash(sys)
    assert {sys: "x"}[moved] == "x"
    # the key is built once per instance
    assert sys.key() is sys.key()
    unequal = [make_system(rs, sigma, [], rows[:-1]),
               make_system(rs, sigma[:2], [], [r[:2] for r in rows[:3]]),
               make_system(rs, [(1, 1, 0)], [2], [])]
    for other in unequal:
        assert other != sys and other.key() != sys.key()
    for a in a3_census.systems:
        same = parse_system(emit_system(a))
        assert same == a and hash(same) == hash(a)
    assert len(set(a3_census.systems)) == len(a3_census.systems)


# sha256 over each census member, in census order, of repr(((kind, owners,
# row) per color, delta_of)), recorded before colors were rebuilt from the
# definition; the rebuild must leave every color, row and owner unchanged
COLOR_DIGESTS = {
    "F4": "3d0c8c622536e6c38e48542546c38462700ff9bcf465daaf4671481c905277b5",
    "D4": "bebe0f3bfc69f5fb808180321f693e203bdae94262359b8a9ce4199cfb673965",
    "B3xA1": "553dce7602e51268aeb3bf9edc4775019de0b54c26652e217f0d8970b44b600b",
    "A1xG2": "fa62335a04d688feb74f7c883ff65c0ef0d6cd30512f26404c7f029f92f4683e",
    "A1xA1xA1xA1": "1ef1129ba15ddb9a816b5a955856e77f5b89d10159462eec5bafae7bf92dd3d3",
    "D5": "24ffa0e750f33850a971d2d181ae749e3b0e69c25c0f3c676a42fbdeb1758750",
    "E6": "e5e78a1b4ea2e204ac524c6ccc3bab19cf9c730337a87f67a7fbd729922507f3",
}
COLOR_TYPES = ["F4", "D4", "B3xA1", "A1xG2", "A1xA1xA1xA1",
               pytest.param("D5", marks=pytest.mark.slow),
               pytest.param("E6", marks=pytest.mark.slow)]


@pytest.mark.parametrize("spec", COLOR_TYPES)
def test_colors_pinned(spec):
    h = hashlib.sha256()
    for sys in census(spec).systems:
        cs = colors(sys)
        h.update(repr((tuple((c.kind, c.owners, c.row) for c in cs.colors),
                       cs.delta_of)).encode())
    assert h.hexdigest() == COLOR_DIGESTS[spec]


@pytest.mark.parametrize("spec", COLOR_TYPES)
def test_orthogonal_sums_pair_off_s_b(spec):
    """What `colors` builds Delta^b on: each simple root lies in at most one
    orthogonal sum alpha + beta of Sigma, and both its ends are in S^b."""
    for sys in census(spec).systems:
        ends = [i for s in sys.sigma if s.shape == "a1xa1" for i in s.support]
        taken = sys.sp | set(sys.simple_sigma())
        taken |= {s.support[0] for s in sys.sigma if s.shape == "2a1"}
        assert len(ends) == len(set(ends))
        assert not taken & set(ends)
