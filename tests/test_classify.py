"""Tests for fingerprints, the isomorphism decision and the dichotomy scans."""

import pytest

from mystica.classify import (
    GridReport,
    fingerprint,
    isomorphic,
    regular_singular,
    singular_list,
    thick_atlas,
    verify_classification_grid,
    verify_not_iso_grid,
    z_power_obstruction,
)
from mystica.groups import CapExceededError, make_gmpn, make_w
from mystica.mystic import mu_group


def test_fingerprint_examples():
    fp = fingerprint(make_gmpn(2, 2, 2))
    assert fp.order_histogram == ((1, 1), (2, 3))
    fp = fingerprint(mu_group(make_gmpn(2, 2, 2)))
    assert fp.order_histogram == ((1, 1), (2, 1), (4, 2))


def test_fingerprint_equal_for_isomorphic_groups():
    assert fingerprint(make_gmpn(2, 2, 3)) == fingerprint(make_gmpn(1, 1, 4))
    assert fingerprint(make_gmpn(2, 2, 2)) != fingerprint(make_w(2, 1, 2))


def test_isomorphic_examples():
    G = make_gmpn(2, 2, 2)
    assert not isomorphic(G, mu_group(G))
    assert isomorphic(make_gmpn(2, 2, 3), make_gmpn(1, 1, 4))
    assert isomorphic(G, G)


def test_isomorphic_respects_cap():
    with pytest.raises(CapExceededError):
        isomorphic(make_gmpn(4, 1, 3), make_gmpn(4, 1, 3), cap=100)


def test_isomorphic_on_same_order_nonisomorphic_pairs():
    # Klein four vs cyclic four
    assert not isomorphic(make_gmpn(2, 2, 2), make_w(2, 1, 2))
    # dihedral vs quaternion of order 8
    assert not isomorphic(make_gmpn(2, 1, 2), make_w(4, 1, 2))
    # two groups of order 96 that are counterparts of each other (rank 3, odd)
    assert isomorphic(make_gmpn(4, 4, 3), make_w(4, 1, 3))


def test_dihedral_coincidence_across_levels():
    # two monomial realizations of the dihedral group of order 8
    assert isomorphic(make_gmpn(4, 4, 2), make_gmpn(2, 1, 2))
    # and of the symmetric group on three letters, at different ranks
    assert isomorphic(make_gmpn(3, 3, 2), make_gmpn(1, 1, 3))


def test_regular_singular_examples():
    assert regular_singular(make_gmpn(2, 1, 2)).status == "singular"
    assert regular_singular(make_gmpn(1, 1, 5)).status == "regular"
    assert regular_singular(mu_group(make_gmpn(2, 2, 2))).status == "singular"
    assert regular_singular(make_gmpn(2, 1, 3)).status == "regular"
    report = regular_singular(make_gmpn(2, 2, 2))
    assert report.status == "singular"
    # any normal abelian subgroup distinct from the torus part that reaches
    # its order witnesses singularity; in the Klein four-group {1, s_1} does
    assert report.witness is not None
    assert report.witness.order >= report.torus_order
    assert frozenset(report.witness.elements) != frozenset(
        make_gmpn(2, 2, 2).torus_elements()
    )


def test_singular_witnesses_verify_element_by_element():
    # the lattice machinery's witnesses hold up under direct checks, for all
    # six singular groups beyond the expected list
    from mystica.groups import enumerate_thick

    extras = [
        make_gmpn(2, 2, 4),
        make_gmpn(3, 3, 3),
        make_gmpn(4, 2, 2),
        make_gmpn(4, 4, 2),
        make_w(4, 1, 2),
        next(g for g in enumerate_thick(4, 2) if g.tag.kind == "generated"),
    ]
    for G in extras:
        rep = regular_singular(G)
        assert rep.status == "singular", G
        S = rep.witness.element_set()
        torus = frozenset(G.torus_elements())
        assert all(a * b in S for a in S for b in S)
        assert all(a * b == b * a for a in S for b in S)
        assert all(g * x * g.inverse() in S for g in G for x in S)
        assert S != torus and len(S) >= len(torus)


def test_power_obstruction_examples():
    rep = z_power_obstruction(2, 2, 2)
    assert rep.passed
    assert rep.exponent == 2
    rep = z_power_obstruction(2, 2, 4)
    assert rep.passed


def test_power_obstruction_mechanism_fails_for_singular_pair():
    # at (4,4,2) both the group and its counterpart are singular (dihedral
    # and quaternion of order eight); the scalar involution is a square on
    # BOTH sides, so the power obstruction cannot separate them, yet they
    # are still non-isomorphic
    rep = z_power_obstruction(4, 4, 2)
    assert rep.central_in_counterpart_powers
    assert rep.central_involutions_of_group_in_powers  # mechanism breaks
    G = make_gmpn(4, 4, 2)
    assert not isomorphic(G, mu_group(G))


def test_not_iso_grid_matches_parity_everywhere():
    report = verify_not_iso_grid(4, 4)
    assert report.passed
    cells = {tuple(e.params.values()): (e.predicted, e.computed) for e in report.entries}
    assert cells[(2, 2, 2)] == (False, False)
    assert cells[(2, 2, 3)] == (True, True)
    assert cells[(4, 2, 2)] == (True, True)  # m/p even: same subgroup
    assert cells[(2, 2, 4)] == (False, False)


def test_classification_grid_structure():
    report = verify_classification_grid(2, 4, 2)
    assert isinstance(report, GridReport)
    assert report.passed  # no defects below level 3
    labels = {(e.params["left"], e.params["right"]) for e in report.entries}
    assert ("G(2,2,3)", "G(1,1,4)") in labels
    assert ("W(2,1,3)", "G(1,1,4)") in labels


def test_classification_grid_finds_known_coincidences():
    report = verify_classification_grid(4, 4, 2)
    computed_iso = {
        frozenset((e.params["left"], e.params["right"]))
        for e in report.entries
        if e.computed
    }
    assert frozenset(("G(2,2,3)", "W(2,1,3)")) in computed_iso
    assert frozenset(("G(2,2,3)", "G(1,1,4)")) in computed_iso
    assert frozenset(("G(4,4,3)", "W(4,1,3)")) in computed_iso
    # the two coincidences outside the predicted characterization
    mismatch_pairs = {
        frozenset((e.params["left"], e.params["right"])) for e in report.mismatches
    }
    assert mismatch_pairs == {
        frozenset(("G(2,1,2)", "G(4,4,2)")),
        frozenset(("G(3,3,2)", "G(1,1,3)")),
    }


def test_singular_list_level_two():
    # at level m <= 2 the six known singular groups appear, plus the
    # rank-four group whose Klein-times-center subgroup ties the torus order
    found = {r.group for r in singular_list(2, 4)}
    assert found == {
        "G(1,1,2)",
        "G(1,1,3)",
        "G(1,1,4)",
        "G(2,1,2)",
        "G(2,2,2)",
        "W(2,1,2)",
        "G(2,2,4)",
    }


def test_thick_atlas_dedupes_repeated_subgroups():
    atlas = thick_atlas(2, 2)
    labels = [g.tag.label for g in atlas]
    assert labels == ["G(1,1,2)", "G(2,2,2)", "W(2,1,2)", "G(2,1,2)"]


def test_thick_atlas_reads_the_group_size_cap(monkeypatch):
    # G(3,1,3) has order 162 and G(2,1,3) order 48: a cap of 100 drops the
    # level-3 rank-3 thick subgroups and keeps the rest of the atlas
    full = [T.tag.label for T in thick_atlas(3, 3)]
    monkeypatch.setenv("MYSTICA_CAP", "100")
    narrowed = [T.tag.label for T in thick_atlas(3, 3)]
    assert "G(3,1,3)" in full and "G(3,3,3)" in full
    assert narrowed == [label for label in full if label not in ("G(3,1,3)", "G(3,3,3)")]
