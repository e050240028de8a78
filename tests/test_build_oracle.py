"""RootSystem against the Fraction-arithmetic build, and its refusal of broken data."""

import pytest
from rootsystem_oracle import built_fields, fraction_build

from bruhatcap import ConsistencyError, build, rootsystem
from bruhatcap.checks import TABLE_TYPES
from bruhatcap.linalg import vec
from bruhatcap.rootsystem import RootSystem

ORACLE_TYPES = TABLE_TYPES + (("A", 1), ("A", 20), ("B", 7), ("C", 7), ("D", 7), ("D", 8))


@pytest.mark.parametrize("fam,rank", ORACLE_TYPES)
def test_build_matches_fraction_oracle(fam, rank):
    expected = fraction_build(fam, rank)
    got = built_fields(build(fam, rank))
    assert got.keys() == expected.keys()
    for field, value in expected.items():
        # repr compares value, order and type (a Fraction never passes for an int)
        assert repr(got[field]) == repr(value), field


def _tampered(monkeypatch, family, rank, simples):
    real = rootsystem.simple_root_vectors

    def fake(fam, r):
        return [vec(v) for v in simples] if (fam, r) == (family, rank) else real(fam, r)

    monkeypatch.setattr(rootsystem, "simple_root_vectors", fake)


def test_refuses_non_integral_cartan_matrix(monkeypatch):
    # alpha_2 scaled by 2: <alpha_1, coroot(alpha_2)> = 2 (-2) / 8 = -1/2
    _tampered(monkeypatch, "A", 2, [[1, -1, 0], [0, 2, -2]])
    with pytest.raises(ConsistencyError, match="non-integral Cartan"):
        RootSystem("A", 2)


def test_refuses_mixed_sign_roots(monkeypatch):
    # e1 - e2 and e1 - e3 span A2 but are not a base: s_1(alpha_2) = alpha_2 - alpha_1
    _tampered(monkeypatch, "A", 2, [[1, -1, 0], [1, 0, -1]])
    with pytest.raises(ConsistencyError, match="mixed-sign"):
        RootSystem("A", 2)


def test_refuses_a_highest_root_that_is_not_unique(monkeypatch):
    # D4 transcribed with the simple roots of G2 x G2 in R^6: 12 positive roots,
    # as D4 has, but each G2 factor has its own highest root, of height 5
    _tampered(monkeypatch, "D", 4, [[1, -2, 1, 0, 0, 0], [0, 1, -1, 0, 0, 0],
                                    [0, 0, 0, 1, -2, 1], [0, 0, 0, 0, 1, -1]])
    with pytest.raises(ConsistencyError, match="^D4: highest root is not unique$"):
        RootSystem("D", 4)


def test_refuses_wrong_root_count(monkeypatch):
    # D4 transcribed with the B4 last simple root e_4: 16 positive roots, not 12
    _tampered(monkeypatch, "D", 4, [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 1]])
    with pytest.raises(ConsistencyError, match="expected 12"):
        RootSystem("D", 4)

