"""Group operations on an enumerated WeylGroup that only the tests need.

An element is determined by the images of the simple roots, so a product or
an inverse is looked up in `WeylGroup.index` by those images.
"""


def compose(weyl, i: int, j: int) -> int:
    """Index of w_i * w_j (apply w_j first)."""
    pi, pj = weyl.perms[i], weyl.perms[j]
    return weyl.index[tuple(pi[pj[s]] for s in weyl.rs.simple)]


def inverse(weyl, i: int) -> int:
    p = weyl.perms[i]
    return weyl.index[tuple(map(p.index, weyl.rs.simple))]


def inversion_count(weyl, i: int) -> int:
    """|{beta in R+ : w(beta) < 0}|."""
    p = weyl.perms[i]
    pos = weyl.rs.is_positive
    return sum(1 for b in weyl.rs.positive if not pos[p[b]])
