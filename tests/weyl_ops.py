"""Group operations on an enumerated WeylGroup that only the tests need.

The group keeps each element as its key, the images of the simple roots.
These oracles work on whole root permutations instead, composed once per
group along the enumeration tree, and look a product or an inverse up by
the images of the simple roots, in a dict built once per group from
`WeylGroup.keys`.
"""

from functools import cache
from operator import itemgetter


@cache
def root_perms(weyl) -> tuple[tuple[int, ...], ...]:
    """The root permutation of every element: element i = parent * s_g sends
    root k where its parent sends s_g(k).  Parents precede their children in
    the enumeration, so one pass in index order composes them all."""
    rs = weyl.rs
    steps = [itemgetter(*rs.reflection_perm(s)) for s in rs.simple]
    perms = [tuple(range(len(rs.roots)))]
    for parent, g in weyl.parents[1:]:
        perms.append(steps[g](perms[parent]))
    return tuple(perms)


@cache
def key_index(weyl) -> dict[tuple[int, ...], int]:
    """Key -> element index."""
    return {key: i for i, key in enumerate(weyl.keys)}


def compose(weyl, i: int, j: int) -> int:
    """Index of w_i * w_j (apply w_j first)."""
    perms = root_perms(weyl)
    pi, pj = perms[i], perms[j]
    return key_index(weyl)[tuple(pi[pj[s]] for s in weyl.rs.simple)]


def reflection(weyl, a: int) -> int:
    """Index of the reflection s_alpha in root a, looked up by its images of the simple roots."""
    perm = weyl.rs.reflection_perm(a)
    return key_index(weyl)[tuple(perm[s] for s in weyl.rs.simple)]


def simple_elements(weyl) -> list[int]:
    """Index of each simple reflection s_i, in the order of the simple roots."""
    return [reflection(weyl, s) for s in weyl.rs.simple]


def inverse(weyl, i: int) -> int:
    p = root_perms(weyl)[i]
    return key_index(weyl)[tuple(map(p.index, weyl.rs.simple))]


def inversion_count(weyl, i: int) -> int:
    """|{beta in R+ : w(beta) < 0}|."""
    p = root_perms(weyl)[i]
    pos = weyl.rs.is_positive
    return sum(1 for b in weyl.rs.positive if not pos[p[b]])


def product_images(rs, indices) -> list[int]:
    """The images of the simple roots under s_{i_1} s_{i_2} ... s_{i_m}, the
    reflections in the roots of index i_k, composed as whole root permutations."""
    product = tuple(range(len(rs.roots)))
    for i in indices:
        product = tuple(product[k] for k in rs.reflection_perm(i))
    return [product[s] for s in rs.simple]
