"""Named verification checks, shared by the CLI `verify` command and the
acceptance test suite.

Each check is registered by `_check(name)`, which times it and turns what it
does into a CheckResult: the detail it returns passes, and a counterexample
(_Failed) or any BruhatCapError it raises fails it, so one failing check
never stops the others.  All comparisons are exact.  The Weyl-group and
graph modules are imported only by the three checks that run them
(unitary-diameter, postnikov, triangle).

postnikov, type-c-sharp and coweight prove their statement for every input
of their types with a certificate (each check's docstring gives the proof).
type-c-sharp and coweight keep a small seeded sample that exercises the bound
code on random weights, so their `samples` default below the acceptance
requirements; the acceptance suite passes its stated sizes explicitly, and
runs postnikov's sampled random walks itself.  The other sampled checks
default to the acceptance sizes.

Every parameter of a check is keyword-only, and its signature is the one
place that states the check's inputs: run_checks passes the seed to a check
with a `seed` parameter and narrows the default of a `types` parameter.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import wraps
from itertools import chain
from operator import add, le
from typing import NamedTuple

from . import capacity
from .capacity import TABLE_TYPES
from .errors import BruhatCapError, ConsistencyError
from .limits import DEFAULT_CAYLEY_CAP
from .rootsystem import build


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    seconds: float


class _Failed(ConsistencyError):
    """A counterexample to a check's statement; its message is the check's detail."""


ALL_CHECKS = {}  # name -> check, in the order they are defined below


def _check(name: str):
    """Register a check under name.  The registered function takes the check's
    keyword arguments, times the check on perf_counter and returns its
    CheckResult: PASS with the detail the check returns, FAIL with the message
    of a BruhatCapError (a _Failed counterexample included) raised inside it.
    The check itself stays reachable as `__wrapped__`, whose signature
    run_checks reads."""
    def register(check):
        @wraps(check)
        def run(**kwargs) -> CheckResult:
            started = time.perf_counter()
            try:
                passed, detail = True, check(**kwargs)
            except BruhatCapError as exc:
                passed, detail = False, str(exc)
            return CheckResult(name, passed, detail, time.perf_counter() - started)
        ALL_CHECKS[name] = run
        return run
    return register


def _plural(count: int, noun: str) -> str:
    return f"{count} {noun}" if count == 1 else f"{count} {noun}s"


def _weights(types, rng: random.Random, samples: int):
    """Per type in order: build it, decompose w0, then draw `samples` dominant
    weights from rng.  Yields (rs, dec, lam); a caller may draw from rng between
    weights, and the next weight is drawn after it."""
    for fam, rank in types:
        rs = build(fam, rank)
        dec = capacity.w0_decomposition(rs)
        for _ in range(samples):
            yield rs, dec, capacity.random_dominant(rs, rng)


def _partitions(n: int, largest: int | None = None):
    """Every partition of n, as a tuple of nonincreasing parts."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


@_check("unitary-diameter")
def check_unitary_diameter(*, seed: int = 0, ns: range | tuple = range(2, DEFAULT_CAYLEY_CAP + 1),
                           samples: int = 100) -> str:
    """Weighted Cayley diameter equals (1/2) sum |lam_k - lam_{n-k+1}| exactly.

    Per n, `samples` weights with entries in -20..20 are drawn, and then one
    weight per tie pattern, a partition of n laid out in a random order of
    its blocks, so that every frame is searched, rare patterns such as (n)
    included.  The detail counts the weights with a repeated entry:
    cayley_diameter searches those on W_lam \\ S_n / W_lam, over the cached
    frame of their tie pattern whose vertices are the double cosets, and the
    others on all of S_n."""
    from . import graphs

    rng = random.Random(seed)
    sampled = [sorted((rng.randint(-20, 20) for _ in range(n)), reverse=True)
               for n in ns for _ in range(samples)]
    patterns = []
    for n in ns:
        for blocks in _partitions(n):
            blocks = rng.sample(blocks, len(blocks))
            values = sorted(rng.sample(range(-20, 21), len(blocks)), reverse=True)
            patterns.append([v for v, size in zip(values, blocks) for _ in range(size)])
    tied = 0
    for lam in sampled + patterns:
        expected = capacity.unitary_capacity(lam)
        got = graphs.cayley_diameter(len(lam), lam)
        if got != expected:
            raise _Failed(f"n={len(lam)} lambda={lam}: Dijkstra diameter {got} "
                          f"!= formula {expected}")
        tied += len(set(lam)) < len(lam)
    tested = len(sampled) + len(patterns)
    return (f"{tested} weights across n={list(ns)} match exactly, {len(patterns)} of them one "
            f"per tie pattern: {tested - tied} with distinct entries, searched on S_n, and "
            f"{tied} with a repeated entry, on W_lambda\\S_n/W_lambda")


@_check("type-c-sharp")
def check_type_c_sharp(*, seed: int = 0, samples: int = 5,
                       types: tuple = tuple(("C", r) for r in range(2, 7))) -> str:
    """Type C: lower = upper = sum(lambda) exactly, for every dominant weight.

    upper and sum(lambda) are linear in the Dynkin labels c_j, and lower is a
    maximum of linear forms L_m, so lower(sum_j c_j w_j) <= sum_j c_j lower(w_j)
    over the fundamental weights w_j.  Equality at each w_j makes that bound
    upper(lambda); equality at rho = sum_j w_j forces one form L_m to reach
    upper at every w_j, so lower(lambda) >= L_m(lambda) = upper(lambda).  The
    seeded samples then exercise the bounds on random weights."""
    def require_sharp(rs, dec, lam, context: str = "") -> None:
        total = sum(lam, Fraction(0))
        up = capacity.upper_bound(rs, lam, dec)
        low, _ = capacity.lower_bound(rs, lam, dec)
        if not low == up == total:
            raise _Failed(f"{context}{rs.family}{rs.rank} lambda={lam}: "
                          f"lower={low} upper={up} sum={total}")

    for fam, rank in types:
        rs = build(fam, rank)
        dec = capacity.w0_decomposition(rs)
        fundamental = rs.fundamental_weights()
        for lam in fundamental + (tuple(map(sum, zip(*fundamental))),):
            require_sharp(rs, dec, lam, "certificate: ")
    for rs, dec, lam in _weights(types, random.Random(seed), samples):
        require_sharp(rs, dec, lam)
    return (f"sharp on the dominant cone of {_plural(len(types), 'type')}, from the "
            f"fundamental weights and rho; {len(types) * samples} sampled weights agree")


@_check("table")
def check_table(*, seed: int = 0, samples: int = 20, types: tuple = TABLE_TYPES) -> str:
    """Closed-form table rows equal the first-principles bounds exactly."""
    for rs, dec, lam in _weights(types, random.Random(seed), samples):
        lam, closed_low, low, closed_up, up = capacity.table_row(rs, lam, dec)
        if closed_up != up or closed_low != low:
            raise _Failed(f"{rs.family}{rs.rank} lambda={lam}: closed ({closed_low},{closed_up}) "
                          f"vs first-principles ({low},{up})")
    return f"{len(types)} table rows x {samples} dominant weights match exactly"


@_check("height-lemma")
def check_height_lemma(*, types: tuple = TABLE_TYPES) -> str:
    """l(s_alpha) <= 2 ht(coroot(alpha)) - 1 for every positive root, by inversion count."""
    total = 0
    for fam, rank in types:
        rs = build(fam, rank)
        for a in rs.positive:
            refl = rs.reflection_perm(a)
            length = sum(1 for b in rs.positive if not rs.is_positive[refl[b]])
            bound = 2 * rs.coroot_height(a) - 1
            if length > bound:
                raise _Failed(f"{fam}{rank} root {rs.roots[a]}: l(s)={length} > 2ht-1={bound}")
            total += 1
    return f"{total} positive roots across {len(types)} types"


@_check("decompositions")
def check_decompositions(*, types: tuple = TABLE_TYPES) -> str:
    """Transcribed w0 decompositions pass product/orthogonality/length/height checks.

    Each type is validated afresh, past the cache of w0_decomposition, so the
    check validates even after another check in the same process has filled it."""
    detail = f"{_plural(len(types), 'type')} validated"
    for fam, rank in types:
        rs = build(fam, rank)
        t1 = time.perf_counter()
        capacity._validated_decomposition(rs)
        if (fam, rank) == ("E", 8):
            detail += f"; E8 validated in {time.perf_counter() - t1:.3f}s without enumeration"
    return detail


@_check("postnikov")
def check_postnikov(*, types: tuple = (("A", 3), ("B", 3), ("G", 2))) -> str:
    """Shortest-path degree uniqueness over all ordered pairs, and a certificate
    that every path u -> v has a degree at least d_min(u, v) componentwise.

    The certificate is d_min(v, v) = 0 for every v, and
    d_min(u, v) <= deg(u -> x) + d_min(x, v) for every edge u -> x and every v:
    by induction on the length of a path, its degree dominates d_min.  Each
    source's d_min row is one flat tuple, so an edge is checked against all v
    at once."""
    from . import graphs
    from .weyl import generate

    pair_count = 0
    edge_count = 0
    for fam, rank in types:
        weyl = generate(build(fam, rank))
        q = graphs.quantum_bruhat_graph(weyl)
        n = len(weyl)
        dmins: list[list[graphs.Degree]] = []
        for u in range(n):
            try:
                _dist, degs = graphs.d_min_all(q, u)
            except BruhatCapError as exc:
                raise _Failed(f"{fam}{rank} source {u}: {exc}") from None
            dmins.append(degs)
            pair_count += n
        for v, row in enumerate(dmins):
            if row[v] != q.zero:
                raise _Failed(f"{fam}{rank}: d_min({v},{v}) = {row[v]} is not zero")
        rows = [tuple(chain.from_iterable(row)) for row in dmins]
        for u, edges in enumerate(q.out):
            for x, _a, dd in edges:
                if not all(map(le, rows[u], map(add, rows[x], dd * n))):
                    v = next(v for v, (du, dx) in enumerate(zip(dmins[u], dmins[x]))
                             if not graphs.degree_leq(du, graphs.degree_add(dd, dx)))
                    raise _Failed(f"{fam}{rank}: edge {u}->{x} of degree {dd}: d_min({u},{v}) = "
                                  f"{dmins[u][v]} not <= {dd} + d_min({x},{v}) = {dmins[x][v]}")
                edge_count += 1
    return (f"{pair_count} ordered pairs unique; {edge_count} edges certify that every "
            "path dominates d_min")


@_check("triangle")
def check_triangle(*, seed: int = 0, samples: int = 3,
                   types: tuple = (tuple(("A", r) for r in range(1, 5))
                                   + tuple(("B", r) for r in range(2, 5))
                                   + tuple(("C", r) for r in range(2, 5))
                                   + (("D", 3), ("D", 4), ("F", 4), ("G", 2)))) -> str:
    """Per type, w0_degree = d_min(w0, e) by a search of the whole quantum
    Bruhat graph; for regular weights, decomposition sum = Dijkstra min area."""
    from . import graphs
    from .weyl import generate

    rng = random.Random(seed)
    for fam, rank in types:
        rs = build(fam, rank)
        dec = capacity.w0_decomposition(rs)
        weyl = generate(rs)
        try:
            walked = capacity.w0_degree(weyl)
            q = graphs.quantum_bruhat_graph(weyl)
            searched = graphs.d_min(q, weyl.longest_index, weyl.identity_index)[0]
            if walked != searched:
                raise ConsistencyError(f"w0_degree {walked} but d_min(w0, e) = {searched}")
        except ConsistencyError as exc:
            raise _Failed(f"{fam}{rank}: {exc}") from None
        for _ in range(samples):
            lam = capacity.random_dominant(rs, rng, regular=True)
            try:
                capacity.confirm_upper(weyl, lam, capacity.upper_bound(rs, lam, dec))
            except ConsistencyError as exc:
                raise _Failed(f"{fam}{rank} lambda={lam}: {exc}") from None
    return (f"d_min(w0, e) by walk and by search agree on {len(types)} types; "
            f"{len(types) * samples} regular weights agree exactly")


@_check("sandwich")
def check_sandwich(*, seed: int = 0, samples: int = 200, types: tuple = TABLE_TYPES) -> str:
    """(2/3) * upper <= lower <= upper for random dominant weights, all types."""
    for rs, dec, lam in _weights(types, random.Random(seed), samples):
        up = capacity.upper_bound(rs, lam, dec)
        low, _ = capacity.lower_bound(rs, lam, dec)
        if not (0 <= low <= up and 3 * low >= 2 * up):
            raise _Failed(f"{rs.family}{rs.rank} lambda={lam}: lower={low} upper={up}")
    return f"{len(types) * samples} dominant weights satisfy the sandwich"


@_check("coweight")
def check_coweight(*, seed: int = 0, samples: int = 5, types: tuple = TABLE_TYPES) -> str:
    """No coweight xi of the positive cone has an oscillation bound above the
    lower bound, and the dual-basis vertex at the witness root attains it.

    Certificate: per type, the bound at each vertex xi_j equals the j-th
    candidate of lower_bound at every fundamental weight.  Both sides are
    linear in the Dynkin labels, so they agree at every dominant weight, and
    the largest vertex value is the lower bound.  For xi = sum_j c_j xi_j with
    c_j >= 0 the oscillation and m_xi are linear in xi, so the bound at xi is
    the mean of the vertex values weighted by c_j m_{xi_j} >= 0: at most the
    lower bound.  The seeded samples exercise both bounds on random weights
    and coweights."""
    vertices = 0
    for fam, rank in types:
        rs = build(fam, rank)
        dec = capacity.w0_decomposition(rs)
        for i, lam in enumerate(rs.fundamental_weights(), 1):
            sums, dens = capacity.lower_candidates(rs, lam, dec)
            for j, (xi, num, den) in enumerate(zip(rs.dual_basis(), sums, dens), 1):
                vertex = capacity.coweight_oscillation_bound(rs, lam, xi, dec)
                if vertex != Fraction(num, den):
                    raise _Failed(f"{fam}{rank} omega_{i}: vertex {j} value {vertex} != "
                                  f"lower-bound candidate {Fraction(num, den)}")
                vertices += 1
    rng = random.Random(seed)
    for rs, dec, lam in _weights(types, rng, samples):
        low, witness = capacity.lower_bound(rs, lam, dec)
        vertex = capacity.coweight_oscillation_bound(rs, lam, rs.dual_basis()[witness], dec)
        if vertex != low:
            raise _Failed(f"{rs.family}{rs.rank} lambda={lam}: vertex value {vertex} "
                          f"!= lower bound {low}")
        xi = capacity.random_positive_coweight(rs, rng)
        value = capacity.coweight_oscillation_bound(rs, lam, xi, dec)
        if value > low:
            raise _Failed(f"{rs.family}{rs.rank} lambda={lam} xi={xi}: "
                          f"oscillation bound {value} > lower {low}")
    return (f"{vertices} vertex values equal the lower-bound candidates on the fundamental "
            f"weights of {_plural(len(types), 'type')}; {len(types) * samples} sampled "
            "(weight, coweight) pairs agree")


def run_checks(names=None, seed: int = 0, type_filter: str | None = None,
               rank_filter: int | None = None) -> list[CheckResult]:
    """Run the named checks, each once in the order first named (all when names
    is None, none when it is empty), with optional type/rank filters.

    The filters narrow the default `types` of each check's signature.  A check left with no
    type is skipped, unless `names` names it: then the filter is an error, and
    so it is when no check that takes types keeps one, or when the filter
    matches no type of any check.  Every error is raised before a check runs."""
    named = names is not None
    names = dict.fromkeys(names if named else ALL_CHECKS)  # each once, in order
    for name in names:
        if name not in ALL_CHECKS:
            raise BruhatCapError(f"unknown check {name!r}; available: {', '.join(ALL_CHECKS)}")
    filtering = bool(type_filter) or rank_filter is not None

    def narrowed(fn) -> tuple:
        return tuple((f, r) for f, r in fn.__wrapped__.__kwdefaults__.get("types", ())
                     if (not type_filter or f == type_filter.upper())
                     and (rank_filter is None or r == rank_filter))

    calls, unmatched = [], []
    for name in names:
        fn = ALL_CHECKS[name]
        defaults = fn.__wrapped__.__kwdefaults__
        kwargs = {"seed": seed} if "seed" in defaults else {}
        if filtering and "types" in defaults:
            kwargs["types"] = narrowed(fn)
            if not kwargs["types"]:
                unmatched.append(name)
                continue
        calls.append((fn, kwargs))
    no_match = f"no types match filter {type_filter}/{rank_filter}"
    if unmatched and (named or not any("types" in kw for _fn, kw in calls)):
        raise BruhatCapError(f"check {unmatched[0]!r}: {no_match}")
    if filtering and not any(map(narrowed, ALL_CHECKS.values())):
        raise BruhatCapError(no_match)
    return [fn(**kwargs) for fn, kwargs in calls]
