"""Every public callable reads its index, count and vector arguments at one
boundary: an index or count by limits.read_count, a vector by linalg.vec and,
where it lives in a root system's space, one dimension check.

The cases are enumerated, not listed: every callable of bruhatcap.__all__ and
every public method of RootSystem, WeylGroup and the three graph classes.
Each is called on A2 with valid arguments but one hostile value in one index,
count or vector parameter, and must answer or raise a BruhatCapError within
BUDGET_S, and never answer for a bool or a negative int.  A parameter that
takes a root system, a group, a graph, a decomposition or an option is given
a valid one.  A new parameter name must be classified below before the
enumeration runs.
"""

import inspect
import random
import time
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import bruhatcap
from bruhatcap import BruhatCapError
from bruhatcap.graphs import BruhatGraph, QuantumBruhatGraph, WeightedCayleyGraph
from bruhatcap.rootsystem import RootSystem
from bruhatcap.weyl import WeylGroup

BUDGET_S = 2.0
CLASSES = (RootSystem, WeylGroup, BruhatGraph, QuantumBruhatGraph, WeightedCayleyGraph)

# The parameters that get hostile values: the counts and indices that limits.read_count
# reads (ranks, caps, n, vertices, element, root and simple positions; RootSystem.find's
# v is a vector) and the vectors that linalg.vec reads (an S_P entry by entry).
HOSTILE_PARAMS = {"rank", "cap", "confirm_cap", "group_cap", "n", "src", "dst", "u", "v", "i", "root_idx",
                  "k", "lam", "xi", "coeffs", "t", "s_p"}
# The parameters that get valid objects.
OBJECTS = {"self", "family", "rs", "weyl", "parabolic", "dec", "graph", "rng", "regular", "fmt"}

RS = bruhatcap.build("A", 2)
WEYL = bruhatcap.generate(RS)
GRAPHS = {
    BruhatGraph: bruhatcap.bruhat_graph(WEYL),
    QuantumBruhatGraph: bruhatcap.quantum_bruhat_graph(WEYL),
    WeightedCayleyGraph: bruhatcap.cayley_graph(3, (2, 1, 0)),
}
VALID = {
    "family": "A", "rank": 2, "rs": RS, "weyl": WEYL, "parabolic": WEYL.parabolic(()),
    "dec": bruhatcap.w0_decomposition(RS), "rng": random.Random(0), "regular": False, "fmt": "json",
    "graph": GRAPHS[QuantumBruhatGraph], "lam": (2, 1, 0), "xi": RS.dual_basis()[0], "coeffs": (1, 1),
    "t": (2, 1, 0), "s_p": (), "cap": 100, "confirm_cap": 100, "group_cap": 100, "n": 3,
    "src": 0, "dst": 5, "u": 0, "v": 5, "i": RS.positive[0], "root_idx": RS.positive[-1], "k": 1,
}
# Where a name alone does not fix the value: RootSystem.find's v is a vector, the
# Cayley readers take a Cayley graph, and an export takes no weight for one.
OVERRIDES = {
    "RootSystem.find": {"v": RS.roots[0]},
    "cayley_distances": {"graph": GRAPHS[WeightedCayleyGraph]},
    "export": {"graph": GRAPHS[BruhatGraph]},
    "export_chunks": {"graph": GRAPHS[BruhatGraph]},
}


def _public_callables():
    """bruhatcap.__all__ but its constant and its exception classes, and the public
    methods of CLASSES."""
    for name in bruhatcap.__all__:
        value = getattr(bruhatcap, name)
        if callable(value) and not (isinstance(value, type) and issubclass(value, BaseException)):
            yield name, value
    for cls in CLASSES:
        for name, value in vars(cls).items():
            if not name.startswith("_") and inspect.isfunction(value):
                yield f"{cls.__name__}.{name}", value


def _cases():
    for qualname, fn in _public_callables():
        params = inspect.signature(fn).parameters
        unknown = set(params) - HOSTILE_PARAMS - OBJECTS
        assert not unknown, f"{qualname}: classify {sorted(unknown)}"
        hostile = [p for p in params if p in HOSTILE_PARAMS]
        yield from ((qualname, fn, p) for p in hostile or [None])


CASES = list(_cases())


def _call(qualname, fn, param, value):
    owner = qualname.partition(".")[0]
    kwargs = {}
    for p in inspect.signature(fn).parameters:
        if p == "self":
            kwargs[p] = {"RootSystem": RS, "WeylGroup": WEYL}.get(owner) or next(
                g for cls, g in GRAPHS.items() if cls.__name__ == owner)
        else:
            kwargs[p] = value if p == param else OVERRIDES.get(qualname, {}).get(p, VALID[p])
    return fn(**kwargs)


HOSTILE = st.one_of(
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=4),
    st.none(),
    st.text(max_size=4),
    st.booleans(),
    st.integers(max_value=-1),
    st.integers(min_value=10**6, max_value=10**18),
    st.lists(st.integers(-3, 3), max_size=2),
    st.lists(st.decimals(allow_nan=True, allow_infinity=True), min_size=1, max_size=4),
    st.lists(st.lists(st.integers(-3, 3), max_size=2), min_size=1, max_size=3),
)


def test_the_enumeration_reaches_the_methods():
    named = {qualname for qualname, _fn, _p in CASES}
    assert {"hz_bounds", "WeightedCayleyGraph", "RootSystem.coroot", "RootSystem.find",
            "WeylGroup.word", "WeylGroup.reflection_table", "WeylGroup.double_cosets"} <= named


@pytest.mark.parametrize("qualname,fn,param", CASES,
                         ids=[f"{q}-{p}" if p else q for q, _fn, p in CASES])
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=HOSTILE)
@example(value=[0.5, 0, 0])
@example(value=None)
@example(value="0")
@example(value=True)
@example(value=-1)
@example(value=10**6)
@example(value=[1])
@example(value=[Decimal("1e100000"), 0, 0])
@example(value=[[1], [0], [0]])
def test_a_hostile_argument_is_answered_or_refused_by_name(qualname, fn, param, value):
    # Before the methods read their arguments, 97 of 144 such calls on A2 escaped
    # as a bare TypeError, IndexError or AttributeError, and 18 answered for -1 or
    # True with another root's or element's data.
    start = time.perf_counter()
    try:
        _call(qualname, fn, param, value)
    except BruhatCapError:
        pass
    else:
        refused_kind = param is not None and (isinstance(value, bool) or isinstance(value, int) and value < 0)
        assert not refused_kind, f"{qualname} answered for {param}={value!r}"
    assert time.perf_counter() - start < BUDGET_S
