"""Graph exports and edge lists against materialising oracles.

The oracle is the earlier exporter, kept here verbatim in substance.  It
builds every edge with the earlier materialising loops (root by root over
the reflection tables, or swap by swap over the Cayley frame), then one dict
per vertex and per edge, sorts the edge dicts, and renders them with
`json.dumps(indent=2, sort_keys=True)` or line by line as DOT; vertex labels
come from `WeylGroup.word_label`, which walks each element back to the
identity.  The streamed chunks of `export_chunks`, joined, and `export` must
match it byte for byte in both formats, and the graphs' own edge lists
(`BruhatGraph.edges`, `QuantumBruhatGraph.out`, `WeightedCayleyGraph.edges`),
built by the graphs' per-vertex reader, must equal the oracle's.
"""

import json
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest

from bruhatcap import (
    bruhat_graph,
    graphs,
    build,
    cayley_graph,
    dominant_from_pairings,
    export,
    export_chunks,
    generate,
    min_path_area,
    quantum_bruhat_graph,
)
from bruhatcap.errors import ValidationError
from bruhatcap.rootsystem import rational_str, vector_strs

# -- the oracle --------------------------------------------------------------------


def _oracle_weyl_payload(weyl, reps, edges, lam, **head):
    rs = weyl.rs
    order = sorted(range(len(reps)), key=lambda c: (weyl.lengths[reps[c]], reps[c]))
    pos = {c: i for i, c in enumerate(order)}
    vertices = [
        {"id": i, "label": weyl.word_label(reps[c]), "length": weyl.lengths[reps[c]]}
        for i, c in enumerate(order)
    ]
    if lam is not None:
        labels, scale = rs.scaled_labels(lam)
    rows = []
    for u, v, a, deg, area_deg in edges:
        e = {"u": pos[u], "v": pos[v], "root": vector_strs(rs.roots[a]), "degree": list(deg)}
        if lam is not None:
            e["area"] = rational_str(Fraction(sum(map(mul, area_deg, labels)), scale))
        rows.append(e)
    rows.sort(key=lambda e: (e["u"], e["v"], e["root"], e["degree"]))
    return {"family": rs.family, "rank": rs.rank, **head, "vertices": vertices, "edges": rows}


def _oracle_cayley_payload(graph):
    vertices = [{"id": i, "label": "".join(map(str, p))} for i, p in enumerate(graph.perms)]
    edges = [
        {"u": u, "v": v, "swap": [i + 1, j + 1], "weight": rational_str(w)}
        for u, v, i, j, w in oracle_cayley_edges(graph)
    ]
    return {
        "kind": "cayley",
        "n": graph.n,
        "lambda": vector_strs(graph.lam),
        "directed": False,
        "vertices": vertices,
        "edges": edges,
    }


def _oracle_payload_to_dot(payload):
    directed = payload["directed"]
    name = payload["kind"]
    arrow = "->" if directed else "--"
    lines = [("digraph " if directed else "graph ") + name + " {"]
    labels = {v["id"]: v["label"] for v in payload["vertices"]}
    for v in payload["vertices"]:
        lines.append(f'  "{v["label"]}";')
    for e in payload["edges"]:
        if "root" in e:
            parts = ["(" + ",".join(e["root"]) + ")",
                     "(" + ",".join(map(str, e["degree"])) + ")"]
            if "area" in e:
                parts.append(e["area"])
        else:
            parts = ["(" + ",".join(map(str, e["swap"])) + ")", e["weight"]]
        label = " / ".join(parts)
        lines.append(f'  "{labels[e["u"]]}" {arrow} "{labels[e["v"]]}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def oracle_bruhat_edges(weyl, pd):
    """(u, v, root index, degree over S - S_P), u < v, sorted: root by root, every coset."""
    rs = weyl.rs
    edges = []
    for a in rs.positive:
        if not any(rs.root_coefficients(a)[k] for k in pd.free_simple):
            continue  # a root of R+_P
        cocoeff = rs.coroot_coefficients(a)
        degree = tuple(cocoeff[k] for k in pd.free_simple)
        table = weyl.reflection_table(a)
        for cu, rep in enumerate(pd.coset_reps):
            cv = pd.coset_of[table[rep]]
            if cv > cu:
                edges.append((cu, cv, a, degree))
    edges.sort()
    return edges


def oracle_quantum_out(weyl):
    """Per u, (v, root index, degree) in root order: root by root, every element."""
    rs = weyl.rs
    zero = (0,) * rs.rank
    lengths = weyl.lengths
    out = [[] for _ in range(len(weyl))]
    for a in rs.positive:
        down = 1 - 2 * rs.coroot_height(a)
        degree = rs.coroot_coefficients(a)
        for v, lu, row in zip(weyl.reflection_table(a), lengths, out):
            step = lengths[v] - lu
            if step == 1:
                row.append((v, a, zero))
            elif step == down:
                row.append((v, a, degree))
    return out


def oracle_cayley_edges(graph):
    """(u, v, i, j, |lam_i - lam_j|), u < v, vertex by vertex over the Cayley frame."""
    _n_vertices, swaps, columns = graphs._cayley_frame(graph.n, (1,) * graph.n)
    lam = graph.lam
    return sorted((u, v, i, j, abs(lam[i] - lam[j]))
                  for u, row in enumerate(zip(*columns))
                  for v, (i, j) in zip(row, swaps) if v > u)


def _oracle_payload(graph, lam):
    if hasattr(graph, "parabolic"):
        co = graph.weyl.rs.coroot_coefficients
        edges = ((u, v, a, deg, co(a)) for u, v, a, deg in oracle_bruhat_edges(graph.weyl, graph.parabolic))
        return _oracle_weyl_payload(graph.weyl, graph.parabolic.coset_reps, edges, lam,
                                    kind="bruhat", s_p=list(graph.parabolic.s_p), directed=False)
    if isinstance(graph, graphs.QuantumBruhatGraph):
        edges = ((u, v, a, deg, deg) for u, out in enumerate(oracle_quantum_out(graph.weyl))
                 for v, a, deg in out)
        return _oracle_weyl_payload(graph.weyl, range(len(graph.weyl)), edges, lam,
                                    kind="quantum", directed=True)
    return _oracle_cayley_payload(graph)


def oracle_export(graph, fmt, lam=None):
    payload = _oracle_payload(graph, lam)
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return _oracle_payload_to_dot(payload)


# -- cases -------------------------------------------------------------------------

# Every S_P of these types is exported; the quantum graph of each as well.
TYPES = (("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2))
# Dynkin labels off S_P cycle through these: denominators 2 and 3, so the
# areas of one graph mix halves, thirds and sixths.
FRACTIONAL_LABELS = (Fraction(1, 2), Fraction(2, 3), Fraction(7, 6), Fraction(5, 2))


def _fractional_weight(rs, s_p=()):
    labels = [0 if k in s_p else FRACTIONAL_LABELS[k % len(FRACTIONAL_LABELS)]
              for k in range(rs.rank)]
    return dominant_from_pairings(rs, labels)


def _bruhat_cases():
    for fam, rank in TYPES:
        for size in range(rank + 1):  # the full flag first, S_P = S (no edges) last
            for s_p in combinations(range(rank), size):
                for weighted in (False, True):
                    yield pytest.param(fam, rank, s_p, weighted,
                                       id=f"{fam}{rank}-sp{''.join(map(str, s_p))}-"
                                          + ("lam" if weighted else "nolam"))


def _check(graph, lam):
    for fmt in ("json", "dot"):
        expected = oracle_export(graph, fmt, lam)
        assert "".join(export_chunks(graph, fmt, lam=lam)) == expected
        assert export(graph, fmt, lam=lam) == expected


@pytest.mark.parametrize("fam,rank,s_p,weighted", list(_bruhat_cases()))
def test_bruhat_export_matches_oracle(fam, rank, s_p, weighted):
    rs = build(fam, rank)
    w = generate(rs)
    pd = w.parabolic(s_p)
    graph = bruhat_graph(w, pd)
    _check(graph, _fractional_weight(rs, s_p) if weighted else None)
    assert "edges" not in vars(graph)  # the export reads the tables, not the edge list
    assert graph.edges == oracle_bruhat_edges(w, pd)
    if len(s_p) == rank:
        assert graph.edges == []


@pytest.mark.parametrize("fam,rank", TYPES)
@pytest.mark.parametrize("weight", ["none", "regular", "singular"])
def test_quantum_export_matches_oracle(fam, rank, weight):
    rs = build(fam, rank)
    w = generate(rs)
    lam = {"none": None, "regular": _fractional_weight(rs),
           "singular": _fractional_weight(rs, (0,))}[weight]
    graph = quantum_bruhat_graph(w)
    _check(graph, lam)
    assert "out" not in vars(graph)
    # In root order: `verify postnikov` and the tests' random walks read out[u] in this order.
    assert graph.out == oracle_quantum_out(w)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cayley_export_matches_oracle(n):
    sorted_lam = [Fraction(7, 2) - Fraction(k, 3) - Fraction(k * k, 2) for k in range(n)]
    unsorted_lam = list(reversed(sorted_lam))
    for lam in (sorted_lam, unsorted_lam):
        graph = cayley_graph(n, lam)
        _check(graph, None)
        assert "edges" not in vars(graph)
        assert graph.edges == oracle_cayley_edges(graph)


def test_word_labels_are_the_word_labels():
    for fam, rank in TYPES:
        w = generate(build(fam, rank))
        assert w.word_labels() == [w.word_label(i) for i in range(len(w))]


def test_empty_edge_list_renders_as_json_does():
    w = generate(build("A", 2))
    text = export(bruhat_graph(w, w.parabolic((0, 1))), "json")
    assert '"edges": [],' in text
    assert '"s_p": [\n    0,\n    1\n  ],' in text


def test_export_chunks_checks_arguments_before_streaming():
    w = generate(build("A", 2))
    with pytest.raises(ValidationError, match="unknown export format"):
        export_chunks(bruhat_graph(w), "xml")
    with pytest.raises(ValidationError, match="cannot export"):
        export_chunks(w, "json")
    with pytest.raises(ValidationError, match="lambda has 2 coordinates; A2 needs 3"):
        export_chunks(quantum_bruhat_graph(w), "json", lam=(Fraction(1), Fraction(0)))


@pytest.mark.parametrize("kind,s_p,lam,match", [
    # nonzero on S_P: an edge's area would depend on the coset representative
    pytest.param("bruhat", (0,), (2, 1, 0), "S_P", id="bruhat-nonzero-on-S_P"),
    pytest.param("bruhat", (), (0, 1, 2), "not dominant", id="bruhat-negative-label"),
    pytest.param("quantum", (), (0, 1, 2), "not dominant", id="quantum-negative-label"),
])
def test_export_refuses_a_weight_min_path_area_refuses(kind, s_p, lam, match):
    w = generate(build("A", 2))
    pd = w.parabolic(s_p)
    lam = tuple(map(Fraction, lam))
    graph = bruhat_graph(w, pd) if kind == "bruhat" else quantum_bruhat_graph(w)
    for fmt in ("json", "dot"):
        with pytest.raises(ValidationError, match=match):
            export_chunks(graph, fmt, lam=lam)
        with pytest.raises(ValidationError, match=match):
            export(graph, fmt, lam=lam)
    with pytest.raises(ValidationError, match=match):
        min_path_area(pd, lam, 0, pd.n_cosets - 1)
