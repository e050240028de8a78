"""Graph exports against a payload-tree oracle.

The oracle is the earlier exporter, kept here verbatim in substance: it
builds one dict per vertex and per edge, sorts the edge dicts, and renders
them with `json.dumps(indent=2, sort_keys=True)` or line by line as DOT.
The streamed chunks of `export_chunks`, joined, and `export` must match it
byte for byte in both formats.
"""

import json
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest

from bruhatcap import (
    bruhat_graph,
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
        for u, v, i, j, w in sorted(graph.edges)
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


def _oracle_payload(graph, lam):
    if hasattr(graph, "parabolic"):
        co = graph.weyl.rs.signed_cocoefficients
        edges = ((u, v, a, deg, co(a)) for u, v, a, deg in graph.edges)
        return _oracle_weyl_payload(graph.weyl, graph.parabolic.coset_reps, edges, lam,
                                    kind="bruhat", s_p=list(graph.parabolic.s_p), directed=False)
    if hasattr(graph, "out"):
        edges = ((u, v, a, deg, deg) for u, out in enumerate(graph.out) for v, a, deg in out)
        return _oracle_weyl_payload(graph.weyl, range(len(graph.weyl)), edges, lam,
                                    kind="quantum", directed=True)
    return _oracle_cayley_payload(graph)


def oracle_export(graph, fmt, lam=None):
    payload = _oracle_payload(graph, lam)
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return _oracle_payload_to_dot(payload)


# -- cases -------------------------------------------------------------------------

TYPES = (("A", 3), ("B", 3), ("G", 2))
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
    graph = bruhat_graph(w, w.parabolic(s_p))
    if len(s_p) == rank:
        assert graph.edges == []
    _check(graph, _fractional_weight(rs, s_p) if weighted else None)


@pytest.mark.parametrize("fam,rank", TYPES)
@pytest.mark.parametrize("weight", ["none", "regular", "singular"])
def test_quantum_export_matches_oracle(fam, rank, weight):
    rs = build(fam, rank)
    lam = {"none": None, "regular": _fractional_weight(rs),
           "singular": _fractional_weight(rs, (0,))}[weight]
    _check(quantum_bruhat_graph(generate(rs)), lam)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cayley_export_matches_oracle(n):
    sorted_lam = [Fraction(7, 2) - Fraction(k, 3) - Fraction(k * k, 2) for k in range(n)]
    unsorted_lam = list(reversed(sorted_lam))
    for lam in (sorted_lam, unsorted_lam):
        _check(cayley_graph(n, lam), None)


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
    with pytest.raises(ValidationError, match="dimension"):
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
