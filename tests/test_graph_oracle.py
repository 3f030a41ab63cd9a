"""The graph helpers in ``cfg`` against networkx, used here as an oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from leakcheck import cfg
from leakcheck.cfg import EXIT

nx = pytest.importorskip("networkx")

edge_lists = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                       max_size=3 * n)
)


def _idoms(edges, root):
    """Ours and networkx's immediate dominators, root entries dropped.

    networkx maps the root to itself before 3.6 and omits it from 3.6 on.
    """
    succ: dict[int, list[int]] = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
    g = nx.DiGraph(edges)
    g.add_node(root)
    ours = cfg.immediate_dominators(succ, root)
    theirs = nx.immediate_dominators(g, root)
    assert ours.pop(root) == root
    theirs.pop(root, None)
    return ours, theirs


@given(edge_lists)
@settings(max_examples=300)
def test_immediate_dominators_match_networkx_on_cyclic_graphs(edges):
    ours, theirs = _idoms(edges, 0)
    assert ours == theirs


@given(edge_lists)
@settings(max_examples=300)
def test_immediate_dominators_match_networkx_on_reversed_dags(edges):
    # Orient every edge forward, send sinks to EXIT, then reverse: the
    # postdominator query that bounds branch regions.
    dag = {(min(u, v), max(u, v)) for u, v in edges if u != v}
    nodes = {n for e in edges for n in e}
    dag |= {(n, EXIT) for n in nodes if not any(u == n for u, _ in dag)}
    ours, theirs = _idoms([(v, u) for u, v in dag], EXIT)
    assert ours == theirs


@given(edge_lists)
@settings(max_examples=300)
def test_find_cycle_returns_one_cycle_exactly_when_cyclic(edges):
    cycle = cfg.find_cycle(edges)
    assert (not cycle) == nx.is_directed_acyclic_graph(nx.DiGraph(edges))
    assert len(set(cycle)) == len(cycle)
    for i, u in enumerate(cycle):
        assert (u, cycle[(i + 1) % len(cycle)]) in edges
