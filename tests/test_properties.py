"""Property tests over generated scenario trees.

Trees are drawn with uneven branching, single-child chains, states from a
small set (so equal states and zero costs are common) and branch weights
that include 1e-9, which leaves branches of probability about 1e-9.  Values
are compared as r-th powers, where the solvers' absolute tolerances apply.

The flat-LP oracle's dense simplex has absolute tolerances of 1e-10 to
1e-8; on 1e-9 branches it can lose feasibility or stop at a wrong vertex,
and then it must raise instead of returning a value.  The node-order
property still draws it without the 1e-9 weights.

The generated trees list their nodes stage by stage; ``interleaved``
(conftest) lists the same tree with siblings spread across the list.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import child_ids, interleaved, leaf_walk, node_map, tree_from_nodes
from nested_sinkhorn import (
    ScenarioTree,
    TreeFormatError,
    flat_nested_lp,
    martingale_check,
    nested_exact,
    nested_sinkhorn,
    verify_entropic_equivalence,
    wasserstein_distance,
)
from nested_sinkhorn.nested import _group_sum
from nested_sinkhorn.sinkhorn import BOUND_SLACK

STATES = [-1.0, 0.0, 0.0, 0.5, 2.0]
WEIGHTS = [1e-9, 0.25, 1.0, 3.0]
ORACLE_WEIGHTS = WEIGHTS[1:]
MAX_LEVEL = 5  # nodes per stage beyond which every node gets one child

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                             suppress_health_check=[HealthCheck.too_slow])


@st.composite
def trees(draw, height, weights=WEIGHTS, max_width=3):
    nodes = [{"id": 0, "parent": None, "state": draw(st.sampled_from(STATES)), "prob": 1.0}]
    level = [0]
    for _ in range(height):
        below = []
        for parent in level:
            width = 1 if len(level) >= MAX_LEVEL else draw(st.integers(1, max_width))
            drawn = draw(st.lists(st.sampled_from(weights), min_size=width, max_size=width))
            for w in drawn:
                below.append(len(nodes))
                nodes.append({"id": len(nodes), "parent": parent,
                              "state": draw(st.sampled_from(STATES)),
                              "prob": w / sum(drawn)})
        level = below
    return tree_from_nodes(nodes)


@st.composite
def tree_pairs(draw, weights=WEIGHTS):
    height = draw(st.integers(1, 3))
    return (draw(trees(height, weights)), draw(trees(height, weights)),
            draw(st.sampled_from([1.0, 2.0])))


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_read_only_bitwise(got, want: list):
    assert not got.flags.writeable
    assert_bitwise(got, np.array(want))


@PROPERTY_SETTINGS
@given(st.integers(0, 5).flatmap(lambda h: st.one_of(trees(h), trees(h, max_width=1))),
       st.booleans())
def test_leaf_arrays_match_the_reference_walk(tree, mix):
    # single-child chains and height 0 included; ``interleaved`` spreads the
    # stages.  Heights up to 5 make the product order show in the last bits.
    if mix:
        tree = interleaved(tree)
    paths, states, probs = leaf_walk(tree)
    assert_bitwise(tree.leaf_probabilities, probs)
    assert_bitwise(tree.leaf_states, states)
    # every stage-index field against the walk, the stages in node order
    nodes, index = node_map(tree), tree.stage_index
    depth = {nid: t for path in paths for t, nid in enumerate(path)}
    stages = [[n.id for n in tree.nodes if depth[n.id] == t] for t in range(tree.height + 1)]
    position = [{nid: k for k, nid in enumerate(stage)} for stage in stages]
    assert [list(pos.items()) for pos in index.position] == [list(p.items()) for p in position]
    assert [list(tree.stage(t)) for t in range(tree.height + 1)] == stages
    assert len(index.children) == tree.height
    assert_bitwise(index.parent[0], np.zeros(0, dtype=int))
    for t, stage in enumerate(stages):
        if t:
            assert_read_only_bitwise(index.parent[t],
                                     [position[t - 1][nodes[nid].parent] for nid in stage])
        assert_read_only_bitwise(index.ancestor[t], [position[t][path[t]] for path in paths])
        assert_read_only_bitwise(index.cond_prob[t], [nodes[nid].cond_prob for nid in stage])
        assert_read_only_bitwise(index.state[t], [nodes[nid].state for nid in stage])
        if t < tree.height:
            kids = [[position[t + 1][c] for c in child_ids(tree, nid)] for nid in stage]
            counts = sorted({len(row) for row in kids})
            assert list(index.children[t]) == counts
            for m in counts:
                group, stack = index.children[t][m]
                assert_read_only_bitwise(group, [k for k, row in enumerate(kids) if len(row) == m])
                assert_read_only_bitwise(stack, [row for row in kids if len(row) == m])


FAULTS = ["duplicate id", "unknown parent", "2-cycle", "nonpositive probability",
          "non-finite state", "second root", "root probability", "sibling sum", "short leaf"]


@pytest.mark.parametrize("fault", FAULTS)
@PROPERTY_SETTINGS
@given(st.integers(2, 4).flatmap(trees), st.data())
def test_one_fault_is_named(fault, tree, data):
    # a valid tree with exactly one fault injected; the generated trees list
    # the root first and number the nodes by their place in the list
    nodes = list(tree.nodes)
    k = data.draw(st.integers(1, len(nodes) - 1))
    node = nodes[k]
    if fault == "duplicate id":
        nodes.insert(data.draw(st.integers(0, len(nodes))), node)
        message = f"duplicate node id {node.id}"
    elif fault == "unknown parent":
        nodes[k] = replace(node, parent=len(nodes))
        message = f"node {node.id} references unknown parent {len(nodes)}"
    elif fault == "2-cycle":
        j = data.draw(st.integers(1, len(nodes) - 1).filter(lambda j: j != k))
        nodes[k], nodes[j] = replace(node, parent=j), replace(nodes[j], parent=k)
        message = "parent links contain a cycle"
    elif fault == "nonpositive probability":
        value = data.draw(st.sampled_from([0.0, math.nan]))
        nodes[k] = replace(node, cond_prob=value)
        message = f"node {node.id} has nonpositive probability {value!r}"
    elif fault == "non-finite state":
        k = data.draw(st.integers(0, len(nodes) - 1))
        value = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        nodes[k] = replace(nodes[k], state=value)
        message = f"node {k} has non-finite state {value!r}"
    elif fault == "second root":
        nodes[k] = replace(node, parent=None, cond_prob=1.0)
        message = "tree must have exactly one root, found 2"
    elif fault == "root probability":
        nodes[0] = replace(nodes[0], cond_prob=0.9)
        message = "root probability must be 1, got 0.9"
    elif fault == "sibling sum":
        nodes[k] = replace(node, cond_prob=node.cond_prob + 1e-9)
        total = math.fsum(n.cond_prob for n in nodes if n.parent == node.parent)
        message = f"children probabilities sum to {total:.10g} under node {node.parent}"
    else:  # a node of the last inner stage loses its children while another keeps its own
        inner = tree.stage(tree.height - 1)
        assume(len(inner) > 1)
        cut = data.draw(st.sampled_from(inner))
        nodes = [n for n in nodes if n.parent != cut]
        message = f"leaves must share one depth, found depths {[tree.height - 1, tree.height]}"
    with pytest.raises(TreeFormatError) as raised:
        ScenarioTree(tuple(nodes))
    assert str(raised.value) == message


@PROPERTY_SETTINGS
@given(tree_pairs())
def test_recursion_matches_flat_lp(pair):
    tree_a, tree_b, r = pair
    try:
        flat_value, _ = flat_nested_lp(tree_a, tree_b, r)
    except RuntimeError as exc:
        assert "smallest leaf probability" in str(exc)
        return
    assert nested_exact(tree_a, tree_b, r).value_pow == pytest.approx(flat_value**r, rel=1e-9,
                                                                      abs=1e-12)


@PROPERTY_SETTINGS
@given(tree_pairs())
def test_nested_dominates_flat_and_is_symmetric(pair):
    tree_a, tree_b, r = pair
    forward = nested_exact(tree_a, tree_b, r).value_pow
    assert forward >= wasserstein_distance(tree_a, tree_b, r) ** r - 1e-12
    backward = nested_exact(tree_b, tree_a, r).value_pow
    assert backward == pytest.approx(forward, rel=1e-12, abs=1e-14)


@PROPERTY_SETTINGS
@given(tree_pairs())
def test_distance_to_itself_is_zero(pair):
    tree, _, r = pair
    assert nested_exact(tree, tree, r).value_pow == pytest.approx(0.0, abs=1e-14)
    assert wasserstein_distance(tree, tree, r) ** r == pytest.approx(0.0, abs=1e-14)


@PROPERTY_SETTINGS
@given(tree_pairs())
def test_exact_stage_duals_certify_every_stage_lp(pair):
    # every stage LP at once, with the duals broadcast over the stage's child pairs
    tree_a, tree_b, r = pair
    res = nested_exact(tree_a, tree_b, r)
    index_a, index_b = tree_a.stage_index, tree_b.stage_index
    later = [table.value for table in res.stage_tables[1:]] + [res.leaf_cost]
    for t, (table, nxt) in enumerate(zip(res.stage_tables, later)):
        parent_a, parent_b = index_a.parent[t + 1], index_b.parent[t + 1]
        eps = 1e-12 * max(1.0, float(np.abs(nxt).max()))
        reduced = nxt - table.dual_row[:, parent_b] - table.dual_col[parent_a, :]
        assert reduced.min() >= -eps  # dual feasibility
        assert np.abs(reduced[table.plan > 0.0]).max() <= eps  # complementary slackness
        dual_value = (_group_sum(index_a.cond_prob[t + 1][:, None] * table.dual_row, parent_a, 0)
                      + _group_sum(index_b.cond_prob[t + 1][None, :] * table.dual_col, parent_b, 1))
        assert np.abs(dual_value - table.value).max() <= eps  # zero duality gap


@PROPERTY_SETTINGS
@given(tree_pairs(), st.sampled_from([1.0, 5.0, 20.0, 100.0]))
def test_sandwich(pair, lam):
    tree_a, tree_b, r = pair
    sink = nested_sinkhorn(tree_a, tree_b, r, lam, tol=1e-12, max_iter=20_000)
    # the bounds hold at the fixed point, which Newton steps reach even where
    # the kernel's large cross ratio stalls the sweeps
    assert sink.converged
    exact = nested_exact(tree_a, tree_b, r).value_pow
    assert sink.value_with_entropy_pow <= exact + BOUND_SLACK
    assert exact <= sink.value_pow + BOUND_SLACK


@PROPERTY_SETTINGS
@given(tree_pairs(ORACLE_WEIGHTS))
def test_node_order_does_not_change_values(pair):
    tree_a, tree_b, r = pair
    mixed_a, mixed_b = interleaved(tree_a), interleaved(tree_b)
    assert nested_exact(mixed_a, mixed_b, r).value_pow == pytest.approx(
        nested_exact(tree_a, tree_b, r).value_pow, rel=0, abs=1e-12)
    assert flat_nested_lp(mixed_a, mixed_b, r)[0] ** r == pytest.approx(
        flat_nested_lp(tree_a, tree_b, r)[0] ** r, rel=0, abs=1e-12)
    sink = nested_sinkhorn(tree_a, tree_b, r, 1.0, tol=1e-12, max_iter=2_000)
    mixed = nested_sinkhorn(mixed_a, mixed_b, r, 1.0, tol=1e-12, max_iter=2_000)
    assert mixed.converged == sink.converged
    assert mixed.value_pow == pytest.approx(sink.value_pow, rel=0, abs=1e-12)
    assert mixed.value_with_entropy_pow == pytest.approx(sink.value_with_entropy_pow,
                                                         rel=0, abs=1e-12)
    if mixed.converged:
        assert verify_entropic_equivalence(mixed).passed
        assert martingale_check(mixed).passed
