"""Property tests over generated scenario trees.

Trees are drawn with uneven branching, single-child chains, states from a
small set (so equal states and zero costs are common) and branch weights
that include 1e-9, which leaves branches of probability about 1e-9.  Values
are compared as r-th powers, where the solvers' absolute tolerances apply.

The flat-LP oracle is drawn without the 1e-9 weights: its dense simplex
has absolute tolerances of 1e-10 to 1e-8, and on such branches it can
report a wrong value or lose feasibility.

The generated trees list their nodes stage by stage; ``interleaved``
(conftest) lists the same tree with siblings spread across the list.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import interleaved, tree_from_nodes
from nested_sinkhorn import (
    flat_nested_lp,
    martingale_check,
    nested_exact,
    nested_sinkhorn,
    verify_entropic_equivalence,
    wasserstein_distance,
)
from nested_sinkhorn.sinkhorn import BOUND_SLACK

STATES = [-1.0, 0.0, 0.0, 0.5, 2.0]
WEIGHTS = [1e-9, 0.25, 1.0, 3.0]
ORACLE_WEIGHTS = WEIGHTS[1:]
MAX_LEVEL = 5  # nodes per stage beyond which every node gets one child

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                             suppress_health_check=[HealthCheck.too_slow])


@st.composite
def trees(draw, height, weights=WEIGHTS):
    nodes = [{"id": 0, "parent": None, "state": draw(st.sampled_from(STATES)), "prob": 1.0}]
    level = [0]
    for _ in range(height):
        below = []
        for parent in level:
            width = 1 if len(level) >= MAX_LEVEL else draw(st.integers(1, 3))
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


@PROPERTY_SETTINGS
@given(tree_pairs(ORACLE_WEIGHTS))
def test_recursion_matches_flat_lp(pair):
    tree_a, tree_b, r = pair
    flat_value, _ = flat_nested_lp(tree_a, tree_b, r)
    assert nested_exact(tree_a, tree_b, r).value_pow == pytest.approx(flat_value**r, abs=1e-8)


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
@given(tree_pairs(), st.sampled_from([1.0, 5.0]))
def test_sandwich(pair, lam):
    tree_a, tree_b, r = pair
    sink = nested_sinkhorn(tree_a, tree_b, r, lam, tol=1e-12, max_iter=20_000)
    # the bounds hold at the fixed point; a subproblem whose kernel has a
    # large cross ratio can need far more sweeps than any cap, and then
    # reports itself unconverged
    assume(sink.converged)
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
        assert verify_entropic_equivalence(mixed_a, mixed_b, r, 1.0, mixed).passed
        assert martingale_check(mixed).passed
