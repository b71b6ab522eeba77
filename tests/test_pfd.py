import math
import random
import re

import pytest

from omega_zeta import (DegenerateNodesError, DomainError, PfdResult, PoleError,
                        pfd_coefficients, pfd_residual)


def test_two_nodes():
    result = pfd_coefficients([1.0, 2.0])
    assert result.coefficients == (1.0, -1.0)


def test_three_nodes_explicit():
    result = pfd_coefficients([0.0, 1.0, 3.0])
    mu = result.coefficients
    assert abs(mu[0] - 1 / 3) < 1e-15
    assert abs(mu[1] + 1 / 2) < 1e-15
    assert abs(mu[2] - 1 / 6) < 1e-15
    assert abs(sum(mu)) < 1e-15


def test_result_compares_by_value_and_is_immutable():
    result = pfd_coefficients([1.0, 2.0])
    assert result == PfdResult(((1 + 0j), (2 + 0j)), (1.0, -1.0))
    assert result != pfd_coefficients([1.0, 3.0])
    assert hash(result) == hash(pfd_coefficients([1.0, 2.0]))
    assert repr(result) == ("PfdResult(nodes=((1+0j), (2+0j)),"
                            " coefficients=((1+0j), (-1-0j)))")
    with pytest.raises(AttributeError):
        result.nodes = ()
    with pytest.raises(AttributeError):
        del result.coefficients
    assert result.nodes == ((1 + 0j), (2 + 0j))


def test_single_node():
    assert pfd_coefficients([5.0]).coefficients == (1.0,)


def test_degenerate_nodes_rejected():
    with pytest.raises(DegenerateNodesError):
        pfd_coefficients([1.0, 1.0 + 1e-12])
    # The first coincident pair (i, j), i < j, in row-major order is named.
    for nodes, pair in [([1.0, 2.0, 1.0 + 1e-12], "nodes 0 and 2"),
                        ([0.0, 1.0, 1.0 - 1e-12], "nodes 1 and 2"),
                        ([3.0, 5.0, 5.0, 3.0], "nodes 0 and 3")]:
        with pytest.raises(DegenerateNodesError, match=f"^{pair} coincide within 1e-10$"):
            pfd_coefficients(nodes)


@pytest.mark.parametrize("nodes,message", [
    ([math.nan, 1.0], "node 0 must be a finite number, got nan"),
    ([math.inf, 1.0], "node 0 must be a finite number, got inf"),
    ([1.0, complex(0.0, -math.inf)], "node 1 must be a finite number, got -infj"),
], ids=["nan", "inf", "imag-inf"])
def test_non_finite_node_is_a_domain_error(nodes, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        pfd_coefficients(nodes)


def test_residual_trivial_points():
    assert pfd_residual(pfd_coefficients([1.0, 2.0]), 0.0) < 1e-15
    assert pfd_residual(pfd_coefficients([0.0, 1.0, 3.0]), 1.0) < 1e-14
    with pytest.raises(PoleError):
        pfd_residual(pfd_coefficients([1.0, 2.0]), -1.0)


def _random_nodes(rng, size):
    nodes = []
    while len(nodes) < size:
        cand = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if all(abs(cand - w) >= 0.1 for w in nodes):
            nodes.append(cand)
    return nodes


def test_random_nodes_residual_and_zero_sum():
    rng = random.Random(99)
    for _ in range(50):
        nodes = _random_nodes(rng, rng.randint(2, 10))
        result = pfd_coefficients(nodes)
        mu_max = max(abs(mu) for mu in result.coefficients)
        assert abs(sum(result.coefficients)) < 1e-11 * mu_max
        for _ in range(100):
            x = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if min(abs(x + w) for w in nodes) < 0.05:
                continue
            lhs = 1.0
            for w in nodes:
                lhs /= abs(w + x)
            assert pfd_residual(result, x) < 1e-10 * lhs


def test_permutation_equivariance():
    rng = random.Random(3)
    nodes = _random_nodes(rng, 6)
    order = list(range(6))
    rng.shuffle(order)
    base = pfd_coefficients(nodes).coefficients
    permuted = pfd_coefficients([nodes[i] for i in order]).coefficients
    for k, i in enumerate(order):
        assert abs(permuted[k] - base[i]) <= 1e-12 * abs(base[i])

