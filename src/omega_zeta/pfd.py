"""Finite homogeneous partial fraction decomposition.

For distinct nodes a_1..a_n,

    prod_i 1/(a_i + x) = sum_i mu_i/(a_i + x),
    mu_i = prod_{j != i} 1/(a_j - a_i),

and the coefficients sum to zero for n >= 2.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DegenerateNodesError, DomainError, PoleError, _check_complex, _shown

__all__ = ["PfdResult", "pfd_coefficients", "pfd_residual"]

_SEPARATION_TOL = 1e-10

PfdResult = namedtuple("PfdResult", "nodes coefficients")


def pfd_coefficients(a) -> PfdResult:
    if not hasattr(a, "__iter__"):
        raise DomainError(f"a must be an iterable of nodes, got {_shown(a)}")
    nodes = tuple(_check_complex(f"node {i}", v) for i, v in enumerate(a))
    n = len(nodes)
    if n < 1:
        raise DomainError("need at least one node")
    coefficients = []
    for i in range(n):
        mu = 1.0 + 0j
        for j in range(n):
            if j != i:
                if abs(diff := nodes[j] - nodes[i]) <= _SEPARATION_TOL:
                    raise DegenerateNodesError(
                        f"nodes {i} and {j} coincide within {_SEPARATION_TOL}")
                mu /= diff
        coefficients.append(mu)
    return PfdResult(nodes, tuple(coefficients))


def pfd_residual(result: PfdResult, x: complex) -> float:
    """|LHS - RHS| of the decomposition identity at probe point x."""
    if not isinstance(result, PfdResult):
        raise DomainError(f"result must be a PfdResult, got {_shown(result)}")
    x = _check_complex("x", x)
    lhs = 1.0 + 0j
    rhs = 0j
    for node, mu in zip(result.nodes, result.coefficients):
        den = node + x
        if abs(den) <= _SEPARATION_TOL:
            raise PoleError(f"probe point x = {x} hits pole at -{node}")
        lhs /= den
        rhs += mu / den
    return abs(lhs - rhs)
