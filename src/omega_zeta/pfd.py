"""Finite homogeneous partial fraction decomposition.

For distinct nodes a_1..a_n,

    prod_i 1/(a_i + x) = sum_i mu_i/(a_i + x),
    mu_i = prod_{j != i} 1/(a_j - a_i),

and the coefficients sum to zero for n >= 2.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DegenerateNodesError, DomainError, PoleError

__all__ = ["PfdResult", "pfd_coefficients", "pfd_residual"]

_SEPARATION_TOL = 1e-10

PfdResult = namedtuple("PfdResult", "nodes coefficients")


def pfd_coefficients(a) -> PfdResult:
    nodes = tuple(complex(v) for v in a)
    n = len(nodes)
    if n < 1:
        raise DomainError("need at least one node")
    if n == 1:
        return PfdResult(nodes, (1.0 + 0j,))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(nodes[j] - nodes[i]) <= _SEPARATION_TOL:
                raise DegenerateNodesError(
                    f"nodes {i} and {j} coincide within {_SEPARATION_TOL}"
                )
    coefficients = []
    for i in range(n):
        mu = 1.0 + 0j
        for j in range(n):
            if j != i:
                mu /= nodes[j] - nodes[i]
        coefficients.append(mu)
    return PfdResult(nodes, tuple(coefficients))


def pfd_residual(result: PfdResult, x: complex) -> float:
    """|LHS - RHS| of the decomposition identity at probe point x."""
    x = complex(x)
    lhs = 1.0 + 0j
    rhs = 0j
    for node, mu in zip(result.nodes, result.coefficients):
        den = node + x
        if abs(den) <= _SEPARATION_TOL:
            raise PoleError(f"probe point x = {x} hits pole at -{node}")
        lhs /= den
        rhs += mu / den
    return abs(lhs - rhs)
