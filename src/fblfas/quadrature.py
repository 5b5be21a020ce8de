"""Gauss-Laguerre and Gauss-Legendre rules and an adaptive cross-check integrator.

The analytical gain distribution reduces to integrals of the form
int_0^inf e^(-x) f(x) dx. Those are evaluated with Gauss rules synthesized
by the Golub-Welsch procedure: nodes are the eigenvalues of the symmetric
tridiagonal Jacobi matrix of the orthogonal polynomial family and weights
are the squared first components of its unit eigenvectors times the zeroth
moment. The matrix has order at most MAX_ORDER = 256, so numpy's dense
symmetric eigensolver takes it whole. Laguerre rules (diagonal 2n+1,
off-diagonal n) serve where f is smooth on the scale of the nodes; Legendre
rules (diagonal 0, off-diagonal n/sqrt(4n^2-1)) build the panels that cover
a sharp feature of f.

integrate_adaptive is a deliberately independent verification path: a
globally adaptive Gauss-Kronrod 7/15 scheme with hardcoded nodes, sharing
no machinery with the Laguerre rules, so disagreement between the two
means something.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericError

__all__ = [
    "QuadratureRule",
    "gauss_laguerre",
    "gauss_legendre",
    "integrate_adaptive",
    "AdaptiveResult",
]

MAX_ORDER = 256


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a Gauss rule, integral ~ sum w_i f(x_i).

    gauss_laguerre rules integrate against e^(-x) on [0, inf),
    gauss_legendre rules against 1 on [-1, 1].
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray


def _checked_order(order) -> int:
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ValueError("order must be an integer")
    if order < 1 or order > MAX_ORDER:
        raise ValueError(f"order must lie in [1, {MAX_ORDER}], got {order}")
    return int(order)


def _golub_welsch(order, diagonal, offdiagonal, moment) -> QuadratureRule:
    """Gauss rule of the symmetric tridiagonal Jacobi matrix with this diagonal
    and off-diagonal, for a weight function of total mass moment.

    Nodes are the eigenvalues (ascending) and weights moment * v0^2, v0 the
    first components of the unit eigenvectors. NumericError is raised
    unless the nodes strictly increase and the weights sum to moment
    within 1e-12.
    """
    jacobi = np.diag(diagonal) + np.diag(offdiagonal, 1) + np.diag(offdiagonal, -1)
    try:
        nodes, vecs = np.linalg.eigh(jacobi)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise NumericError(f"tridiagonal eigensolver failed: {exc}") from exc
    weights = moment * vecs[0, :] ** 2
    if not np.all(np.diff(nodes) > 0.0):
        raise NumericError("Gauss nodes must strictly increase")
    if not abs(float(weights.sum()) - moment) <= 1e-12:  # NaN fails too
        raise NumericError(f"Gauss weights must sum to {moment:g} within 1e-12")
    return QuadratureRule(order=order, nodes=nodes, weights=weights)


def gauss_laguerre(order: int) -> QuadratureRule:
    """Synthesize the Gauss-Laguerre rule of the given order (1..256)."""
    order = _checked_order(order)
    n = np.arange(order, dtype=float)
    rule = _golub_welsch(order, 2.0 * n + 1.0, n[1:], 1.0)
    if not rule.nodes[0] > 0.0:
        raise NumericError("Laguerre nodes must be positive")
    return rule


def gauss_legendre(order: int) -> QuadratureRule:
    """Synthesize the Gauss-Legendre rule on [-1, 1] of the given order (1..256)."""
    order = _checked_order(order)
    n = np.arange(1, order, dtype=float)
    rule = _golub_welsch(order, np.zeros(order), n / np.sqrt(4.0 * n * n - 1.0), 2.0)
    if not (rule.nodes[0] > -1.0 and rule.nodes[-1] < 1.0):
        raise NumericError("Legendre nodes must lie inside (-1, 1)")
    return rule


def _call_on_nodes(f: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate f on an array of abscissas, accepting scalar-only callables."""
    try:
        out = np.asarray(f(x), dtype=float)
        if out.shape == x.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(f(v)) for v in x])


# ============================================================================
# Adaptive Gauss-Kronrod 7/15 integrator
# ============================================================================

# Kronrod-15 abscissas on [-1, 1] (positive half; odd indices are the
# embedded Gauss-7 points) and the matching weight sets.
_K15_ABSCISSAS = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.000000000000000000000000000000000,
    ]
)
_K15_WEIGHTS = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_G7_WEIGHTS = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

# Full 15-point layout, ascending in x.
_GK_X = np.concatenate([-_K15_ABSCISSAS[:-1], _K15_ABSCISSAS[::-1]])
_GK_WK = np.concatenate([_K15_WEIGHTS[:-1], _K15_WEIGHTS[::-1]])
_GK_WG = np.zeros(15)
_GK_WG[1:14:2] = np.concatenate([_G7_WEIGHTS[:-1], _G7_WEIGHTS[::-1]])


class AdaptiveResult(NamedTuple):
    value: float
    error_estimate: float
    converged: bool


def _gk_panel(f, lo, hi):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fx = _call_on_nodes(f, mid + half * _GK_X)
    if np.any(~np.isfinite(fx)):
        x_bad = (mid + half * _GK_X)[~np.isfinite(fx)][0]
        raise NumericError(f"integrand returned a non-finite value at x={x_bad!r}")
    k15 = half * float(np.dot(_GK_WK, fx))
    g7 = half * float(np.dot(_GK_WG, fx))
    return k15, abs(k15 - g7)


def integrate_adaptive(
    f: Callable,
    lower: float,
    upper: float,
    tol: float = 1e-10,
    max_depth: int = 40,
    max_panels: int = 4096,
) -> AdaptiveResult:
    """Globally adaptive Gauss-Kronrod integration of f over [lower, upper].

    upper may be math.inf, in which case the tail is folded onto [0, 1) via
    x = lower + s/(1-s); f must decay there. The worst panel (by the 7/15
    discrepancy) is bisected until the summed discrepancy drops below tol or
    the panel/depth budget runs out; in the latter case the best estimate is
    returned with converged=False.
    """
    lower = float(lower)
    upper = float(upper)
    if not math.isfinite(lower):
        raise ValueError("lower bound must be finite")
    if math.isnan(upper) or upper <= lower:
        raise ValueError("upper bound must exceed lower (or be +inf)")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")

    if math.isinf(upper):
        def folded(s):
            s = np.asarray(s, dtype=float)
            x = lower + s / (1.0 - s)
            return np.asarray(f(x), dtype=float) / (1.0 - s) ** 2

        return integrate_adaptive(folded, 0.0, 1.0, tol, max_depth, max_panels)

    val, err = _gk_panel(f, lower, upper)
    # Heap of (-error, tiebreak, lo, hi, depth, value); panels that reach
    # max_depth are set aside and keep contributing to the running totals.
    counter = 0
    heap = [(-err, counter, lower, upper, 0, val)]
    frozen_val = 0.0
    frozen_err = 0.0
    total_err = err
    panels = 1
    while heap and total_err > tol and panels < max_panels:
        neg_err, _, lo, hi, depth, pval = heapq.heappop(heap)
        if depth >= max_depth:
            frozen_val += pval
            frozen_err += -neg_err
            continue
        mid = 0.5 * (lo + hi)
        lval, lerr = _gk_panel(f, lo, mid)
        rval, rerr = _gk_panel(f, mid, hi)
        total_err += lerr + rerr + neg_err
        counter += 1
        heapq.heappush(heap, (-lerr, counter, lo, mid, depth + 1, lval))
        counter += 1
        heapq.heappush(heap, (-rerr, counter, mid, hi, depth + 1, rval))
        panels += 1

    value = frozen_val + sum(item[5] for item in heap)
    error = frozen_err - sum(item[0] for item in heap)
    return AdaptiveResult(value=value, error_estimate=error, converged=error <= tol)
