"""Inverse field calibration: solve K_e(F) = target for F.

Rates span tens of orders of magnitude over the valid field range, so the
solve runs on ln K_e as a function of ln F, where the problem is smooth
and well conditioned: bisection narrows the bracket, Newton polishes.
K_e is strictly increasing in F below the deep-tunnelling guard, making
the root unique.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .barrier import MotiveModel, MotiveVariant, rate_jwkb
from .errors import NonMonotoneBracket, NumericError, TargetUnattainable
from .hydrogenic import HydrogenicAtom
from .rates import guard_field, rate_ll

_RESIDUAL_TOL = 1e-13  # |ln K - ln target| at convergence, where resolvable
_EPS = sys.float_info.epsilon
_MAX_ITER = 300


@dataclass(frozen=True)
class InversionResult:
    F: float          # V/nm
    iterations: int
    residual: float   # |K_e(F) - target| / target


def _log_rate_fn(atom: HydrogenicAtom, method: str) -> Callable[[float], float]:
    if method == "ll":
        return lambda F: rate_ll(atom, F, allow_shallow=True).log_K_e
    try:
        variant = MotiveVariant(method)
    except ValueError:
        raise ValueError(f"unknown inversion method {method!r}") from None
    return lambda F: rate_jwkb(MotiveModel(variant, atom, F)).log_K_e


def invert_rate(
    target: float,
    atom: HydrogenicAtom,
    *,
    method: str = "ll",
    bracket: Optional[tuple[float, float]] = None,
) -> InversionResult:
    """Find the field producing the target rate constant.

    Parameters
    ----------
    target : rate constant [s^-1], within the attainable range.
    atom : hydrogenic atom.
    method : 'll' (default) or one of the jwkb-* barrier methods.
    bracket : optional (F_lo, F_hi) in V/nm; defaults to
        (1e-6, guard field).

    Converges to |K_e(F) - target|/target < 1e-10 (typically much
    tighter).
    """
    if not (target > 0.0) or not math.isfinite(target):
        raise TargetUnattainable(f"target rate must be positive and finite, got {target}")
    f_lo, f_hi = map(float, bracket) if bracket is not None else (1e-6, guard_field(atom))
    if not (0.0 < f_lo < f_hi):
        raise TargetUnattainable(f"invalid bracket ({f_lo}, {f_hi})")

    log_rate = _log_rate_fn(atom, method)
    log_t = math.log(target)
    u_lo, u_hi = math.log(f_lo), math.log(f_hi)
    g_lo = log_rate(f_lo) - log_t
    g_hi = log_rate(f_hi) - log_t
    evaluations = 2

    if g_lo > g_hi:
        raise NonMonotoneBracket(
            f"rate not increasing over bracket ({f_lo:.6g}, {f_hi:.6g}) V/nm"
        )
    if g_lo > 0.0 or g_hi < 0.0:
        raise TargetUnattainable(
            f"target {target:.6g} s^-1 outside attainable range "
            f"[{math.exp(g_lo + log_t):.6g}, {math.exp(g_hi + log_t):.6g}] s^-1 "
            f"on bracket ({f_lo:.6g}, {f_hi:.6g}) V/nm"
        )

    # bisection on ln F until the bracket is small enough for Newton
    u, g = u_lo, g_lo
    while u_hi - u_lo > 1e-2 and evaluations < _MAX_ITER:
        u = 0.5 * (u_lo + u_hi)
        g = log_rate(math.exp(u)) - log_t
        evaluations += 1
        if g > 0.0:
            u_hi = u
        else:
            u_lo = u

    # Newton on u = ln F with d(ln K)/d(ln F) by central difference,
    # falling back to bisection whenever a step leaves the bracket
    du = 1e-6
    tol = _RESIDUAL_TOL
    while abs(g) > tol and evaluations < _MAX_ITER:
        slope = (log_rate(math.exp(u + du)) - log_rate(math.exp(u - du))) / (2.0 * du)
        evaluations += 2
        # ln K moves by slope * (ulp(u) + eps) between neighbouring floats
        # of u and F, so deep in the barrier it cannot resolve 1e-13
        tol = max(_RESIDUAL_TOL, 4.0 * abs(slope) * (math.ulp(u) + _EPS))
        step_ok = slope > 0.0
        if step_ok:
            u_next = u - g / slope
            step_ok = u_lo <= u_next <= u_hi
        if not step_ok:
            u_next = 0.5 * (u_lo + u_hi)
        u = u_next
        g = log_rate(math.exp(u)) - log_t
        evaluations += 1
        if g > 0.0:
            u_hi = min(u_hi, u)
        else:
            u_lo = max(u_lo, u)

    if abs(g) > tol:
        raise NumericError(
            f"inversion did not converge in {evaluations} evaluations "
            f"(|ln K - ln target| = {abs(g):.3e})"
        )
    return InversionResult(
        F=math.exp(u), iterations=evaluations, residual=abs(math.expm1(g))
    )
