"""Inverse field calibration: solve K_e(F) = target for F.

Rates span tens of orders of magnitude over the valid field range, so the
solve runs on ln K_e as a function of ln F, where the problem is smooth
and well conditioned: bisection narrows the bracket, Newton polishes.
Newton's slope d ln K_e / d ln F comes with each JWKB evaluation, from
the nodes of its barrier-strength quadrature, so a Newton step costs one
barrier solve; for the closed form it is a central difference.

The root is unique where K_e rises over the bracket.  That holds below
the deep-tunnelling guard unless the ionization energy is far above
Z^2 I_H: the closed form then peaks below the guard, and its default
bracket ends at that peak; the JWKB rates peak below the guard once I
passes about 48 Z^2 I_H, and their default bracket ends below the
suppression field and, for a target above the rate there, at the rate's
maximum, located from the same slope.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .barrier import MotiveVariant, _jwkb_log_rate, suppression_field
from .errors import NonMonotoneBracket, NumericError, TargetUnattainable
from .hydrogenic import HydrogenicAtom
from .rates import _ll_log_rate, guard_field
from .units import REGISTRY

_RESIDUAL_TOL = 1e-13  # |ln K - ln target| at convergence, where resolvable
_EPS = sys.float_info.epsilon
_MAX_ITER = 300
# the default JWKB bracket ends this far below the suppression field, and
# its maximum is located to this width on ln F (ln K then lies within
# rounding of its maximum)
_BELOW_SUPPRESSION = 1.0 - 1e-6
_PEAK_WIDTH = 1e-9
_VARIANTS = {variant.value: variant for variant in MotiveVariant}


@dataclass(frozen=True)
class InversionResult:
    F: float          # V/nm
    iterations: int
    residual: float   # |K_e(F) - target| / target


def _log_rate_fn(atom: HydrogenicAtom, method: str) -> Callable[[float], float]:
    if method == "ll":
        return _ll_log_rate(atom)
    if method not in _VARIANTS:
        raise ValueError(f"unknown inversion method {method!r}")
    return _jwkb_log_rate(atom, _VARIANTS[method])


def _rate_peak(log_rate, log_t: float, u_lo: float, u_hi: float, g_hi: float, budget: int):
    """The maximum of ln K between u_lo and u_hi (ln F), where ln K rises
    at u_lo and the JWKB evaluator's slope at u_hi is not positive, by
    bisection on the slope's sign until the bracket is _PEAK_WIDTH wide
    or `budget` evaluations are spent.  Returns the end of the bracket
    with the larger ln K, its ln K - ln target (g_hi at u_hi), and the
    evaluations spent."""
    g_lo = None
    evaluations = 0
    while u_hi - u_lo > _PEAK_WIDTH and evaluations < budget:
        u = 0.5 * (u_lo + u_hi)
        g = log_rate(math.exp(u)) - log_t
        evaluations += 1
        if log_rate.slope() > 0.0:
            u_lo, g_lo = u, g
        else:
            u_hi, g_hi = u, g
    if g_lo is not None and g_lo > g_hi:
        return u_lo, g_lo, evaluations
    return u_hi, g_hi, evaluations


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
        (1e-6, guard field), for 'll' ended at the closed form's maximum
        where that lies below the guard, and for the JWKB methods ended
        just below the suppression field and, for a target above the rate
        there, at the rate's maximum, where either lies below the guard.
        A given bracket over which the rate falls raises
        NonMonotoneBracket.

    Bisection on ln F narrows the bracket to 1e-2, then Newton steps on
    ln F polish, each falling back to bisection where it would leave the
    bracket.  JWKB evaluations give the slope analytically (one solve per
    step); for 'll' it is a central difference (three evaluations per
    step).  Converges to |K_e(F) - target|/target < 1e-10 (typically much
    tighter); ``iterations`` counts the rate evaluations.
    """
    if not (target > 0.0) or not math.isfinite(target):
        raise TargetUnattainable(f"target rate must be positive and finite, got {target}")
    if bracket is not None:
        f_lo, f_hi = map(float, bracket)
    else:
        f_lo, f_hi = 1e-6, guard_field(atom)
        if method == "ll":
            # the closed form peaks where b I^(3/2)/F = 1 and falls past it;
            # the peak lies below the guard once I passes 455 Z^2 I_H
            peak = REGISTRY.b.value * atom.I**1.5
            if f_lo < peak < f_hi:
                f_hi = peak
        elif method in _VARIANTS:
            # suppressed below the guard once I passes 110 Z^2 I_H
            f_hi = min(f_hi, _BELOW_SUPPRESSION * suppression_field(atom, _VARIANTS[method]))
    if not (0.0 < f_lo < f_hi):
        raise TargetUnattainable(f"invalid bracket ({f_lo}, {f_hi})")

    log_rate = _log_rate_fn(atom, method)
    # d ln K/d ln F at the field evaluated last, from the JWKB evaluators
    analytic_slope = None if method == "ll" else log_rate.slope
    log_t = math.log(target)
    u_lo, u_hi = math.log(f_lo), math.log(f_hi)
    g_hi = log_rate(f_hi) - log_t
    evaluations = 2
    # a target above the rate at the end of the default bracket may still
    # lie below the JWKB rate's maximum inside it: end the bracket there.
    # (Below the rate at f_hi, the root below the maximum is the only one:
    # past the maximum the rate falls to no less than at f_hi.)
    if g_hi < 0.0 and bracket is None and analytic_slope is not None and analytic_slope() <= 0.0:
        u_hi, g_hi, spent = _rate_peak(log_rate, log_t, u_lo, u_hi, g_hi, _MAX_ITER - evaluations)
        evaluations += spent
        f_hi = math.exp(u_hi)
    # last, so that Newton's first slope is at f_lo if no bisection step runs
    g_lo = log_rate(f_lo) - log_t

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

    # Newton on u = ln F, the field evaluated last, with d(ln K)/d(ln F)
    # the JWKB evaluator's or, for 'll', a central difference; falling
    # back to bisection whenever a step leaves the bracket
    du = 1e-6
    tol = _RESIDUAL_TOL
    while abs(g) > tol and evaluations < _MAX_ITER:
        if analytic_slope is not None:
            slope = analytic_slope()
        else:
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
