"""Inverse field calibration: solve K_e(F) = target for F.

Rates span tens of orders of magnitude over the valid field range, so the
solve runs on ln K_e as a function of ln F, where the problem is smooth
and well conditioned.  The search has two phases: a walk of Newton steps
on ln F, and an ends step that solves and checks the bracket's ends.
Newton's slope d ln K_e / d ln F comes with each evaluation: for the JWKB
methods from the barrier-strength step that settled G, so a step costs
one barrier solve; for the closed form ('ll') exact, b I^(3/2)/F - 1.

The JWKB methods walk from the closed form's root, which the W_-1 branch
gives to within about 2e-2 in ln F, or from the top of the bracket where
that root lies at or above it.  ln K_e is concave and rising in ln F, so
the steps approach the root from one side, and over the default bracket
the walk finds it without the ends: the ends step runs only where a step
meets what the ends settle, and a new walk goes on from the midpoint of
the bracket they give.  An answer takes about five solves.  A given
bracket has the ends step first.  The closed form, and a JWKB target
whose closed-form root lies below the bracket or does not exist, have no
seed: after the ends step, bisection alone narrows the bracket to 1e-2
on ln F, and the walk then polishes from the field it evaluated last, so
an 'll' answer takes about sixteen evaluations.

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
from .errors import (
    NonMonotoneBracket,
    NumericError,
    TargetUnattainable,
    ValidationError,
    _shown,
)
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
# the closed form's constants: ln(C_FI/b) and ln b of its root, b of its peak
_LOG_C_FI_PER_B = math.log(REGISTRY.C_FI.value / REGISTRY.b.value)
_B = REGISTRY.b.value
_LOG_B = math.log(_B)


@dataclass(frozen=True)
class InversionResult:
    F: float          # V/nm
    iterations: int
    residual: float   # |K_e(F) - target| / target


def _log_rate_fn(atom: HydrogenicAtom, method: str) -> Callable[[float], float]:
    if method == "ll":
        return _ll_log_rate(atom)
    if method not in _VARIANTS:
        raise ValidationError(f"unknown inversion method {method!r}")
    return _jwkb_log_rate(atom, _VARIANTS[method])


def _closed_form_root(atom: HydrogenicAtom, log_t: float) -> Optional[float]:
    """ln F where the closed form C_FI I^(5/2)/F exp(-b I^(3/2)/F) meets
    the target e^log_t, or None where the target is at or above its
    maximum.  With X = b I^(3/2)/F the condition reads X - ln X = L,
    L = ln(C_FI I/b) - log_t, whose root X > 1 is the W_-1 branch
    (Corless et al., Adv. Comput. Math. 5, 329 (1996)); Newton from
    X = L + ln L, below the root, steps past it and then falls to it."""
    log_I = math.log(atom.I)
    L = _LOG_C_FI_PER_B + log_I - log_t
    if not L > 1.0:
        return None
    X = L + math.log(L)
    for _ in range(4):
        X -= (X - math.log(X) - L) / (1.0 - 1.0 / X)
    return _LOG_B + 1.5 * log_I - math.log(X)


def _rate_peak(log_rate, log_t: float, u_lo: float, u_hi: float, g_hi: float, budget: int):
    """The maximum of ln K between u_lo and u_hi (ln F), where ln K rises
    at u_lo and the JWKB evaluator's slope at u_hi, which answered, is not
    positive, by bisection on the slope's sign until the bracket is
    _PEAK_WIDTH wide or `budget` evaluations are spent.  Returns the end of
    the bracket with the larger ln K, its ln K - ln target (g_hi at u_hi),
    and the evaluations spent."""
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

    The search walks by Newton steps on ln F, with the slope each
    evaluation gives analytically (one solve per step), and one step more
    once converged, kept where it lowers the residual; its ends step solves
    and checks the bracket's ends.  Over the default bracket the JWKB
    methods walk first, from the closed form's root, where that lies
    inside the bracket, or from the top of the bracket, where it lies at
    or above the top.  So they solve its ends only where an answer needs
    them: neither for a root inside the bracket, and only the top, once,
    for one at or above it where the rate there reaches the target.  A
    slope <= 0, a step that would leave the bracket or a target above the
    rate at the top ends that walk; the ends step then gives the same
    answer or refusal, and a new walk goes on from the midpoint of the
    bracket the ends give.  An answer takes about five solves.  'll', a
    given bracket and a JWKB target whose closed-form root lies below the
    bracket or does not exist take the ends step first.  'll' and such a
    target then bisect on ln F, and only bisect, until the bracket is 1e-2
    wide; from there they walk, with the closed form's exact slope
    b I^(3/2)/F - 1 for 'll': an 'll' answer takes about sixteen
    evaluations.  After the ends step, a step that would leave the bracket
    falls back to its midpoint.
    Converges to |K_e(F) - target|/target < 1e-10 (typically much tighter);
    ``iterations`` counts the rate evaluations.
    """
    target = _shown(target)
    if not math.isfinite(target) or not target > 0.0:
        raise TargetUnattainable(f"target rate must be positive and finite, got {target}")
    if bracket is not None:
        # float(f) that, like math.isfinite, refuses a string
        f_lo, f_hi = (math.ldexp(_shown(f), 0) for f in bracket)
    else:
        f_lo, f_hi = 1e-6, guard_field(atom)
        if method == "ll":
            # the closed form peaks where b I^(3/2)/F = 1 and falls past it;
            # the peak lies below the guard once I passes 455 Z^2 I_H
            peak = _B * atom.I**1.5
            if f_lo < peak < f_hi:
                f_hi = peak
        elif method in _VARIANTS:
            # suppressed below the guard once I passes 110 Z^2 I_H
            f_hi = min(f_hi, _BELOW_SUPPRESSION * suppression_field(atom, _VARIANTS[method]))
    if not (0.0 < f_lo < f_hi):
        raise TargetUnattainable(f"invalid bracket ({f_lo}, {f_hi})")

    log_rate = _log_rate_fn(atom, method)
    seed = None if method == "ll" else _closed_form_root(atom, math.log(target))
    # only a JWKB rate's maximum is searched for: the default 'll' bracket
    # already ends at the closed form's maximum, where its slope is about 0
    return _solve(log_rate, target, f_lo, f_hi, seed, default=bracket is None and method != "ll")


def _solve(log_rate, target, f_lo, f_hi, seed, *, default):
    """The answer of :func:`invert_rate` on the bracket (f_lo, f_hi), from
    the closed-form root `seed` (ln F) of a JWKB method where that lies
    above f_lo.  `default` marks a JWKB method's default bracket, whose top
    may lie past the rate's maximum.

    Seeded over a default bracket, the walk (:func:`_newton`) starts at
    once, at the seed, or at the top, solved at f_hi itself, where the
    seed lies at or above it.  Elsewhere, or where that walk ends (a slope
    <= 0, a step that would leave the bracket, or a target above the rate
    at the top), the ends step solves and checks the ends (the top of a
    default bracket may move to the rate's maximum), and narrows the
    bracket they give, without the fields evaluated before, which may lie
    past that maximum: unseeded, by bisection to 1e-2 on ln F; seeded, by
    one solve, at the midpoint where a walk ended, else at the seed or the
    top.  A walk then goes on from the field evaluated last.  (A refusal
    met before the ends stands: the default bracket's ends answered for
    every atom tried, Z from 1e-8 to 1e60 and I from 1e-6 to 1e4 Z^2 I_H,
    and the fields solved after them are the same.)
    """
    log_t = math.log(target)
    u_lo, u_hi = math.log(f_lo), math.log(f_hi)
    seeded = seed is not None and u_lo < seed
    evaluations = 0
    g_hi = None  # ln K - ln target at f_hi, once solved
    if default and seeded:
        # over the default bracket ln K rises and is concave in ln F, so
        # Newton from the seed finds the root that the ends would bracket
        if seed < u_hi:
            u, g = seed, log_rate(math.exp(seed)) - log_t
        else:
            u, g = u_hi, log_rate(f_hi) - log_t
            g_hi = g
        evaluations = 1
        # a target above the rate at the top needs the ends at once, if
        # the solves allow them
        if g_hi is None or g_hi >= 0.0 or evaluations >= _MAX_ITER:
            answer, evaluations = _newton(log_rate, log_t, u, g, u_lo, u_hi, evaluations, lazy=True)
            if answer is not None:
                return answer

    if g_hi is None:
        g_hi = log_rate(f_hi) - log_t
        evaluations += 1
    # a target above the rate at the end of the default bracket may still
    # lie below the JWKB rate's maximum inside it: end the bracket there.
    # (Below the rate at f_hi, the root below the maximum is the only one:
    # past the maximum the rate falls to no less than at f_hi.)  The slope
    # is at f_hi, solved last
    if g_hi < 0.0 and default and log_rate.slope() <= 0.0:
        # the solves left, the bottom's aside
        u_hi, g_hi, peak_solves = _rate_peak(
            log_rate, log_t, u_lo, u_hi, g_hi, _MAX_ITER - evaluations - 1
        )
        evaluations += peak_solves
        f_hi = math.exp(u_hi)
    # last, so that Newton's first slope is at f_lo if no bisection step runs
    g_lo = log_rate(f_lo) - log_t
    evaluations += 1
    if g_lo > g_hi:
        raise NonMonotoneBracket(f"rate not increasing over bracket ({f_lo:.6g}, {f_hi:.6g}) V/nm")
    if g_lo > 0.0 or g_hi < 0.0:
        raise TargetUnattainable(
            f"target {target:.6g} s^-1 outside attainable range "
            f"[{math.exp(g_lo + log_t):.6g}, {math.exp(g_hi + log_t):.6g}] s^-1 "
            f"on bracket ({f_lo:.6g}, {f_hi:.6g}) V/nm"
        )

    u, g = u_lo, g_lo
    # the bracket the ends give is narrowed: seeded, by one solve, at the
    # midpoint where the walk ended, else at the seed or the top;
    # unseeded, by bisection until it is 1e-2 wide on ln F
    while seeded or (u_hi - u_lo > 1e-2 and evaluations < _MAX_ITER):
        u = min(seed, u_hi) if seeded and not default else 0.5 * (u_lo + u_hi)
        g = log_rate(math.exp(u)) - log_t
        evaluations += 1
        if g > 0.0:
            u_hi = u
        else:
            u_lo = u
        if seeded:
            break
    return _newton(log_rate, log_t, u, g, u_lo, u_hi, evaluations, lazy=False)[0]


def _newton(log_rate, log_t, u, g, u_lo, u_hi, evaluations, *, lazy):
    """Newton steps on u = ln F from (u, g = ln K - ln target), with
    d(ln K)/d(ln F) the evaluator's slope at the field evaluated last, each
    solve narrowing the bracket (u_lo, u_hi) by the sign of its g, until
    |g| is within the tolerance or `evaluations` reach _MAX_ITER.  A slope
    <= 0 or a step that would leave the bracket goes to its midpoint, or,
    `lazy`, ends the walk.  Returns the answer, or None where the walk
    ended, and the evaluations spent in all.
    """
    tol, slope = _RESIDUAL_TOL, None
    while evaluations < _MAX_ITER:
        if abs(g) <= tol:
            # one more step, kept where it lowers |g|: the stop alone leaves
            # answers up to some 30 ulps off the root.  The slope of the step
            # that got here serves, as a step this small needs no better.
            # (Lazily too: a seed that converged lies below the rate's
            # maximum, as past it the JWKB rate lies below the closed form's)
            slope = log_rate.slope() if slope is None else slope
            u_next = u - g / slope if slope > 0.0 else u
            if u_next != u and u_lo <= u_next <= u_hi:
                g_next = log_rate(math.exp(u_next)) - log_t
                evaluations += 1
                if abs(g_next) < abs(g):
                    u, g = u_next, g_next
            break
        slope = log_rate.slope()
        # ln K moves by slope * (ulp(u) + eps) between neighbouring floats
        # of u and F, so deep in the barrier it cannot resolve 1e-13
        tol = max(_RESIDUAL_TOL, 4.0 * abs(slope) * (math.ulp(u) + _EPS))
        u_next = u - g / slope if slope > 0.0 else math.nan
        if not u_lo <= u_next <= u_hi:
            if lazy:
                return None, evaluations
            u_next = 0.5 * (u_lo + u_hi)
        u, g = u_next, log_rate(math.exp(u_next)) - log_t
        evaluations += 1
        if g > 0.0:
            u_hi = u
        else:
            u_lo = u

    if abs(g) > tol:
        raise NumericError(
            f"inversion did not converge in {evaluations} evaluations "
            f"(|ln K - ln target| = {abs(g):.3e})"
        )
    result = InversionResult(F=math.exp(u), iterations=evaluations, residual=abs(math.expm1(g)))
    return result, evaluations
