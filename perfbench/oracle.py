"""Independent reference values for the benchmark's correctness checks.

Everything here is computed in mpmath from the CODATA-2010 strings and
textbook formulas; nothing is imported from esfi or from its tests.

Canonical units match the program's: energies eV, lengths nm, fields V/nm,
times s, charge in units of eV/V (so the elementary charge is exactly 1).

* closed-form (Landau & Lifshitz) rate  K = C_FI I^(5/2)/F exp(-b I^(3/2)/F);
* naive-barrier strength  G = b I^(3/2) v(f)/F  with the Schottky-Nordheim
  function v(f) of Forbes & Deane (Proc. R. Soc. A 463, 2907, 2007);
* transformed-barrier turning points as polynomial roots and G by
  tanh-sinh quadrature;
* the transformed suppression field as the double root M = M' = 0,
  which has a closed form;
* the closed-form inversion X - ln X = L solved with Lambert W_-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import mpmath as mp

mp.mp.dps = 30

CODATA_2010 = {
    "e_C": "1.602176565e-19",
    "m_e_kg": "9.10938291e-31",
    "hbar_Js": "1.054571726e-34",
    "eps0_F_m": "8.854187817e-12",
    "eV_J": "1.602176565e-19",
}

# the paper's seven-figure table (eV, V, nm, s units)
TABULATED = {
    "sigma": 5.123167,
    "b": 6.830890,
    "C_FI": 1.245354e17,
    "pi_hbar_C_FI": 257.5185,
    "B_H": 1.439964,
    "a_0": 5.291772e-2,
    "I_H": 13.60569,
    "nu_0": 6.579684e15,
    "four_pi_eps0": 0.6944616,
}

_m = {k: mp.mpf(v) for k, v in CODATA_2010.items()}
# SI -> canonical: joule -> eV, coulomb -> eV/V, metre -> nm
E = mp.mpf(1)  # elementary charge, exactly 1 eV/V
M_E = _m["m_e_kg"] / _m["eV_J"] * mp.mpf("1e-18")
HBAR = _m["hbar_Js"] / _m["eV_J"]
EPS0 = _m["eps0_F_m"] / _m["e_C"] ** 2 * _m["eV_J"] * mp.mpf("1e-9")
FOUR_PI_EPS0 = 4 * mp.pi * EPS0
B_H = E**2 / FOUR_PI_EPS0
A_0 = FOUR_PI_EPS0 * HBAR**2 / (M_E * E**2)
I_H = B_H / (2 * A_0)
SIGMA = mp.sqrt(2 * M_E) / HBAR
B_FN = 4 * SIGMA / (3 * E)
C_FI = mp.sqrt(512 * M_E) / (E * HBAR**2)
NU_0 = I_H / (mp.pi * HBAR)
HARTREE = 2 * I_H
AU_FIELD = HARTREE / (E * A_0)  # V/nm per atomic unit of field
AU_TIME = HBAR / HARTREE        # s per atomic unit of time

CONSTANTS = {
    "eV": mp.mpf(1),
    "e": E,
    "m_e": M_E,
    "hbar": HBAR,
    "eps0": EPS0,
    "four_pi_eps0": FOUR_PI_EPS0,
    "B_H": B_H,
    "a_0": A_0,
    "nu_0": NU_0,
    "omega_0": 2 * mp.pi * NU_0,
    "I_H": I_H,
    "sigma": SIGMA,
    "b": B_FN,
    "C_FI": C_FI,
    "pi_hbar_C_FI": mp.pi * HBAR * C_FI,
}

# canonical value of one unit of field / rate in each CLI unit system
FIELD_SCALE = {"evnm": mp.mpf(1), "au": AU_FIELD, "si": mp.mpf("1e-9")}
RATE_SCALE = {"evnm": mp.mpf(1), "au": AU_TIME, "si": mp.mpf(1)}


@dataclass(frozen=True)
class Atom:
    Z: float
    I_override: Optional[float] = None

    @property
    def I(self):
        return I_H * mp.mpf(self.Z) ** 2 if self.I_override is None else mp.mpf(self.I_override)

    @property
    def B(self):
        return mp.mpf(self.Z) * B_H

    @property
    def nu(self):
        return self.I / (mp.pi * HBAR)


def ll_exponent(atom: Atom, F) -> mp.mpf:
    return B_FN * atom.I ** mp.mpf(1.5) / mp.mpf(F)


def ll_log_rate(atom: Atom, F) -> mp.mpf:
    F = mp.mpf(F)
    return mp.log(C_FI * atom.I ** mp.mpf(2.5) / F) - ll_exponent(atom, F)


def hydrogen_au_log_rate(F_au) -> mp.mpf:
    """ln of (4/F) exp(-2/(3F)), hydrogen in atomic units."""
    F = mp.mpf(F_au)
    return mp.log(4 / F) - 2 / (3 * F)


def guard_field(atom: Atom) -> mp.mpf:
    return suppression_field(atom, "jwkb-naive") / 2


def suppression_field(atom: Atom, variant: str) -> mp.mpf:
    """Field at which the barrier vanishes [V/nm].

    Naive barrier: I^2/(4 e B).  Transformed barriers: eta^2 M(eta) is the
    cubic P = (I/4) eta^2 - (e F/8) eta^3 - (B/4) eta - 1/(4 sigma^2); the
    barrier vanishes where P and P' share a root.  Eliminating F from
    P = P' = 0 leaves eta^2 - (2B/I) eta - 3/(sigma^2 I) = 0.
    """
    I, B = atom.I, atom.B
    if variant == "jwkb-naive":
        return I**2 / (4 * E * B)
    eta = B / I + mp.sqrt((B / I) ** 2 + 3 / (SIGMA**2 * I))
    return 8 * (I * eta / 2 - B / 4) / (3 * E * eta**2)


def _motive(atom: Atom, F, variant: str):
    I, B, F = atom.I, atom.B, mp.mpf(F)
    s2 = SIGMA**2
    if variant == "jwkb-parabolic":
        return lambda c: I / 4 - E * F * c / 8 - B / (4 * c) - 1 / (4 * s2 * c * c)
    if variant == "jwkb-cartesian":
        return lambda c: I - E * F * c - B / (2 * c) - 1 / (4 * s2 * c * c)
    return lambda c: I - E * F * c - B / c


def turning_points(atom: Atom, F, variant: str) -> tuple[mp.mpf, mp.mpf]:
    """The two positive zeros of the motive energy, as roots of c^2 M(c)
    (cubic for the transformed shapes) or c M(c) (quadratic, naive)."""
    I, B, F = atom.I, atom.B, mp.mpf(F)
    s2 = SIGMA**2
    if variant == "jwkb-parabolic":
        coeffs = [-E * F / 8, I / 4, -B / 4, -1 / (4 * s2)]
    elif variant == "jwkb-cartesian":
        coeffs = [-E * F, I, -B / 2, -1 / (4 * s2)]
    else:
        coeffs = [-E * F, I, -B]
    with mp.workdps(20):
        roots = mp.polyroots(coeffs, maxsteps=100, extraprec=40)
    pos = sorted(+r.real for r in roots if abs(mp.im(r)) <= 1e-15 * abs(r) and r.real > 0)
    if len(pos) != 2:
        raise ValueError(f"no barrier at F={F} for {variant}")
    return pos[0], pos[1]


def barrier_G(atom: Atom, F, variant: str) -> mp.mpf:
    """G = 2 sigma * integral of M^(1/2) between the turning points."""
    if variant == "jwkb-naive":
        return naive_G(atom, F)
    c_in, c_out = turning_points(atom, F, variant)
    M = _motive(atom, F, variant)
    with mp.workdps(20):
        integral = mp.quad(lambda c: mp.sqrt(max(M(c), 0)), [c_in, c_out])
    return 2 * SIGMA * integral


def naive_G(atom: Atom, F) -> mp.mpf:
    """Forbes-Deane: G = b I^(3/2) v(f)/F, f = F/F_bs,
    v(f) = sqrt(1+sqrt f) [E(m) - sqrt(f) K(m)], m = (1-sqrt f)/(1+sqrt f)."""
    F = mp.mpf(F)
    f = F / suppression_field(atom, "jwkb-naive")
    if not 0 < f < 1:
        raise ValueError(f"no naive barrier at f={f}")
    r = mp.sqrt(f)
    m = (1 - r) / (1 + r)
    v = mp.sqrt(1 + r) * (mp.ellipe(m) - r * mp.ellipk(m))
    return ll_exponent(atom, F) * v


def jwkb_prefactor(atom: Atom, F, variant: str) -> mp.mpf:
    """P_eff = 2 pi x e^-x with x = (2I/B) eta_in; 1 for the naive barrier."""
    if variant == "jwkb-naive":
        return mp.mpf(1)
    c_in, _ = turning_points(atom, F, variant)
    eta_in = c_in if variant == "jwkb-parabolic" else 2 * c_in
    x = 2 * atom.I / atom.B * eta_in
    return 2 * mp.pi * x * mp.exp(-x)


def jwkb_log_rate(atom: Atom, F, variant: str = "jwkb-parabolic") -> mp.mpf:
    return mp.log(atom.nu * jwkb_prefactor(atom, F, variant)) - barrier_G(atom, F, variant)


def ll_inverse_field(atom: Atom, target: float) -> mp.mpf:
    """Field with K_ll(F) = target.  With X = b I^(3/2)/F,
    ln K = ln(C_FI I/b) + ln X - X, so X - ln X = L and X = -W_-1(-e^-L)."""
    L = mp.log(C_FI * atom.I / B_FN) - mp.log(mp.mpf(target))
    X = -mp.lambertw(-mp.exp(-L), -1).real
    return B_FN * atom.I ** mp.mpf(1.5) / X


def rel_diff(a, b) -> float:
    """|a/b - 1| as a float, for b != 0."""
    return float(abs(mp.mpf(a) / mp.mpf(b) - 1))


def format_tolerance(value) -> float:
    """Largest absolute rounding error of %.9e applied to `value`."""
    v = abs(float(value))
    if v == 0.0 or not math.isfinite(v):
        return 0.0
    return 0.5e-9 * 10.0 ** math.floor(math.log10(v)) * (1 + 1e-9)
