"""Property checks: the field-array kernels against the scalar path."""

import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esfi import barrier
from esfi.barrier import (
    BarrierArrays,
    MotiveModel,
    MotiveVariant,
    _rate_jwkb_arrays,
    motive_peak,
    rate_jwkb,
    rate_jwkb_array,
    suppression_field,
)
from esfi.errors import BarrierSuppressed, EsfiError, ShallowBarrierWarning
from esfi.hydrogenic import make_atom
from esfi.rates import rate_ll, rate_ll_array


@st.composite
def atoms_and_grids(draw):
    Z = draw(st.floats(0.1, 30.0))
    I = draw(st.one_of(st.none(), st.floats(0.1, 1e4)))
    atom = make_atom(Z, I)
    top = 1.3 * max(suppression_field(atom, v) for v in MotiveVariant)
    f_max = top * 10.0 ** draw(st.floats(-6.0, 0.0))
    f_min = f_max * 10.0 ** -draw(st.floats(0.01, 8.0))
    return atom, np.geomspace(f_min, f_max, draw(st.integers(2, 40)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(atoms_and_grids())
def test_array_kernels_match_scalar_path(case):
    atom, F = case
    r = rate_ll_array(atom, F)
    for i, f in enumerate(F):
        s = rate_ll(atom, float(f), allow_shallow=True)
        batch = (r.K_e[i], r.exponent[i], r.log_K_e[i], r.T[i])
        assert batch == (s.K_e, s.exponent, s.log_K_e, s.T)
        assert r.deep[i] == (s.regime == "deep")
    for variant in MotiveVariant:
        b = rate_jwkb_array(variant, atom, F)
        for i, f in enumerate(F):
            try:
                s = rate_jwkb(MotiveModel(variant, atom, float(f)))
            except BarrierSuppressed:
                assert math.isnan(b.G[i])
                continue
            except EsfiError as exc:
                raise AssertionError(f"{variant.value} at {f!r}: {exc}") from exc
            assert abs(b.G[i] - s.G) <= 1e-13 * s.G
            assert abs(b.log_K_e[i] - s.log_K_e) <= 1e-13 * max(1.0, s.G)
            assert abs(b.coord_out[i] / s.coord_out - 1.0) <= 1e-13


@pytest.mark.parametrize("atom", [make_atom(1.0), make_atom(0.6623), make_atom(7.5918, 157.678)],
                         ids=["H", "Z=0.6623", "Z=7.59,I=157.7"])
@pytest.mark.parametrize("variant", list(MotiveVariant))
def test_array_solver_just_below_suppression(variant, atom):
    # near f_bs the barrier's peak M_peak is A0 less terms of size A0, so
    # numpy's and math's arithmetic, each polishing nearly merged zeros,
    # round M apart by some eps A0, and G (an integral of M^(1/2)) by some
    # eps A0/M_peak of itself: more than 1e-13 of G (hydrogen-like
    # Z = 0.6623 misses it by 2.3e-12 at f_bs (1 - 3.0e-6)), never more
    # than 0.11 eps A0/M_peak of G over 28 800 random fields, so the bound
    # is 0.25 eps A0/M_peak: near f_bs (1 - 1e-12), M_peak/A0 is about
    # 1e-12, and eps A0/M_peak alone would let G drift by 2e-4 of itself
    f_bs = suppression_field(atom, variant)
    F = f_bs * (1.0 - np.geomspace(1e-12, 1e-2, 41))
    if atom.Z == 0.6623 and variant is MotiveVariant.TRANSFORMED_PARABOLIC:
        F[0] = 16.82272489349526
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ShallowBarrierWarning)
        b = rate_jwkb_array(variant, atom, F)
        for i, f in enumerate(F):
            model = MotiveModel(variant, atom, float(f))
            try:
                s = rate_jwkb(model)
            except BarrierSuppressed:
                assert math.isnan(b.G[i])
                continue
            bound = max(1e-13, 0.25 * sys.float_info.epsilon * model._coeffs[0]
                        / motive_peak(model)[1])
            assert abs(b.G[i] - s.G) <= bound * s.G
            assert abs(b.log_K_e[i] - s.log_K_e) <= 1e-13 * max(1.0, abs(s.log_K_e))


@pytest.mark.parametrize("atom", [make_atom(1.0), make_atom(0.37), make_atom(7.3)],
                         ids=["H", "Z=0.37", "Z=7.3"])
@pytest.mark.parametrize("variant", list(MotiveVariant))
def test_a_fields_G_does_not_depend_on_the_fields_beside_it(variant, atom):
    # each field's quadrature nodes are summed as its own row, so a field
    # in a block of n gets the bits it gets alone; the fields are shuffled
    # so that the first n of them span the whole range, suppressed included
    f_bs = suppression_field(atom, variant)
    F = np.random.default_rng(0).permutation(np.geomspace(1e-3 * f_bs, 1.1 * f_bs, 1025))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ShallowBarrierWarning)
        alone = np.array([rate_jwkb_array(variant, atom, F[i:i + 1]).G[0] for i in range(F.size)])
        for n in [*range(1, 71), 1023, 1024, 1025]:
            G = rate_jwkb_array(variant, atom, F[:n]).G
            assert np.array_equal(G, alone[:n], equal_nan=True), n


def _edge_grid(atom, n):
    """n fields over H's barriers, with the edge cases spread among them:
    e F underflowing, G past the float range, composite-rule fields and
    both suppression fields."""
    specials = [5e-324, 1e-310, 1e-30, 1e-200]
    specials += [suppression_field(atom, v) * s for v in MotiveVariant for s in (1.0, 1.0 + 1e-7)]
    F = np.geomspace(0.5, 1.3 * suppression_field(atom, MotiveVariant.TRANSFORMED_PARABOLIC), n)
    F[np.linspace(0, n - 1, min(n, len(specials))).astype(int)] = specials[:n]
    return F


@pytest.mark.parametrize("n", [1, 2, 31, 1023, 1024, 1025, 2049])
def test_stacked_solve_matches_one_shape_at_a_time(n):
    # each barrier is solved in blocks of its own shape (the Cartesian
    # columns are the parabolic solve's rows, coordinates halved), so a
    # column's bits do not depend on the shapes asked for beside it
    atom = make_atom(1.0)
    F = _edge_grid(atom, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ShallowBarrierWarning)
        alone = {v: rate_jwkb_array(v, atom, F) for v in MotiveVariant}
        one_shape = {v: _rate_jwkb_arrays([v], atom, F)[0] for v in MotiveVariant}
        for size in (1, 2, 3):
            for variants in itertools.permutations(MotiveVariant, size):
                stacked = _rate_jwkb_arrays(variants, atom, F)
                for variant, (arrays, refused, template) in zip(variants, stacked):
                    for name, a, b in zip(BarrierArrays._fields, arrays, alone[variant]):
                        assert np.array_equal(a, b, equal_nan=True), (variants, variant, name)
                    _, refusals, template_alone = one_shape[variant]
                    assert refused == refusals, (variants, variant)
                    assert template == template_alone, (variants, variant)


def test_cartesian_columns_take_the_parabolic_solve(monkeypatch):
    # the Cartesian barrier is the parabolic one at z = eta/2, so asking
    # for every shape integrates the transformed rows once, as many as the
    # parabolic shape alone, and never with the Cartesian A0 = I
    atom = make_atom(1.0)
    f_bs = suppression_field(atom, MotiveVariant.TRANSFORMED_PARABOLIC)
    F = np.geomspace(2.0, 1.2 * f_bs, 1500)
    rows = []
    strength_pair = barrier._strength_pair

    def spy(k, c_in, *args, **kwargs):
        if k[3] != 0.0:
            rows.append((k[0], np.size(c_in)))
        return strength_pair(k, c_in, *args, **kwargs)

    def fallback(model, **kwargs):
        raise AssertionError(f"{model.variant.value} at {model.F!r} left to rate_jwkb")

    monkeypatch.setattr(barrier, "_strength_pair", spy)
    monkeypatch.setattr(barrier, "rate_jwkb", fallback)
    rate_jwkb_array(MotiveVariant.TRANSFORMED_PARABOLIC, atom, F)
    alone = sum(n for _, n in rows)
    rows.clear()
    _rate_jwkb_arrays(list(MotiveVariant), atom, F)
    assert sum(n for _, n in rows) == alone > 0
    assert all(A0 != atom.I for A0, _ in rows)


def test_cartesian_columns_below_the_normal_floats_come_from_rate_jwkb():
    # where e F/8 is not a normal float it has lost bits that e F keeps,
    # so the parabolic solve is no longer the Cartesian barrier halved:
    # rate_jwkb settles those fields (I tiny enough that barriers stand)
    atom = make_atom(0.1, 1e-152)
    F = np.geomspace(1e-322, 1e-305, 24)
    b = rate_jwkb_array(MotiveVariant.TRANSFORMED_CARTESIAN, atom, F)
    for i, f in enumerate(F.tolist()):
        s = rate_jwkb(MotiveModel(MotiveVariant.TRANSFORMED_CARTESIAN, atom, f))
        assert abs(b.G[i] - s.G) <= 1e-13 * s.G, f
        assert abs(b.coord_in[i] / s.coord_in - 1.0) <= 1e-13, f


@pytest.mark.parametrize("variant", list(MotiveVariant))
def test_fields_within_the_margin_past_suppression_go_to_rate_jwkb(monkeypatch, variant):
    # within 1e-6 past the suppression field, rounding could turn the
    # block's verdict, so rate_jwkb settles each such field and its answer
    # stands: nan where it raises, its solution where it solves
    atom = make_atom(1.0)
    f_bs = suppression_field(atom, variant)
    F = np.linspace(f_bs, f_bs * (1.0 + 3e-6), 7)
    within = F < f_bs * (1.0 + barrier._SUPPRESSION_MARGIN)
    b = rate_jwkb_array(variant, atom, F)
    for i, f in enumerate(F.tolist()):
        with pytest.raises(BarrierSuppressed):
            rate_jwkb(MotiveModel(variant, atom, f))
        assert all(math.isnan(row[i]) for row in b)

    stand_in = rate_jwkb(MotiveModel(variant, atom, 0.5 * f_bs))
    solves = []

    def solved(model, **kwargs):
        solves.append(model.F)
        return stand_in

    monkeypatch.setattr(barrier, "rate_jwkb", solved)
    b = rate_jwkb_array(variant, atom, F)
    assert solves == F[within].tolist()
    for name, row in zip(BarrierArrays._fields, b):
        assert (row[within] == getattr(stand_in, name)).all(), name
        assert np.isnan(row[~within]).all(), name
