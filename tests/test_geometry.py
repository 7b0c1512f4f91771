"""Parameter validation, dominance circles, and the replay's entry root."""

from __future__ import annotations

import cmath
import math
import random
import re

import pytest

from perimdef.geometry import (
    LENGTH_RANGE,
    ApolloniusCircle,
    AssumptionViolated,
    CircleClass,
    apollonius,
    assumption_clauses,
    classify,
    clamp_unit,
    first_entry,
    validate_params,
)

# Hand-derived clause values for the baseline parameters:
# 1 + 2*0.8/0.36 = 49/9 and 0.8*5 + 1.28/0.36 = 68/9.
CLAUSE_FIRST = 49.0 / 9.0
CLAUSE_SECOND = 68.0 / 9.0


def test_baseline_params_pass_with_expected_clauses(params):
    first, second = assumption_clauses(5.0, 10.0, 1.0, 0.8)
    assert first == pytest.approx(CLAUSE_FIRST, abs=1e-12)
    assert second == pytest.approx(CLAUSE_SECOND, abs=1e-12)
    assert first <= 10.0 and second <= 10.0
    assert params.alpha == pytest.approx(25.0 / 9.0, abs=1e-12)
    assert params.beta == pytest.approx(16.0 / 9.0, abs=1e-12)
    assert params.gamma == pytest.approx(20.0 / 9.0, abs=1e-12)


def test_alpha_minus_beta_is_one_for_random_speeds():
    rng = random.Random(7)
    for _ in range(200):
        nu = rng.uniform(0.01, 0.99)
        rho_a = 0.01
        p = validate_params(1.0, 100.0, rho_a, nu)
        assert abs(p.alpha - p.beta - 1.0) <= 1e-12 * p.alpha


@pytest.mark.parametrize("nu", [1.0, 1.5, 0.0, -0.2])
def test_speed_ratio_must_be_strictly_between_zero_and_one(nu):
    with pytest.raises(AssumptionViolated) as exc:
        validate_params(5.0, 10.0, 1.0, nu)
    assert exc.value.which == "speed"


def test_narrow_annulus_names_binding_clause():
    # both clauses exceed rho_t = 2; the larger one (second, 68/9) is named
    with pytest.raises(AssumptionViolated) as exc:
        validate_params(5.0, 2.0, 1.0, 0.8)
    assert exc.value.which == "second"


def test_first_clause_named_when_it_binds():
    # tiny target: first clause 49/9 > 4 while second is ~3.64 <= 4
    first, second = assumption_clauses(0.1, 4.0, 1.0, 0.8)
    assert first > 4.0 >= second
    with pytest.raises(AssumptionViolated) as exc:
        validate_params(0.1, 4.0, 1.0, 0.8)
    assert exc.value.which == "first"


@pytest.mark.parametrize("bad", [{"r_t": 0.0}, {"rho_t": -1.0}, {"rho_a": 0.0}])
def test_nonpositive_lengths_rejected(bad):
    kwargs = {"r_t": 5.0, "rho_t": 10.0, "rho_a": 1.0, "nu": 0.8}
    kwargs.update(bad)
    with pytest.raises(ValueError):
        validate_params(**kwargs)


@pytest.mark.parametrize("name", ["r_t", "rho_t", "rho_a"])
def test_lengths_outside_the_range_rejected(name):
    """A game with lengths at an end of ``LENGTH_RANGE`` is valid; with any
    length one ulp beyond that end it is refused, naming the length."""
    lo, hi = LENGTH_RANGE
    for game, beyond in (((lo, 10 * lo, lo, 0.5), math.nextafter(lo, 0.0)),
                         ((hi, hi, hi / 10, 0.5), math.nextafter(hi, math.inf))):
        kwargs = dict(zip(("r_t", "rho_t", "rho_a", "nu"), game))
        validate_params(**kwargs)
        kwargs[name] = beyond
        with pytest.raises(ValueError, match=re.escape(f"{name}={beyond!r} is outside")):
            validate_params(**kwargs)


def test_clamp_unit_policy():
    assert clamp_unit(1.0 + 5e-10) == 1.0
    assert clamp_unit(-1.0 - 5e-10) == -1.0
    assert clamp_unit(0.5) == 0.5
    with pytest.raises(ValueError):
        clamp_unit(1.0 + 1e-6)


def test_apollonius_coincident_points_degenerate(params):
    c = apollonius(3 + 4j, 3 + 4j, params)
    assert c.radius == 0.0
    assert c.center.real == pytest.approx(3.0, abs=1e-12)
    assert c.center.imag == pytest.approx(4.0, abs=1e-12)


def test_apollonius_axis_example(params):
    # alpha*10 - beta*11 = (250 - 176)/9 = 74/9, radius gamma*1 = 20/9
    c = apollonius(10 + 0j, 11 + 0j, params)
    assert c.center.real == pytest.approx(74.0 / 9.0, abs=1e-12)
    assert c.center.imag == pytest.approx(0.0, abs=1e-12)
    assert c.radius == pytest.approx(20.0 / 9.0, abs=1e-12)


def _boundary_points(circle: ApolloniusCircle, n: int) -> list[complex]:
    return [
        circle.center + cmath.rect(circle.radius, 2.0 * math.pi * i / n)
        for i in range(n)
    ]


def test_apollonius_defining_property_on_random_pairs(params):
    rng = random.Random(12345)
    for _ in range(500):
        x_a = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        x_d = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        circle = apollonius(x_a, x_d, params)
        tol = 1e-9 * (1.0 + abs(x_a - x_d))
        for x in _boundary_points(circle, 64):
            assert abs(abs(x - x_a) - params.nu * abs(x - x_d)) <= tol


def test_apollonius_rigid_motion_equivariance(params):
    rng = random.Random(99)
    for _ in range(100):
        x_a = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        x_d = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        turn = cmath.rect(1.0, rng.uniform(-math.pi, math.pi))
        shift = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        base = apollonius(x_a, x_d, params)
        moved = apollonius(x_a * turn + shift, x_d * turn + shift, params)
        expect = base.center * turn + shift
        assert abs(moved.center - expect) <= 1e-12 * (1.0 + abs(expect))
        assert abs(moved.radius - base.radius) <= 1e-12 * (1.0 + base.radius)


def test_classify_examples(params):
    g = params.gamma
    assert classify(ApolloniusCircle(4 + 0j, g), params) is CircleClass.BREACH_POSSIBLE
    assert classify(ApolloniusCircle(14 + 0j, g), params) is CircleClass.EXIT_POSSIBLE
    # tangency is inclusive: center exactly at r_t + radius counts as safe
    tangent = ApolloniusCircle(complex(5.0 + g, 0.0), g)
    assert classify(tangent, params) is CircleClass.CAPTURE_GUARANTEED
    # radius wider than half the annulus can violate both sides at once
    wide = ApolloniusCircle(9 + 0j, 7.0)
    assert classify(wide, params) is CircleClass.BREACH_AND_EXIT


def test_classify_scale_invariance(params):
    rng = random.Random(5)
    for _ in range(200):
        x_a = complex(rng.uniform(-18, 18), rng.uniform(-18, 18))
        x_d = complex(rng.uniform(-18, 18), rng.uniform(-18, 18))
        base_cls = classify(apollonius(x_a, x_d, params), params)
        for lam in (0.125, 3.0, 40.0):
            scaled = validate_params(
                lam * params.r_t, lam * params.rho_t, lam * params.rho_a, params.nu
            )
            cls = classify(apollonius(lam * x_a, lam * x_d, scaled), scaled)
            assert cls is base_cls


def test_first_entry_roots():
    # from (-5, 0) along +x at speed 2: the unit disk is entered at s = 2
    p, v = -5 + 0j, 2 + 0j
    assert first_entry(p, v, 1.0, 10.0) == pytest.approx(2.0, abs=1e-15)
    assert first_entry(p, v, 1.0, 1.5) is None  # the piece ends first
    assert first_entry(p, -v, 1.0, 10.0) is None  # moving away
    assert first_entry(-5 + 1.5j, v, 1.0, 10.0) is None  # passes by
    assert first_entry(0.5 + 0j, v, 1.0, 10.0) == 0.0  # starts inside
    # A tangent pass whose discriminant rounds below zero still enters.
    p = complex(-0.723599712379857, 4.0587566386802845)
    v = complex(-0.022942608975423977, -0.7996709552643517)
    radius = 0.8397001746443229
    c = p.real * p.real + p.imag * p.imag - radius * radius
    b = p.real * v.real + p.imag * v.imag
    assert b * b - (v.real * v.real + v.imag * v.imag) * c < 0.0
    assert first_entry(p, v, radius, 20.0) == pytest.approx(5.045419583098643, abs=1e-9)
