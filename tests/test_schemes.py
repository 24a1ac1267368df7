"""Tests for the five one-step maps and the alpha selection rule."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import monosde as m

FIG1 = m.make_fig1()


def _one_step(kind, x, delta, dB=0.0, alpha=None):
    stepper = m.make_stepper(FIG1, m.SchemeConfig(kind, delta, alpha=alpha))
    return stepper(np.array([x]), np.array([dB]))[0]


def test_kinds_tuple():
    assert m.KINDS == ("em", "splitstep", "implicit", "tamed", "tte", "em-modified")
    with pytest.raises((KeyError, ValueError)):
        m.make_stepper(FIG1, m.SchemeConfig("milstein", 0.05))


def test_explicit_em_blowup_step():
    # one explicit step from 100 lands at 100 + 0.05*(-1000100)
    np.testing.assert_allclose(_one_step("em", 100.0, 0.05), -49905.0)


def test_tamed_step_from_large_state():
    got = _one_step("tamed", 100.0, 0.05)
    np.testing.assert_allclose(got, 100.0 - 50005.0 / 50006.0, rtol=1e-14)


@pytest.mark.parametrize("alpha,expected", [
    (1.0, 100.0 - 50005.0 / 501.0),
    (1.3, 23.18740399385561),
    (5.0, 100.0 - 50005.0 / 2501.0),
])
def test_tte_step_from_large_state(alpha, expected):
    np.testing.assert_allclose(_one_step("tte", 100.0, 0.05, alpha=alpha),
                               expected, rtol=1e-13)


def test_tte_default_alpha_comes_from_selection_rule():
    got = _one_step("tte", 100.0, 0.05)
    want = 100.0 + 0.05 * (-1000100.0) / (1.0 + 0.05 * 1.05 * 100.0**2)
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_splitstep_and_implicit_reduce_to_fdelta_without_noise():
    z = m.solve_fdelta(FIG1, np.array([100.0]), 0.05)[0]
    np.testing.assert_allclose(_one_step("splitstep", 100.0, 0.05), z, atol=1e-10)
    np.testing.assert_allclose(_one_step("implicit", 100.0, 0.05), z, atol=1e-10)


def test_em_modified_equals_splitstep_pathwise():
    rng = np.random.default_rng(7)
    a = m.make_stepper(FIG1, m.SchemeConfig("splitstep", 0.05))
    b = m.make_stepper(FIG1, m.SchemeConfig("em-modified", 0.05))
    x = np.array([1.0])
    y = np.array([1.0])
    for _ in range(40):
        dB = rng.normal(0.0, np.sqrt(0.05), size=1)
        x = a(x, dB)
        y = b(y, dB)
        np.testing.assert_allclose(y, x, atol=1e-10)


def test_steppers_are_deterministic():
    x, dB = np.array([0.7]), np.array([0.11])
    for kind in m.KINDS:
        stepper = m.make_stepper(FIG1, m.SchemeConfig(kind, 0.05, alpha=1.3))
        np.testing.assert_array_equal(stepper(x, dB), stepper(x, dB))


def test_tamed_increment_bounded_by_one():
    # |delta*U0| / (1 + delta*|U0|) < 1 pointwise; after x + inc rounds at
    # scale 1e6 the recovered difference can equal 1.0 exactly, so the strict
    # form is only checkable at scales float64 resolves
    rng = np.random.default_rng(8)
    stepper = m.make_stepper(FIG1, m.SchemeConfig("tamed", 0.05))
    x = rng.uniform(-1e6, 1e6, size=(500, 1))
    out = stepper(x, np.zeros((500, 1)))
    assert np.max(np.abs(out - x)) <= 1.0
    x = rng.uniform(-1e3, 1e3, size=(500, 1))
    out = stepper(x, np.zeros((500, 1)))
    assert np.max(np.abs(out - x)) < 1.0


def test_select_alpha_fig1():
    alpha, eps_fn = m.select_alpha(FIG1.constants)
    np.testing.assert_allclose(alpha, 1.05)
    assert eps_fn(0.05) < 1.0


def test_select_alpha_real_branch():
    # with tamed_b0^2 >= growth_c0 the selection uses b0 + sqrt(b0^2 - c0)
    c = m.AssumptionConstants(b0=2.0, b1=0.0, c0=0.0, c1=0.0, c2=9.0, q=2.0,
                              K=1.0, tamed_b0=2.0, tamed_b1=0.0,
                              growth_c0=3.0, growth_c1=1.0)
    alpha, _ = m.select_alpha(c)
    np.testing.assert_allclose(alpha, 1.05 * (2.0 + 1.0))


def test_epsilon_delta_value():
    np.testing.assert_allclose(m.epsilon_delta(FIG1.constants, 1.3, 0.05),
                               0.9986775110758448, rtol=1e-14)


def test_epsilon_delta_needs_large_enough_alpha():
    # alpha at the threshold gives no contraction; above it we get eps < 1
    assert m.epsilon_delta(FIG1.constants, 1.0, 0.05) == 1.0
    assert m.epsilon_delta(FIG1.constants, 1.05, 0.05) < 1.0


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        m.make_stepper(FIG1, m.SchemeConfig("tte", -0.05))


def test_vector_state_steps():
    p = m.make_coupled_2d(1.0, 1.0)
    stepper = m.make_stepper(p, m.SchemeConfig("em", 0.01))
    x = np.array([[0.3, -0.7], [1.0, 1.0]])
    out = stepper(x, np.zeros((2, 2)))
    np.testing.assert_allclose(out, x + 0.01 * p.drift(x))


@given(b0=st.floats(1e-3, 1e3), c0=st.floats(0.0, 1e4),
       delta=st.floats(1e-6, 10.0))
def test_selected_alpha_never_expands(b0, c0, delta):
    constants = dataclasses.replace(FIG1.constants, tamed_b0=b0, growth_c0=c0)
    alpha, eps_fn = m.select_alpha(constants)
    assert alpha > 0
    assert eps_fn(delta) == m.epsilon_delta(constants, alpha, delta)
    assert eps_fn(delta) <= 1.0
