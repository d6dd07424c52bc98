"""Rollout checks: one-step predictions, free-running stability, settling,
and teacher-forced consistency with synthesized data."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pannkit as pk
from pannkit.errors import EmptyDataset, NonFinite, ShapeMismatch
from pannkit.pann import rollout_free, rollout_teacher_forced, settle_to_steady_state, step
from pannkit.signals import WaveformDataset, step_inputs_one_period
from pannkit.statespace import DiscreteTransition

DT = pk.DEFAULT_DT


def test_step_is_the_plain_dot_product(star):
    trans = pk.dab_transition(star, DT)
    z = np.array([1.5, 200.0, -200.0])
    expected = trans.w[0, 0] * 1.5 + trans.w[0, 1] * 200.0 + trans.w[0, 2] * (-200.0)
    got = step(trans, z)
    assert got.shape == (1,)
    assert got[0] == expected, f"step {got[0]} vs dot product {expected}"


def test_step_rejects_wrong_length(star):
    trans = pk.dab_transition(star, DT)
    with pytest.raises(ShapeMismatch):
        step(trans, [1.5, 0.1, 200.0, -200.0])
    with pytest.raises(ShapeMismatch):
        step(trans, np.zeros((4, 2)))


def test_step_input_rejects_nonfinite(star):
    trans = pk.dab_transition(star, DT)
    with pytest.raises(NonFinite):
        step(trans, [np.inf, 0.0, 0.0])
    block = np.zeros((5, 3))
    block[3, 1] = np.nan
    with pytest.raises(NonFinite):
        step(trans, block)


def test_step_on_a_block_is_one_product(star):
    """A (512, 3) block gives the block product zs @ W^T byte for byte (a
    loop over its rows rounds otherwise), and one z gives W z."""
    trans = pk.dab_transition(star, DT)
    zs = np.random.default_rng(20).uniform(-1.0, 1.0, (512, 3)) * [30.0, 200.0, 200.0]
    got = step(trans, zs)
    assert got.shape == (512, 1)
    assert got.tobytes() == (zs @ trans.w.T).tobytes()
    for z in zs:
        assert step(trans, z).tobytes() == (trans.w @ z).tobytes()


@given(
    a=st.floats(-10, 10), b=st.floats(-10, 10), scale=st.floats(-3, 3),
)
@settings(max_examples=100, deadline=None)
def test_step_is_linear_in_z(a, b, scale):
    trans = pk.dab_transition(pk.dab_params(), DT)
    za = np.array([a, 200.0, -200.0])
    zb = np.array([b, -200.0, 200.0])
    lhs = step(trans, za + scale * zb)
    rhs = step(trans, za) + scale * step(trans, zb)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12), "step must be linear in z"


def test_rollout_constant_input_reaches_dc_fixed_point(star):
    trans = pk.dab_transition(star, DT)
    # constant u: fixed point x* solves x = w0 x + w1 u1 + w2 u2
    u = np.tile([[100.0], [50.0]], (1, 50000))
    states = rollout_free(trans, [0.0], u)
    w = trans.w[0]
    x_fix = (w[1] * 100.0 + w[2] * 50.0) / (1.0 - w[0])
    assert states[0, -1] == pytest.approx(x_fix, rel=1e-4), (
        f"rollout {states[0, -1]} vs fixed point {x_fix}"
    )


def test_rollout_zero_everything_stays_zero(star):
    trans = pk.dab_transition(star, DT)
    states = rollout_free(trans, [0.0], np.zeros((2, 10)))
    assert states.shape == (1, 11)
    assert np.all(states == 0.0)


def test_rollout_detects_divergence():
    # an expanding scalar map: W = [2 | 0 0]
    trans = DiscreteTransition(np.array([[2.0, 0.0, 0.0]]), None, None, DT)
    with pytest.raises(NonFinite):
        rollout_free(trans, [1.0], np.zeros((2, 200)))


def test_rollout_rejects_bad_shapes(star):
    trans = pk.dab_transition(star, DT)
    with pytest.raises(ShapeMismatch):
        rollout_free(trans, [0.0, 0.0], np.zeros((2, 5)))
    with pytest.raises(ShapeMismatch):
        rollout_free(trans, [0.0], np.zeros((3, 5)))
    with pytest.raises(ShapeMismatch):
        rollout_free(trans, [0.0], np.zeros((2, 0)))


def test_rollout_names_first_overflowing_step():
    # x_k = 2^k first exceeds 1e12 at k = 40
    trans = DiscreteTransition(np.array([[2.0, 0.0, 0.0]]), None, None, DT)
    with pytest.raises(NonFinite, match="at step 40;"):
        rollout_free(trans, [1.0], np.zeros((2, 200)))
    # an infinite input at column 5 makes state 6 the first non-finite one
    trans = DiscreteTransition(np.array([[0.5, 1.0, 0.0]]), None, None, DT)
    inputs = np.zeros((2, 20))
    inputs[0, 5] = np.inf
    with pytest.raises(NonFinite, match="at step 6;"):
        rollout_free(trans, [0.0], inputs)


def matvec_loop(w, x0, inputs):
    """The free rollout's reference: each step W [x; u] on Python floats,
    each row summed left to right."""
    rows, x, states = w.tolist(), list(x0), [list(x0)]
    for u in inputs.T.tolist():
        z, x = x + u, []
        for row in rows:
            acc = row[0] * z[0]
            for j in range(1, len(z)):
                acc += row[j] * z[j]
            x.append(acc)
        states.append(x)
    return np.array(states).T


@pytest.mark.parametrize("d_u", [0, 1, 2])
@pytest.mark.parametrize("d_x", [1, 2])
def test_rollout_equals_a_matvec_order_loop(d_x, d_u):
    """Forming the input terms before the loop changes no bit: weights and
    inputs span several magnitudes, so any other summation order would
    round differently."""
    rng = np.random.default_rng(10 * d_x + d_u)
    shape = (d_x, d_x + d_u)
    w = rng.uniform(-0.45, 0.45, shape) * 10.0 ** rng.integers(-3, 1, shape)
    inputs = rng.standard_normal((d_u, 300)) * 10.0 ** rng.integers(-2, 3, (d_u, 300))
    x0 = rng.standard_normal(d_x)
    states = rollout_free(DiscreteTransition(w, None, None, DT), x0, inputs)
    assert states.tobytes() == matvec_loop(w, x0, inputs).tobytes()


def test_settle_is_immediate_for_memoryless_map():
    # W = [0 | 1 0]: the state equals the last input, so the orbit is exact
    trans = DiscreteTransition(np.array([[0.0, 1.0, 0.0]]), None, None, DT)
    inputs = step_inputs_one_period(pk.ModulationSpec())
    settled = settle_to_steady_state(trans, inputs)
    states = settled.states[0]
    assert states[0] == inputs[0, -1], "the orbit starts at the period's last input"
    assert np.array_equal(states[1:], inputs[0]), "each state must equal the last input"
    assert settled.converged and settled.residual == 0.0


def test_settle_reference_converges(star):
    trans = pk.dab_transition(star, DT)
    inputs = step_inputs_one_period(pk.ModulationSpec(phase_shift=0.25))
    settled = settle_to_steady_state(trans, inputs, tol=1e-9)
    assert settled.converged, "reference model must settle"
    assert settled.cycles <= 2, f"settling rolled out {settled.cycles} periods"
    # the settled period must be stationary: one more period reproduces it
    again = rollout_free(trans, settled.states[:, 0], inputs)
    assert np.allclose(again, settled.states, rtol=0, atol=1e-6 * 200.0)


def test_settle_zero_tolerance_reports_not_settled(star):
    trans = pk.dab_transition(star, DT)
    inputs = step_inputs_one_period(pk.ModulationSpec(phase_shift=0.25))
    settled = settle_to_steady_state(trans, inputs, tol=0.0)
    scale = np.max(np.abs(settled.states))
    assert not settled.converged, "tol=0 leaves no room for rounding"
    assert 0.0 < settled.residual <= 1e-12 * scale, (
        f"periodic residual {settled.residual:.3e} on a state scale of {scale:.3g}"
    )


def test_settled_state_is_periodic_over_ten_periods(star):
    trans = pk.dab_transition(star, DT)
    spec = pk.ModulationSpec(phase_shift=0.25, n_periods=10)
    one = pk.ModulationSpec(phase_shift=0.25)
    settled = settle_to_steady_state(trans, step_inputs_one_period(one), tol=1e-12)
    x0 = settled.states[:, 0]
    ten = rollout_free(trans, x0, np.tile(step_inputs_one_period(one), (1, 10)))
    p = spec.steps_per_period
    for c in range(10):
        seg = ten[0, c * p : (c + 1) * p]
        assert np.allclose(seg, ten[0, :p], rtol=0, atol=1e-6), (
            f"cycle {c} deviates from the first by "
            f"{np.max(np.abs(seg - ten[0, :p])):.3e}"
        )


def assert_matches_brute_force(trans, inputs, periods=200, tol=1e-9):
    """The closed-form start x0 against `periods` periods rolled out from zero.

    From zero, the state after n periods is exactly (I - Phi^n) x0 with
    Phi = W_x^P; that is x0 itself once the transient has decayed, which on
    the slow corner of the DAB box (large L_k, small R_L) takes far more
    than 200 periods.
    """
    settled = settle_to_steady_state(trans, inputs, tol=tol)
    assert settled.converged and settled.cycles == 2
    x0 = settled.states[:, 0]
    p = inputs.shape[1]
    brute = rollout_free(trans, np.zeros(trans.dim_x), np.tile(inputs, (1, periods)))
    decay = np.linalg.matrix_power(trans.w[:, : trans.dim_x], p * periods)
    expected = x0 - decay @ x0
    scale = np.max(np.abs(settled.states))
    err = np.max(np.abs(brute[:, -1] - expected))
    assert err <= tol * scale, f"brute force differs by {err:.3e} on a scale of {scale:.3g}"


@given(
    lk=st.floats(10e-6, 200e-6),
    rl=st.floats(0.01, 3.0),
    n=st.floats(0.8, 1.2),
    phase=st.floats(0.05, 0.45),
)
@settings(max_examples=30, deadline=None)
def test_closed_form_start_matches_brute_force_dab(lk, rl, n, phase):
    trans = pk.dab_transition(pk.dab_params([lk, rl, n]), DT)
    inputs = step_inputs_one_period(pk.ModulationSpec(phase_shift=phase))
    assert_matches_brute_force(trans, inputs)


@given(phase=st.floats(0.05, 0.45))
@settings(max_examples=10, deadline=None)
def test_closed_form_start_matches_brute_force_generic(phase):
    # complex eigenvalues -2.5e4 +- 8.7e3 i: a damped oscillator
    model = pk.ContinuousModel(
        dim_x=2,
        dim_u=2,
        dim_theta=0,
        a_of=lambda _v: np.array([[-2e4, 1e4], [-1e4, -3e4]]),
        b_of=lambda _v: np.array([[1e3, -1e3], [0.0, 5e2]]),
    )
    trans = pk.transition_values(model, np.array([]), DT)
    inputs = step_inputs_one_period(pk.ModulationSpec(phase_shift=phase))
    assert_matches_brute_force(trans, inputs)


@pytest.mark.parametrize(
    "w_x", [[[1.0]], [[-2.0]], [[0.0, 1.0], [-1.0, 0.0]]], ids=["unit", "expanding", "rotation"]
)
def test_settle_rejects_spectral_radius_at_least_one(w_x):
    w_x = np.array(w_x)
    trans = DiscreteTransition(np.hstack([w_x, np.ones((w_x.shape[0], 2))]), None, None, DT)
    inputs = step_inputs_one_period(pk.ModulationSpec())
    with pytest.raises(NonFinite, match="spectral radius"):
        settle_to_steady_state(trans, inputs)


def test_teacher_forced_matches_w_times_z(star, train_dataset):
    trans = pk.dab_transition(star, DT)
    pred = rollout_teacher_forced(trans, train_dataset)
    z, targets = train_dataset.stacked()
    assert pred.shape == targets.shape
    assert np.array_equal(pred, trans.w @ z)
    # the data was generated by this very transition, so predictions are exact
    assert np.allclose(pred, targets, rtol=0, atol=1e-12), (
        f"max residual {np.max(np.abs(pred - targets)):.3e} at the true parameters"
    )


def test_teacher_forced_error_is_linear_in_w_offset(star, train_dataset):
    trans_star = pk.dab_transition(star, DT)
    other = pk.dab_params([80e-6, 1.0, 0.9])
    trans_other = pk.dab_transition(other, DT)
    z, targets = train_dataset.stacked()
    pred = rollout_teacher_forced(trans_other, train_dataset)
    assert np.allclose(
        pred - targets, (trans_other.w - trans_star.w) @ z, rtol=0, atol=1e-12
    ), "teacher-forced residual must equal (W - W*) z on noiseless data"


def test_teacher_forced_rejects_empty(star):
    trans = pk.dab_transition(star, DT)
    with pytest.raises(EmptyDataset):
        rollout_teacher_forced(trans, WaveformDataset([]))
