"""Discretization checks: the generic dense-solve route against the scalar
closed form, derivative tensors against numeric differentiation, and the
step-size bound."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pannkit as pk
from pannkit.errors import OutOfBounds, SingularDiscretization, StepTooLarge
from pannkit.statespace import DiscreteTransition, discretize

DT = pk.DEFAULT_DT


def w_closed_form(values, dt):
    """Independent arithmetic for the scalar transition row."""
    lk, rl, n = values
    den = lk + rl * dt
    return np.array([[lk / den, dt / den, -n * dt / den]])


def test_param_vector_rejects_out_of_box():
    with pytest.raises(OutOfBounds):
        pk.dab_params([5e-6, 1.8, 1.0])
    with pytest.raises(OutOfBounds):
        pk.dab_params([63e-6, 1.8, 1.5])


def test_param_vector_rejects_nonfinite():
    with pytest.raises(OutOfBounds):
        pk.dab_params([np.nan, 1.8, 1.0])


def test_with_values_checks_only_the_new_values(star):
    moved = star.with_values([100e-6, 1.0, 1.1])
    assert moved.values.tolist() == [100e-6, 1.0, 1.1] and moved.lower is star.lower
    assert star.values.tolist() == [63e-6, 1.8, 1.0], "the original keeps its values"
    for values, message in [
        ([np.nan, 1.8, 1.0], "non-finite"),
        ([63e-6, np.inf, 1.0], "non-finite"),
        ([63e-6, 1.8, 1.5], "outside box"),
        ([63e-6, 1.8], "parameter values"),
    ]:
        with pytest.raises(OutOfBounds, match=message):
            star.with_values(values)


def test_param_vector_clip_and_contains(star):
    clipped = star.clip([1.0, -5.0, 1.0])
    assert np.all(clipped == [200e-6, 0.01, 1.0]), f"clip result {clipped}"
    assert star.contains(clipped), "clipped values must land inside the box"
    assert not star.contains([1.0, -5.0, 1.0])


def test_zero_dynamics_transition_is_identity_and_scaled_b():
    b = np.array([[1.0], [2.0]])
    model = pk.ContinuousModel(
        dim_x=2, dim_u=1, dim_theta=0,
        a_of=lambda _v: np.zeros((2, 2)),
        b_of=lambda _v, _b=b: _b,
    )
    trans = pk.transition_values(model, np.array([]), DT)
    expected = np.hstack([np.eye(2), b * DT])
    assert np.allclose(trans.w, expected, rtol=0, atol=1e-15), (
        f"A=0 must give [I | B*dt], got {trans.w}"
    )


def test_reference_transition_values(star):
    trans = pk.dab_transition(star, DT)
    den = 63e-6 + 1.8 * DT
    expected = np.array([[63e-6 / den, DT / den, -DT / den]])
    assert np.allclose(trans.w, expected, rtol=1e-15, atol=0), (
        f"reference W {trans.w} vs {expected}"
    )
    # first entry just below 1, row sum just above it
    assert 0.997 < trans.w[0, 0] < 1.0
    assert np.sum(np.abs(trans.w)) > 1.0


def test_zero_resistance_transition():
    theta = pk.dab_params([63e-6, 0.01, 1.0])
    # with the smallest admissible R_L the denominator is nearly L_k
    trans = pk.dab_transition(theta, DT)
    den = 63e-6 + 0.01 * DT
    assert trans.w[0, 0] == 63e-6 / den
    assert trans.w[0, 1] == DT / den
    assert trans.w[0, 2] == -DT / den


def test_generic_route_matches_closed_form(star, model):
    generic = discretize(model, star.values, DT)
    closed = pk.dab_transition(star, DT)
    assert np.allclose(generic.w, closed.w, rtol=1e-13, atol=0), (
        f"dense solve {generic.w} vs closed form {closed.w}"
    )
    assert np.allclose(generic.dw_dtheta, closed.dw_dtheta, rtol=1e-12, atol=0), (
        "first-derivative tensors disagree between routes"
    )
    assert generic.d2w_dtheta2 is None, "generic route must not fabricate d2W"


@given(
    lk=st.floats(10e-6, 200e-6),
    rl=st.floats(0.01, 3.0),
    n=st.floats(0.8, 1.2),
)
@settings(max_examples=200, deadline=None)
def test_routes_agree_across_box(lk, rl, n):
    model = pk.dab_model()
    theta = pk.dab_params([lk, rl, n])
    generic = discretize(model, theta.values, DT)
    closed = pk.dab_transition(theta, DT)
    oracle = w_closed_form([lk, rl, n], DT)
    assert np.allclose(generic.w, oracle, rtol=1e-13, atol=0)
    assert np.allclose(closed.w, oracle, rtol=1e-14, atol=0)


def test_discretize_rejects_singular_system():
    # I - A*dt singular when A = (1/dt) I
    model = pk.ContinuousModel(
        dim_x=1, dim_u=1, dim_theta=0,
        a_of=lambda _v: np.array([[1.0 / DT]]),
        b_of=lambda _v: np.array([[1.0]]),
    )
    with pytest.raises(SingularDiscretization):
        pk.transition_values(model, np.array([]), DT)


def test_discretize_rejects_nonpositive_dt(star, model):
    with pytest.raises(SingularDiscretization):
        pk.dab_transition(star, 0.0)
    with pytest.raises(SingularDiscretization):
        discretize(model, star.values, -1e-9)


def test_dab_transition_rejects_out_of_box_theta(star):
    bad = pk.ParamVector([63e-6, 1.8, 1.0], star.lower, star.upper, star.names)
    bad.values = np.array([300e-6, 1.8, 1.0])  # bypass construction check
    with pytest.raises(OutOfBounds):
        pk.dab_transition(bad, DT)


def test_dab_model_checks_theta_against_its_box(star):
    wide = pk.ParamVector(star.values, [5e-6, 0.01, 0.8], star.upper, star.names)
    values = np.array([5e-6, 1.8, 1.0])
    trans = pk.transition_values(pk.dab_model(wide), values, DT)
    assert np.array_equal(trans.w, pk.dab_transition(wide.with_values(values), DT).w)
    with pytest.raises(OutOfBounds):
        pk.transition_values(pk.dab_model(), values, DT)
    with pytest.raises(OutOfBounds):
        pk.transition_values(pk.dab_model(wide), [4e-6, 1.8, 1.0], DT)


def box_block(star, n, seed):
    """n random thetas in the reference box followed by its eight corners."""
    rng = np.random.default_rng(seed)
    corners = np.array(np.meshgrid(*zip(star.lower, star.upper))).reshape(3, -1).T
    return np.vstack([rng.uniform(star.lower, star.upper, size=(n, 3)), corners])


def python_float_tensors(lk, rl, n, dt):
    """W, dW and d2W at one theta in Python float arithmetic, with C pow for
    the square and the cube of L_k + R_L*dt, flattened."""
    den = lk + rl * dt
    d2, d3 = den**2, den**3
    s = dt / d2
    w = [lk / den, dt / den, -n * dt / den]
    dw = [s * rl, s * -lk, 0.0, -s, s * -dt, 0.0, s * n, s * (n * dt), s * -den]
    w1_01, w2_01, w3_01 = dt * (lk - rl * dt) / d3, 2 * dt**2 / d3, -2 * n * dt**2 / d3
    w3_02, w3_12 = dt / d2, dt**2 / d2
    d2w = [
        -2 * rl * dt / d3, w1_01, 0.0, w1_01, 2 * lk * dt**2 / d3, 0.0, 0.0, 0.0, 0.0,
        2 * dt / d3, w2_01, 0.0, w2_01, 2 * dt**3 / d3, 0.0, 0.0, 0.0, 0.0,
        -2 * n * dt / d3, w3_01, w3_02, w3_01, 0.0, w3_12, w3_02, w3_12, 0.0,
    ]
    return np.array(w), np.array(dw), np.array(d2w)


def test_batched_transition_equals_stacked_scalar_calls(star, model):
    block = box_block(star, 200, seed=557)
    batched = pk.dab_transition(block, DT)
    assert batched.w.shape == (208, 1, 3)
    assert batched.dw_dtheta.shape == (208, 1, 3, 3)
    assert batched.d2w_dtheta2.shape == (208, 1, 3, 3, 3)
    via_model = pk.transition_values(model, block, DT)
    for i, values in enumerate(block):
        one = pk.dab_transition(star.with_values(values), DT)
        for got, via, want in (
            (batched.w, via_model.w, one.w),
            (batched.dw_dtheta, via_model.dw_dtheta, one.dw_dtheta),
            (batched.d2w_dtheta2, via_model.d2w_dtheta2, one.d2w_dtheta2),
        ):
            assert got[i].tobytes() == want.tobytes() == via[i].tobytes(), f"row {i}"
    # One theta runs the block's numpy arithmetic, so the eight corners, where
    # the suprema are attained, are also checked against Python floats.
    for values in block[-8:]:
        one = pk.dab_transition(star.with_values(values), DT)
        want = python_float_tensors(*values.tolist(), DT)
        for got, ref in zip((one.w, one.dw_dtheta, one.d2w_dtheta2), want):
            assert got.ravel().tobytes() == ref.tobytes(), f"corner {values}"


def test_batched_transition_rejects_a_block_with_one_bad_theta(star):
    block = box_block(star, 20, seed=558)
    block[7] = [300e-6, 1.8, 1.0]
    with pytest.raises(OutOfBounds):
        pk.dab_transition(block, DT)
    block[7] = [63e-6, np.nan, 1.0]
    with pytest.raises(OutOfBounds):
        pk.transition_values(pk.dab_model(), block, DT)
    # a box admitting R_L < 0, where L_k + R_L*dt reaches 0 at R_L = -L_k/dt
    box = pk.ParamVector(star.values, [10e-6, -1000.0, 0.8], star.upper, star.names)
    block = box_block(star, 20, seed=559)
    assert pk.transition_values(pk.dab_model(box), block, DT).w.shape == (28, 1, 3)
    block[3] = [10e-6, -10e-6 / DT, 1.0]
    with pytest.raises(SingularDiscretization):
        pk.transition_values(pk.dab_model(box), block, DT)
    block[3] = [10e-6, -200.0, 1.0]
    with pytest.raises(SingularDiscretization):
        pk.dab_transition(block, DT, box)


def test_generic_route_solves_a_block_row_by_row(star, model):
    block = box_block(star, 10, seed=560)
    generic = pk.ContinuousModel(
        dim_x=1, dim_u=2, dim_theta=3, a_of=model.a_of, b_of=model.b_of,
        da_dtheta=model.da_dtheta, db_dtheta=model.db_dtheta,
    )
    batched = pk.transition_values(generic, block, DT)
    for i, values in enumerate(block):
        one = discretize(generic, star.with_values(values).values, DT)
        assert np.array_equal(batched.w[i], one.w)
        assert np.array_equal(batched.dw_dtheta[i], one.dw_dtheta)
    assert batched.d2w_dtheta2 is None


def test_dw_matches_numeric_derivative(star, ranges):
    rng = np.random.default_rng(555)
    for _ in range(20):
        values = rng.uniform(star.lower + 0.02 * ranges, star.upper - 0.02 * ranges)
        an = pk.dab_transition(pk.dab_params(values), DT).dw_dtheta
        h = 1e-4 * ranges
        fd = np.empty((1, 3, 3))
        for i in range(3):
            e = np.zeros(3)
            e[i] = h[i]
            coarse = (w_closed_form(values + e, DT) - w_closed_form(values - e, DT)) / (2 * h[i])
            fine = (
                w_closed_form(values + e / 2, DT) - w_closed_form(values - e / 2, DT)
            ) / h[i]
            fd[:, :, i] = (4.0 * fine - coarse) / 3.0
        rel = np.max(np.abs(fd - an)) / np.max(np.abs(an))
        assert rel <= 1e-8, f"dW mismatch {rel:.3e} at theta {values}"


def test_d2w_matches_numeric_derivative(star, ranges):
    rng = np.random.default_rng(556)
    for _ in range(20):
        values = rng.uniform(star.lower + 0.05 * ranges, star.upper - 0.05 * ranges)
        trans = pk.dab_transition(pk.dab_params(values), DT)
        h = 1e-4 * ranges
        def dw_at(v):
            return pk.dab_transition(pk.dab_params(v), DT).dw_dtheta

        for j in range(3):
            e = np.zeros(3)
            e[j] = h[j]
            coarse = (dw_at(values + e) - dw_at(values - e)) / (2 * h[j])
            fine = (dw_at(values + e / 2) - dw_at(values - e / 2)) / h[j]
            fd_slice = (4.0 * fine - coarse) / 3.0
            an_slice = trans.d2w_dtheta2[:, :, :, j]
            scale = max(np.max(np.abs(trans.d2w_dtheta2)), 1e-300)
            rel = np.max(np.abs(fd_slice - an_slice)) / scale
            assert rel <= 1e-6, f"d2W mismatch {rel:.3e} at theta {values}, axis {j}"


def test_d2w_is_built_when_first_read():
    built = []
    d2w = np.zeros((1, 3, 3, 3))

    def build():
        built.append(True)
        return d2w

    trans = DiscreteTransition(np.array([[0.5, 1.0, 0.0]]), None, build, DT)
    assert not built
    assert trans.d2w_dtheta2 is d2w and trans.d2w_dtheta2 is d2w
    assert built == [True], "built once, on first read"


def test_d2w_is_symmetric(star):
    """No runtime check guards d2W's symmetry, so its producer is pinned here:
    at theta*, at interior thetas and at the eight box corners, whose rows
    equal each theta alone."""
    block = np.vstack([star.values, box_block(star, 40, seed=561)])
    d2 = pk.dab_transition(block, DT).d2w_dtheta2
    assert d2.shape == (49, 1, 3, 3, 3)
    assert np.array_equal(d2, np.swapaxes(d2, -2, -1)), "d2W must be exactly symmetric"


def test_neumann_bound_trivial_for_zero_dynamics():
    model = pk.ContinuousModel(
        dim_x=1, dim_u=1, dim_theta=3,
        a_of=lambda _v: np.zeros((1, 1)),
        b_of=lambda _v: np.ones((1, 1)),
    )
    assert pk.neumann_bound(model, pk.dab_params(), DT) == 1.0


def test_neumann_bound_reference_value(star, model):
    bound = pk.neumann_bound(model, star, DT)
    # ||A dt|| = (R_L/L_k) dt = 1.8/63e-6 * 8e-8
    norm_adt = 1.8 / 63e-6 * DT
    assert bound == pytest.approx(1.0 / (1.0 - norm_adt), rel=1e-14)
    trans = pk.dab_transition(star, DT)
    assert abs(trans.w[0, 0]) <= bound, "transition entry must respect the bound"


def test_neumann_bound_rejects_large_step():
    model = pk.ContinuousModel(
        dim_x=1, dim_u=1, dim_theta=3,
        a_of=lambda _v: np.array([[-2.0]]),
        b_of=lambda _v: np.ones((1, 1)),
    )
    with pytest.raises(StepTooLarge) as err:
        pk.neumann_bound(model, pk.dab_params(), 0.75)
    # ||A dt|| = 1.5, so the largest admissible step is dt/1.5 = 0.5
    assert err.value.dt_max == pytest.approx(0.5, rel=1e-12)


def random_stable_system(rng, d_x, d_u):
    """Continuous A with eigenvalues shifted into the left half plane."""
    a = rng.normal(size=(d_x, d_x))
    a = a - (np.max(np.real(np.linalg.eigvals(a))) + 0.5) * np.eye(d_x)
    b = rng.normal(size=(d_x, d_u))
    return pk.ContinuousModel(
        dim_x=d_x, dim_u=d_u, dim_theta=0,
        a_of=lambda _v, _a=a: _a,
        b_of=lambda _v, _b=b: _b,
    ), a, b


def test_generic_route_against_dense_inverse_oracle():
    rng = np.random.default_rng(777)
    for _ in range(200):
        d_x = int(rng.integers(1, 6))
        d_u = int(rng.integers(1, 4))
        model, a, b = random_stable_system(rng, d_x, d_u)
        dt = float(rng.uniform(1e-4, 0.2))
        trans = pk.transition_values(model, np.array([]), dt)
        m_inv = np.linalg.inv(np.eye(d_x) - a * dt)
        oracle = np.hstack([m_inv, m_inv @ b * dt])
        rel = np.max(np.abs(trans.w - oracle)) / max(np.max(np.abs(oracle)), 1e-300)
        assert rel <= 1e-12, f"dense-inverse mismatch {rel:.3e} for d_x={d_x}"


def test_neumann_bound_holds_for_random_systems():
    rng = np.random.default_rng(778)
    checked = 0
    for _ in range(200):
        d_x = int(rng.integers(1, 6))
        model, a, _b = random_stable_system(rng, d_x, 1)
        dt = float(rng.uniform(1e-4, 0.05))
        if np.linalg.norm(a * dt, np.inf) >= 1.0:
            continue
        bound = pk.neumann_bound(model, pk.dab_params(), dt)
        m_inv = np.linalg.inv(np.eye(d_x) - a * dt)
        assert np.linalg.norm(m_inv, np.inf) <= bound * (1 + 1e-12), (
            "inverse norm above the Neumann bound"
        )
        checked += 1
    assert checked > 50, f"only {checked} systems had ||A dt|| < 1"
