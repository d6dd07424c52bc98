"""Bound calculators and MC estimators: exact identities, scaling laws,
dominance over empirical ratios, and the training monitor."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pannkit as pk
from pannkit.errors import BoundViolation, DegenerateDomain, MissingDerivatives
from pannkit.lipschitz import LipschitzReport, dab_l1z_values, sample_thetas, theorem2_monitor
from pannkit.norms import NormKind, d2w_norm, dw_norm, mat_norm, vec_norm
from pannkit.statespace import DiscreteTransition, ParamVector
from pannkit.training import TrainingTrace, epoch_records, gradient, hessian

from conftest import quick_dataset

DT = pk.DEFAULT_DT


def make_report(**overrides):
    base = dict(
        constant_name="L1z",
        norm=NormKind.INFINITY,
        theoretical=2.0,
        empirical_max=1.5,
        n_samples=10,
        argmax_pair=(np.zeros(2), np.ones(2)),
        seed=0,
    )
    base.update(overrides)
    return LipschitzReport(**base)


def test_l1z_is_the_induced_norm(star):
    trans = pk.dab_transition(star, DT)
    lk, rl = 63e-6, 1.8
    den = lk + rl * DT
    row_sum = (lk + DT + 1.0 * DT) / den
    assert pk.theoretical_L1z(trans, NormKind.INFINITY) == pytest.approx(row_sum, rel=1e-14)
    two = np.sqrt(lk**2 + DT**2 + DT**2) / den
    assert pk.theoretical_L1z(trans, NormKind.TWO) == pytest.approx(two, rel=1e-14)


def test_reference_l1z_straddles_one(star):
    vals = dab_l1z_values(pk.dab_transition(star, DT))
    assert vals["l1z_infinity"] > 1.0, "row sum exceeds 1 for the reference converter"
    assert vals["l1z_max_entry"] < 1.0, "every single entry stays below 1"
    assert vals["l1z_infinity"] == pytest.approx(1.0002533890789307, rel=1e-12)
    assert vals["l1z_max_entry"] == pytest.approx(0.9977194982896237, rel=1e-12)


@given(
    entries=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    a=st.lists(st.floats(-100, 100), min_size=3, max_size=3),
    b=st.lists(st.floats(-100, 100), min_size=3, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_linear_map_ratio_never_beats_induced_norm(entries, a, b):
    w = np.array([entries])
    trans = DiscreteTransition(w, None, None, DT)
    bound = pk.theoretical_L1z(trans, NormKind.INFINITY)
    a, b = np.array(a), np.array(b)
    diff = np.max(np.abs(a - b))
    if diff < 1e-12:
        return
    ratio = np.max(np.abs(w @ a - w @ b)) / diff
    assert ratio <= bound * (1 + 1e-12), f"ratio {ratio} above bound {bound}"


def test_mc_estimate_is_tight_for_linear_map(star):
    trans = pk.dab_transition(star, DT)
    bound = pk.theoretical_L1z(trans, NormKind.INFINITY)
    report = pk.mc_estimate_lipschitz(
        lambda z: trans.w @ z,
        pk.BoxSampler(-np.array([30.0, 200.0, 200.0]), np.array([30.0, 200.0, 200.0])),
        n_samples=4000,
        seed=0,
        kind=NormKind.INFINITY,
        theoretical=bound,
    )
    assert report.empirical_max <= bound * (1 + 1e-9)
    assert report.empirical_max >= 0.999 * bound, (
        f"sign-corner perturbations should attain the row sum: "
        f"{report.empirical_max} vs {bound}"
    )


def test_mc_estimate_zero_for_constant_map():
    report = pk.mc_estimate_lipschitz(
        lambda z: np.array([1.0]),
        pk.BoxSampler(np.zeros(2), np.ones(2)),
        n_samples=100,
        seed=1,
    )
    assert report.empirical_max == 0.0


def test_mc_estimate_is_seeded_and_prefix_monotone(star):
    trans = pk.dab_transition(star, DT)
    sampler = pk.BoxSampler(-np.ones(3), np.ones(3))
    f = lambda z: trans.w @ z

    # 700 -> 1100 extends a prefix that ends inside the second 512-pair block
    for n_short, n_long in ((500, 1500), (700, 1100)):
        r1 = pk.mc_estimate_lipschitz(f, sampler, n_samples=n_short, seed=42)
        r2 = pk.mc_estimate_lipschitz(f, sampler, n_samples=n_short, seed=42)
        assert r1.empirical_max == r2.empirical_max, "same seed must reproduce the max"
        r_long = pk.mc_estimate_lipschitz(f, sampler, n_samples=n_long, seed=42)
        assert r_long.empirical_max >= r1.empirical_max, (
            "extending the sample run can only raise the running max"
        )


@pytest.mark.parametrize("pairing", ["mixed", "random", "local"])
@pytest.mark.parametrize("kind", [NormKind.INFINITY, NormKind.TWO])
def test_mc_batched_and_per_point_maps_give_identical_reports(star, pairing, kind):
    w = pk.dab_transition(star, DT).w[0]

    def f(z):  # elementwise, so one point and a block round alike
        return (w[0] * z[..., 0] + w[1] * z[..., 1] + w[2] * z[..., 2])[..., None]

    sampler = pk.BoxSampler(-np.array([30.0, 200.0, 200.0]), np.array([30.0, 200.0, 200.0]))
    kw = dict(pairing=pairing, n_samples=1100, seed=9, kind=kind)
    per_point = pk.mc_estimate_lipschitz(f, sampler, **kw).to_dict()
    batched = pk.mc_estimate_lipschitz(f, sampler, batched=True, **kw).to_dict()
    assert per_point == batched


def test_mc_estimate_rejects_degenerate_setups():
    sampler = pk.BoxSampler(np.zeros(2), np.zeros(2))
    with pytest.raises(DegenerateDomain):
        pk.mc_estimate_lipschitz(lambda z: z, sampler, n_samples=50, seed=0)
    with pytest.raises(DegenerateDomain):
        pk.mc_estimate_lipschitz(
            lambda z: z, pk.BoxSampler(np.zeros(2), np.ones(2)), n_samples=1
        )
    with pytest.raises(DegenerateDomain):
        pk.mc_estimate_lipschitz(
            lambda z: z, pk.BoxSampler(np.zeros(2), np.ones(2)), pairing="weird"
        )


def test_report_rejects_bound_violation():
    with pytest.raises(BoundViolation):
        make_report(empirical_max=2.1)
    # equality and tiny excess inside tolerance are fine
    make_report(empirical_max=2.0)
    make_report(empirical_max=2.0 * (1 + 1e-10))


def test_report_round_trips_through_json(tmp_path):
    report = make_report(extras={"note": 1.5})
    path = tmp_path / "r.json"
    report.save(path)
    back = LipschitzReport.load(path)
    assert back.constant_name == report.constant_name
    assert back.norm == report.norm
    assert back.theoretical == report.theoretical
    assert back.empirical_max == report.empirical_max
    assert back.extras == report.extras
    assert np.array_equal(back.argmax_pair[0], report.argmax_pair[0])


def test_sample_thetas_covers_anchors_and_corners(box_domain):
    samples = sample_thetas(box_domain, 10, seed=0)
    assert samples.shape[0] == 10 + 2 + 8, "draws + star + center + 2^3 corners"
    assert np.all(samples >= box_domain.theta_lower - 1e-15)
    assert np.all(samples <= box_domain.theta_upper + 1e-15)
    observed = {tuple(s) for s in samples}
    assert tuple(box_domain.theta_star) in observed
    corner = (10e-6, 0.01, 0.8)
    assert any(np.allclose(s, corner) for s in samples), "corners must be included"


def test_sample_thetas_collapsed_returns_star(box_domain):
    collapsed = box_domain.collapsed()
    samples = sample_thetas(collapsed, 10, seed=0)
    assert samples.shape == (1, 3)
    assert np.array_equal(samples[0], box_domain.theta_star)


def scalar_loop_sup(domain, model, kind, n_samples, seed, term):
    """The suprema's reference: one transition and one set of norms per theta."""
    w_star = pk.transition_values(model, domain.theta_star, DT).w
    zn2 = vec_norm(domain.z_bound, kind) ** 2
    best = 0.0
    for values in sample_thetas(domain, n_samples, seed):
        trans = pk.transition_values(model, values, DT)
        best = max(best, term(mat_norm(trans.w - w_star, kind), zn2, trans, kind))
    return best


def l1theta_term(gap, zn2, trans, kind):
    return gap * zn2 * dw_norm(trans.dw_dtheta, kind)


def l2theta_term(gap, zn2, trans, kind):
    return zn2 * dw_norm(trans.dw_dtheta, kind) ** 2 + gap * zn2 * d2w_norm(
        trans.d2w_dtheta2, kind
    )


@pytest.mark.parametrize("kind", [NormKind.INFINITY, NormKind.TWO])
def test_batched_suprema_equal_the_scalar_loop(box_domain, model, kind):
    for domain in (box_domain, box_domain.collapsed()):
        for fn, term in (
            (pk.theoretical_L1theta, l1theta_term), (pk.theoretical_L2theta, l2theta_term)
        ):
            want = scalar_loop_sup(domain, model, kind, 1100, 4, term)
            assert fn(domain, model, DT, kind, n_samples=1100, seed=4) == want


def test_l1theta_vanishes_on_collapsed_domain(box_domain, model):
    val = pk.theoretical_L1theta(box_domain.collapsed(), model, DT)
    assert val == 0.0, "W - W* is zero when the domain is a single point"


def test_l1theta_scales_with_z_bound_squared(box_domain, model):
    base = pk.theoretical_L1theta(box_domain, model, DT, n_samples=200, seed=5)
    doubled_domain = pk.DomainSpec(
        box_domain.theta_lower,
        box_domain.theta_upper,
        2.0 * box_domain.z_bound,
        box_domain.theta_star,
    )
    doubled = pk.theoretical_L1theta(doubled_domain, model, DT, n_samples=200, seed=5)
    assert doubled == pytest.approx(4.0 * base, rel=1e-12), (
        "z enters the constant exactly quadratically"
    )


def test_l1theta_dominates_gradient_norms(box_domain, model, star, train_dataset):
    ginf = pk.theoretical_L1theta(box_domain, model, DT, NormKind.INFINITY, n_samples=500, seed=2)
    rng = np.random.default_rng(31)
    for _ in range(100):
        values = rng.uniform(star.lower, star.upper)
        g = gradient(star.with_values(values), train_dataset, model, DT)
        assert np.max(np.abs(g)) <= ginf, (
            f"gradient {np.max(np.abs(g)):.6g} above the bound {ginf:.6g} at {values}"
        )


def test_l2theta_collapsed_is_the_gauss_newton_term(box_domain, model, star):
    val = pk.theoretical_L2theta(box_domain.collapsed(), model, DT)
    trans = pk.dab_transition(star, DT)
    zn = vec_norm(box_domain.z_bound, NormKind.INFINITY)
    expect = zn**2 * dw_norm(trans.dw_dtheta, NormKind.INFINITY) ** 2
    assert val == pytest.approx(expect, rel=1e-14)


def test_l2theta_dominates_hessian_norms(box_domain, model, star, train_dataset):
    l2 = pk.theoretical_L2theta(box_domain, model, DT, NormKind.TWO, n_samples=500, seed=3)
    rng = np.random.default_rng(32)
    for _ in range(100):
        values = rng.uniform(star.lower, star.upper)
        h = hessian(star.with_values(values), train_dataset, model, DT)
        norm = np.linalg.norm(h, 2)
        assert norm <= l2, f"Hessian norm {norm:.6g} above the bound {l2:.6g} at {values}"


def test_theoretical_constants_need_derivatives(box_domain):
    bare = pk.ContinuousModel(
        dim_x=1, dim_u=2, dim_theta=3,
        a_of=lambda v: np.array([[-v[1] / v[0]]]),
        b_of=lambda v: np.array([[1.0 / v[0], -v[2] / v[0]]]),
    )
    with pytest.raises(MissingDerivatives):
        pk.theoretical_L1theta(box_domain, bare, DT, n_samples=5)
    with pytest.raises(MissingDerivatives):
        pk.theoretical_L2theta(box_domain, bare, DT, n_samples=5)


def synthetic_trace(thetas, grads, theta0, lower, upper):
    """A trace filled in the columns the monitor reads: epoch, theta, grad."""
    records = epoch_records(len(thetas), len(theta0))
    records.epoch = np.arange(1, len(thetas) + 1)
    records.theta = thetas
    records.grad = grads
    return TrainingTrace(records, "custom", ParamVector(theta0, lower, upper, ("a", "b")))


def test_monitor_reports_exact_maxima():
    trace = synthetic_trace(
        thetas=[[1.0, 0.0], [2.0, 0.0]],
        grads=[[3.0, 4.0], [1.0, 1.0]],
        theta0=[0.0, 0.0],
        lower=[-5.0, -5.0],
        upper=[5.0, 5.0],
    )
    rep = theorem2_monitor(trace)
    assert rep.g_hat == 5.0, "gradient 2-norm max is the (3,4) epoch"
    assert rep.ginf_hat == 4.0
    assert rep.d_hat == 2.0, "iterates 0 -> 1 -> 2 on the first axis"
    assert rep.dinf_hat == 2.0
    assert rep.satisfied


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_monitor_dinf_equals_the_pairwise_maximum(seed):
    rng = np.random.default_rng(seed)
    # iterates spread over several magnitudes, so differences round
    thetas = rng.uniform(-1.0, 1.0, size=(40, 2)) * 10.0 ** rng.integers(-6, 3, size=(40, 2))
    trace = synthetic_trace(thetas, np.ones((40, 2)), thetas[0], [-1e3, -1e3], [1e3, 1e3])
    iterates = np.vstack([trace.theta0.values, thetas])
    pairwise = max(
        float(np.max(np.abs(iterates[i + 1 :] - iterates[i])))
        for i in range(len(iterates) - 1)
    )
    assert theorem2_monitor(trace).dinf_hat == pairwise


def test_monitor_flags_escaped_iterates():
    trace = synthetic_trace(
        thetas=[[50.0, 0.0]],
        grads=[[1.0, 1.0]],
        theta0=[0.0, 0.0],
        lower=[-5.0, -5.0],
        upper=[5.0, 5.0],
    )
    rep = theorem2_monitor(trace)
    assert not rep.satisfied, "a diameter larger than the box must fail the check"


def test_monitor_to_dict_keys():
    trace = synthetic_trace(
        thetas=[[1.0, 1.0]], grads=[[1.0, 1.0]], theta0=[0.0, 0.0],
        lower=[-5.0, -5.0], upper=[5.0, 5.0],
    )
    d = theorem2_monitor(trace).to_dict()
    assert set(d) == {"G_hat", "Ginf_hat", "D_hat", "Dinf_hat", "satisfied"}


def test_loss_pairs_dominated_on_sampled_box(box_domain, model, star):
    """Small-sample version of the loss-difference dominance check."""
    ds = quick_dataset(star.values, 0.22)
    domain = pk.DomainSpec(star.lower, star.upper, ds.z_bounds(), star.values)
    l1t = pk.theoretical_L1theta(domain, model, DT, NormKind.TWO, n_samples=500, seed=6)
    from pannkit.training import loss as loss_fn

    report = pk.mc_estimate_lipschitz(
        lambda v: np.atleast_1d(loss_fn(star.with_values(v), ds, model, DT)),
        pk.BoxSampler(star.lower, star.upper),
        n_samples=800,
        seed=6,
        kind=NormKind.TWO,
        theoretical=l1t,
        constant_name="L1theta",
    )
    assert report.empirical_max <= l1t, "constructing the report enforces dominance"
