"""Bound calculators and MC estimators: exact identities, scaling laws,
dominance over empirical ratios, and the training monitor."""
import json
import re
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pannkit as pk
from pannkit.errors import (
    BoundViolation, DegenerateDomain, MissingDerivatives, NonFinite, NonPositiveBound,
)
from pannkit.lipschitz import LipschitzReport, dab_l1z_values, sample_thetas, theorem2_monitor
from pannkit.norms import NormKind, d2w_norm, dw_norm, mat_norm, vec_norm
from pannkit.rng import DOMAIN_MC, substream
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
# A subnormal weight: the quotient rounded in floats lands 1.4e-11 above it.
@example(entries=[0.0, 2.225073858507e-311, 0.0], a=[0, 0, 0], b=[0, 0.0625, 0])
@settings(max_examples=200, deadline=None)
def test_linear_map_ratio_never_beats_induced_norm(entries, a, b):
    w = np.array([entries])
    trans = DiscreteTransition(w, None, None, DT)
    bound = pk.theoretical_L1z(trans, NormKind.INFINITY)
    diff = np.max(np.abs(np.array(a) - np.array(b)))
    if diff < 1e-12:
        return
    # The quotient |w a - w b| / ||a - b||_inf, exactly, from the float inputs.
    gaps = [Fraction(x) - Fraction(y) for x, y in zip(a, b)]
    ratio = abs(sum(Fraction(c) * g for c, g in zip(entries, gaps))) / max(map(abs, gaps))
    assert ratio <= bound * (1 + 1e-12), f"ratio {float(ratio)} above bound {bound}"


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


@pytest.mark.parametrize("pairing", ["mixed"])
@pytest.mark.parametrize("kind", [NormKind.INFINITY, NormKind.TWO])
def test_mc_batched_and_per_point_maps_give_identical_reports(star, pairing, kind):
    w = pk.dab_transition(star, DT).w[0]

    def f(z):  # elementwise, so one point and a block round alike
        return (w[0] * z[..., 0] + w[1] * z[..., 1] + w[2] * z[..., 2])[..., None]

    sampler = pk.BoxSampler(-np.array([30.0, 200.0, 200.0]), np.array([30.0, 200.0, 200.0]))
    kw = dict(pairing=pairing, n_samples=1100, seed=9, kind=kind)
    per_point = asdict(pk.mc_estimate_lipschitz(f, sampler, **kw))
    batched = asdict(pk.mc_estimate_lipschitz(f, sampler, batched=True, **kw))
    assert json.dumps(per_point, default=list) == json.dumps(batched, default=list)


def test_mc_estimate_names_the_first_non_finite_sample():
    """A NaN ratio is neither dropped by the running maximum nor mistaken
    for a coincident pair: the estimate raises NonFinite naming the first
    NaN sample, which a prefix of the run reaches only when it includes it."""
    def f(block):
        return np.where(np.abs(block[:, :1]) > 0.99, np.nan, block[:, :1])

    sampler = pk.BoxSampler(-np.ones(2), np.ones(2))
    kw = dict(seed=3, batched=True)
    with pytest.raises(NonFinite) as raised:
        pk.mc_estimate_lipschitz(f, sampler, n_samples=2000, **kw)
    first = int(re.search(r"at sample (\d+) ", str(raised.value)).group(1))
    assert first >= 2
    assert pk.mc_estimate_lipschitz(f, sampler, n_samples=first, **kw).empirical_max <= 1.0
    with pytest.raises(NonFinite, match=f"at sample {first} "):
        pk.mc_estimate_lipschitz(f, sampler, n_samples=first + 1, **kw)


def test_mc_estimate_rejects_degenerate_setups():
    sampler = pk.BoxSampler(np.zeros(2), np.zeros(2))
    with pytest.raises(DegenerateDomain, match="all 50 sampled pairs were coincident"):
        pk.mc_estimate_lipschitz(lambda z: z, sampler, n_samples=50, seed=0)
    with pytest.raises(DegenerateDomain):
        pk.mc_estimate_lipschitz(
            lambda z: z, pk.BoxSampler(np.zeros(2), np.ones(2)), n_samples=1
        )
    with pytest.raises(DegenerateDomain):
        pk.mc_estimate_lipschitz(
            lambda z: z, pk.BoxSampler(np.zeros(2), np.ones(2)), pairing="weird"
        )


def test_boxes_reject_inverted_bounds():
    with pytest.raises(NonPositiveBound, match="lower <= upper"):
        pk.DomainSpec(np.ones(2), np.zeros(2), np.ones(2), np.ones(2))
    with pytest.raises(NonPositiveBound, match="z bounds must be nonnegative"):
        pk.DomainSpec(np.zeros(2), np.ones(2), -np.ones(2), np.zeros(2))
    with pytest.raises(DegenerateDomain, match="lower <= upper"):
        pk.BoxSampler(np.ones(2), np.zeros(2))


def test_substream_index_fits_in_48_bits():
    substream(0, DOMAIN_MC, 2**48 - 1)
    for index in (-1, 2**48):
        with pytest.raises(ValueError, match=f"substream index out of range: {index}"):
            substream(0, DOMAIN_MC, index)


def test_report_rejects_bound_violation():
    with pytest.raises(BoundViolation):
        make_report(empirical_max=2.1)
    # equality and tiny excess inside tolerance are fine
    make_report(empirical_max=2.0)
    make_report(empirical_max=2.0 * (1 + 1e-10))


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
    """The suprema's reference: one transition and one set of norms, a full
    SVD each under the 2-norm, per theta. Returns the maximum and its theta."""
    w_star = pk.transition_values(model, domain.theta_star, DT).w
    zn2 = vec_norm(domain.z_bound, kind) ** 2
    best, at = 0.0, None
    for values in sample_thetas(domain, n_samples, seed):
        trans = pk.transition_values(model, values, DT)
        value = term(mat_norm(trans.w - w_star, kind), zn2, trans, kind)
        if value > best:
            best, at = value, values
    return best, at


def l1theta_term(gap, zn2, trans, kind):
    return gap * zn2 * dw_norm(trans.dw_dtheta, kind)


def l2theta_term(gap, zn2, trans, kind):
    return zn2 * dw_norm(trans.dw_dtheta, kind) ** 2 + gap * zn2 * d2w_norm(
        trans.d2w_dtheta2, kind
    )


BUMP_M = np.array([[0.9, -0.4, 0.3, 0.2], [0.1, 0.7, -0.5, 0.6]])
BUMP_N = np.array([[0.02, 0.0, -0.01, 0.03], [0.0, 0.01, 0.02, 0.0]])


def bump_model(nan_above=None):
    """D_x = 2, D_u = 2, two parameters: W(t) = W0 + M q(t) + N t_0 with
    q = t_0 (1 - t_0) t_1 (1 - t_1), in closed form for one theta or a block,
    elementwise, so a block row equals its theta alone. Over [0, 1]^2 from
    theta* = 0 both suprema peak inside the box, where W - W* and d2W are
    large and dW is small. With nan_above, dW is NaN wherever t_0 > nan_above."""
    w0 = np.array([[0.5, 0.1, 0.02, -0.03], [-0.2, 0.4, 0.01, 0.05]])

    def closed_form(values, dt):
        t0, t1 = np.moveaxis(np.asarray(values, dtype=float), -1, 0)
        t0, t1 = t0[..., None, None], t1[..., None, None]
        q0, q1 = t0 * (1 - t0), t1 * (1 - t1)
        dq0, dq1 = (1 - 2 * t0) * q1, q0 * (1 - 2 * t1)
        dw = np.stack([BUMP_M * dq0 + BUMP_N, BUMP_M * dq1], axis=-1)
        if nan_above is not None:
            dw = np.where((t0 > nan_above)[..., None], np.nan, dw)
        cross = BUMP_M * ((1 - 2 * t0) * (1 - 2 * t1))
        d2w = np.stack(
            [np.stack([BUMP_M * (-2 * q1), cross], axis=-1),
             np.stack([cross, BUMP_M * (-2 * q0)], axis=-1)],
            axis=-1,
        )
        return DiscreteTransition(w0 + BUMP_M * (q0 * q1) + BUMP_N * t0, dw, lambda: d2w, dt)

    return pk.ContinuousModel(2, 2, 2, None, None, closed_form=closed_form)


def ramp_model():
    """D_x = 1, one parameter: W(t) = w0 + m t + p t^2, elementwise in closed
    form. Every object the 2-norms see is a single row or column, whose
    spectral norm equals its Frobenius norm, and the two round apart by an
    ulp or two either way."""
    w0, m, p = np.array([0.5, 0.1, -0.1]), np.array([0.3, -0.7, 0.2]), np.array([0.05, 0.11, -0.4])

    def closed_form(values, dt):
        t = np.asarray(values, dtype=float)[..., None, :]
        w = w0 + m * t + p * (t * t)
        d2w = np.broadcast_to(2 * p, w.shape)[..., None, None]
        return DiscreteTransition(w, (m + 2 * p * t)[..., None], lambda: d2w, dt)

    return pk.ContinuousModel(1, 2, 1, None, None, closed_form=closed_form)


def generic_model():
    """D_x = 2 on the generic route (dW from dA and dB; no d2W)."""
    def da(v):
        out = np.zeros((2, 2, 2))
        out[0, 0, 0], out[1, 1, 1] = -2e4, -3e4
        return out

    def db(v):
        out = np.zeros((2, 2, 2))
        out[0, 1, 0] = -1e3
        return out

    return pk.ContinuousModel(
        dim_x=2, dim_u=2, dim_theta=2,
        a_of=lambda v: np.array([[-2e4 * v[0], 1e4], [-1e4, -3e4 * v[1]]]),
        b_of=lambda v: np.array([[1e3, -1e3 * v[0]], [0.0, 5e2]]),
        da_dtheta=da, db_dtheta=db,
    )


@pytest.mark.parametrize("kind", [NormKind.INFINITY, NormKind.TWO])
def test_batched_suprema_equal_the_scalar_loop(box_domain, model, kind):
    """The blocked suprema, whose 2-norm path runs SVDs only on the rows
    that can still win, equal a full evaluation per theta bit for bit: on
    the DAB box, collapsed, and so narrow (1e-13 relative) that every term
    ties with the maximum to within the prune's margin; on a rank-one model
    over a box one ulp wide, where the plain Frobenius norm rounds below the
    SVD's and a prune without the margin returns a value an ulp low; on a
    D_x = 2 model whose maxima are interior; and on a generic D_x = 2 model
    (L1theta only: the generic route has no d2W)."""
    lower = np.array([150e-6, 2.5, 1.1])
    narrow = pk.DomainSpec(lower, lower * (1 + 1e-13), box_domain.z_bound, box_domain.theta_star)
    ulp = pk.DomainSpec([0.6727255268314554], [0.6727255268314555], [1.0, 2.0, 3.0], [0.0])
    z_bound = [3.0, 2.0, 200.0, 200.0]
    both = ((pk.theoretical_L1theta, l1theta_term), (pk.theoretical_L2theta, l2theta_term))
    # (domain, model, constants, draws): 1100 draws span three blocks; the
    # ulp box needs only its corners, center and theta*.
    cases = [
        (box_domain, model, both, 1100),
        (box_domain.collapsed(), model, both, 1100),
        (narrow, model, both, 300),
        (ulp, ramp_model(), both, 0),
        (pk.DomainSpec([0.0, 0.0], [1.0, 1.0], z_bound, [0.0, 0.0]), bump_model(), both, 300),
        (pk.DomainSpec([0.5, 0.5], [1.5, 1.5], z_bound, [1.0, 1.0]), generic_model(), both[:1], 300),
    ]
    for i, (domain, mdl, fns, n) in enumerate(cases):
        for fn, term in fns:
            want, at = scalar_loop_sup(domain, mdl, kind, n, 4, term)
            assert fn(domain, mdl, DT, kind, n_samples=n, seed=4) == want, (i, fn.__name__)
            if i == 4:
                assert np.all((0.0 < at) & (at < 1.0)), f"maximum at {at} is not interior"


@pytest.mark.parametrize("kind", [NormKind.INFINITY, NormKind.TWO])
@pytest.mark.parametrize("fn", [pk.theoretical_L1theta, pk.theoretical_L2theta])
def test_suprema_name_the_first_non_finite_sample(kind, fn):
    """A NaN in dW is not dropped by the running maximum, nor pruned: the
    block reaches the exact pass and raises NonFinite naming its first
    NaN sample."""
    domain = pk.DomainSpec([0.0, 0.0], [1.0, 1.0], [3.0, 2.0, 200.0, 200.0], [0.0, 0.0])
    first = int(np.argmax(sample_thetas(domain, 1100, 4)[:, 0] > 0.97))
    with pytest.raises(NonFinite, match=f"theta sample {first}$"):
        fn(domain, bump_model(nan_above=0.97), DT, kind, n_samples=1100, seed=4)


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
    """A trace filled in the columns the monitor reads: epoch, theta, grad
    and the gradient's norms, each row's 2-norm from its own dot product as
    training fills it."""
    records = epoch_records(len(thetas), len(theta0))
    records.epoch = np.arange(1, len(thetas) + 1)
    records.theta = thetas
    records.grad = grads
    records.grad_norm2 = np.sqrt([g.dot(g) for g in records.grad])
    records.grad_norm_inf = np.max(np.abs(records.grad), axis=1)
    names = tuple("abcd"[: len(theta0)])
    return TrainingTrace(records, "custom", ParamVector(theta0, lower, upper, names))


def test_monitor_reports_exact_maxima():
    trace = synthetic_trace(
        thetas=[[1.0, 0.0], [2.0, 0.0]],
        grads=[[3.0, 4.0], [1.0, 1.0]],
        theta0=[0.0, 0.0],
        lower=[-5.0, -5.0],
        upper=[5.0, 5.0],
    )
    rep = theorem2_monitor(trace)
    assert rep.G_hat == 5.0, "gradient 2-norm max is the (3,4) epoch"
    assert rep.Ginf_hat == 4.0
    assert rep.D_hat == 2.0, "iterates 0 -> 1 -> 2 on the first axis"
    assert rep.Dinf_hat == 2.0
    assert rep.satisfied


def test_monitor_reads_the_trace_norm_columns():
    """G_hat and Ginf_hat are the maxima of the trace's own norm columns. The
    largest gradient here is a row whose 2-norm, as the trace stores it,
    rounds otherwise than a row-wise reduction over the gradients."""
    rng = np.random.default_rng(50)
    grads = rng.uniform(0.5, 1.0, (200, 3)) * rng.choice([-1.0, 1.0], (200, 3))
    per_row = np.sqrt([g.dot(g) for g in grads])
    differs = np.flatnonzero(np.linalg.norm(grads, 2, axis=1) != per_row)
    assert differs.size, "no row where the two roundings differ"
    grads[differs[0]] *= 4.0  # a power of two: the row keeps both its roundings
    trace = synthetic_trace(np.zeros((200, 3)), grads, np.zeros(3), -np.ones(3), np.ones(3))
    rep = theorem2_monitor(trace)
    assert rep.G_hat == np.max(trace.records.grad_norm2)
    assert rep.G_hat != np.max(np.linalg.norm(grads, 2, axis=1))
    assert rep.Ginf_hat == np.max(trace.records.grad_norm_inf)


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
    assert theorem2_monitor(trace).Dinf_hat == pairwise


def loop_d_hat(iterates):
    """The monitor's former O(T^2) scan, one row of pairs at a time."""
    d_hat = 0.0
    for idx in range(iterates.shape[0] - 1):
        diff = iterates[idx + 1 :] - iterates[idx]
        d_hat = max(d_hat, float(np.max(np.linalg.norm(diff, 2, axis=1))))
    return d_hat


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 300),
    st.integers(1, 4),
    st.sampled_from(["magnitudes", "repeats", "constant"]),
)
@example(0, 1, 3, "magnitudes")  # T = 1
@example(0, 63, 3, "magnitudes")  # T + 1 = 64 iterates, one full block
@example(0, 200, 3, "magnitudes")  # 201 iterates, a partial last block
@example(0, 150, 3, "constant")
@settings(max_examples=60, deadline=None)
def test_monitor_d_hat_equals_the_pairwise_loop(seed, epochs, dim, kind):
    """The blocked branch and bound returns the loop's value bit for bit."""
    rng = np.random.default_rng(seed)
    shape = (epochs + 1, dim)
    if kind == "magnitudes":
        points = rng.uniform(-1.0, 1.0, size=shape) * 10.0 ** rng.integers(-12, 3, size=shape)
    elif kind == "repeats":
        # few distinct points, so many pairs tie at the maximum
        pool = rng.uniform(-1.0, 1.0, size=(3, dim)) * 10.0 ** rng.integers(-3, 3, size=(3, dim))
        points = pool[rng.integers(0, 3, size=epochs + 1)]
    else:
        points = np.full(shape, rng.uniform(-100.0, 100.0))
    box = np.full(dim, 1e3)
    trace = synthetic_trace(points[1:], np.ones((epochs, dim)), points[0], -box, box)
    assert theorem2_monitor(trace).D_hat == loop_d_hat(points)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_monitor_d_hat_is_nan_on_a_non_finite_iterate(bad):
    """The loop's max(d_hat, nan) dropped every row of pairs that met a NaN
    (here all of them, so it read 0.0); D_hat is NaN on any non-finite
    iterate, and Dinf_hat is not finite either."""
    trace = synthetic_trace(
        thetas=[[1.0, 0.0], [bad, 0.0], [5.0, 0.0]],
        grads=np.ones((3, 2)),
        theta0=[0.0, 0.0],
        lower=[-10.0, -10.0],
        upper=[10.0, 10.0],
    )
    rep = theorem2_monitor(trace)
    assert np.isnan(rep.D_hat) and not np.isfinite(rep.Dinf_hat)
    assert not rep.satisfied


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
    d = asdict(theorem2_monitor(trace))
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
