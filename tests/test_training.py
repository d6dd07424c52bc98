"""Identification checks: loss and derivative values, rate construction,
the optimizer loop, regret accounting, run diagnostics and the trace file."""
import csv

import numpy as np
import pytest

import pannkit as pk
from pannkit.errors import ConfigError, DivergentBound, NonPositiveBound
from pannkit.signals import Segment, WaveformDataset
from pannkit.statespace import DAB_THETA_STAR, DiscreteTransition, ParamVector
from pannkit.training import (
    STRATEGY_LABELS,
    AdamConfig,
    LossStatistics,
    TrainingTrace,
    adam_sweep,
    epoch_records,
    gradient,
    hessian,
    loss,
    regret_bound,
    regret_ledger,
    lipschitz_aware_rates,
    strategy_rates,
    training_diagnostics,
    write_trace_csv,
)

from conftest import quick_dataset

DT = pk.DEFAULT_DT


def zero_dataset(n_steps=5):
    """All-zero z and targets: loss and gradient are exactly zero."""
    seg = Segment(
        z=np.zeros((3, n_steps)),
        targets=np.zeros((1, n_steps)),
        spec=pk.ModulationSpec(),
        noise_sigma=0.0,
        settled=True,
    )
    return WaveformDataset([seg])


def constant_target_dataset(value, n_steps=4):
    """Zero z with constant targets: residual is -value at every step."""
    seg = Segment(
        z=np.zeros((3, n_steps)),
        targets=np.full((1, n_steps), float(value)),
        spec=pk.ModulationSpec(),
        noise_sigma=0.0,
        settled=True,
    )
    return WaveformDataset([seg])


def nan_sample_dataset(dataset):
    """The first segment with one NaN sample: the first loss is non-finite,
    so a run on it stops at epoch 1 with no records."""
    seg = dataset.segments[0]
    z = seg.z.copy()
    z[0, 0] = np.nan
    return WaveformDataset([Segment(z, seg.targets, seg.spec, 0.0, True)])


def make_trace(thetas, theta0):
    """A trace filled in the columns the diagnostics read, epoch and theta,
    in a box of +-10 around theta0 (the diagnostics do not read the box)."""
    thetas = np.asarray(thetas, dtype=float)
    records = epoch_records(len(thetas), thetas.shape[1])
    records.epoch = np.arange(1, len(thetas) + 1)
    records.theta = thetas
    theta0 = np.asarray(theta0, dtype=float)
    return TrainingTrace(
        records, "custom", ParamVector(theta0, theta0 - 10.0, theta0 + 10.0, ("a", "b", "c"))
    )


def test_loss_of_constant_residual(star, model):
    # residual -2 at every step: 0.5 * 4 = 2
    assert loss(star, constant_target_dataset(2.0), model, DT) == 2.0


def test_gradient_vanishes_at_true_parameters(star, model, train_dataset):
    g = gradient(star, train_dataset, model, DT)
    assert np.max(np.abs(g)) <= 1e-12, f"gradient at the optimum: {g}"


def test_gradient_matches_finite_differences(star, model, ranges):
    rng = np.random.default_rng(21)
    for _ in range(10):
        values = rng.uniform(star.lower + 0.02 * ranges, star.upper - 0.02 * ranges)
        truth = rng.uniform(star.lower + 0.02 * ranges, star.upper - 0.02 * ranges)
        ds = quick_dataset(truth, float(rng.uniform(0.05, 0.45)))
        g_an = gradient(star.with_values(values), ds, model, DT)
        h = 1e-6 * ranges
        for i in range(3):
            e = np.zeros(3)
            e[i] = h[i]
            fd = (
                loss(star.with_values(values + e), ds, model, DT)
                - loss(star.with_values(values - e), ds, model, DT)
            ) / (2 * h[i])
            rel = abs(fd - g_an[i]) / max(np.max(np.abs(g_an)), 1e-300)
            assert rel <= 1e-6, f"gradient component {i} off by {rel:.3e}"


def test_hessian_matches_finite_differences(star, model, ranges):
    rng = np.random.default_rng(22)
    for _ in range(5):
        values = rng.uniform(star.lower + 0.02 * ranges, star.upper - 0.02 * ranges)
        truth = rng.uniform(star.lower + 0.02 * ranges, star.upper - 0.02 * ranges)
        ds = quick_dataset(truth, float(rng.uniform(0.05, 0.45)))
        h_an = hessian(star.with_values(values), ds, model, DT)
        assert np.allclose(h_an, h_an.T, rtol=0, atol=1e-18), "Hessian must be symmetric"
        h = 1e-4 * ranges
        f0 = loss(star.with_values(values), ds, model, DT)
        for i in range(3):
            ei = np.zeros(3)
            ei[i] = h[i]
            fd_ii = (
                loss(star.with_values(values + ei), ds, model, DT)
                - 2 * f0
                + loss(star.with_values(values - ei), ds, model, DT)
            ) / h[i] ** 2
            rel = abs(fd_ii - h_an[i, i]) / np.max(np.abs(h_an))
            assert rel <= 1e-5, f"Hessian diagonal {i} off by {rel:.3e}"


def test_hessian_is_psd_at_the_optimum(star, model, train_dataset):
    h = hessian(star, train_dataset, model, DT)
    eigs = np.linalg.eigvalsh(h)
    assert np.all(eigs >= -1e-9 * np.max(np.abs(eigs))), (
        f"curvature at the optimum must be PSD, eigenvalues {eigs}"
    )


def test_kernel_matches_per_theta_loss_gradient_and_hessian(star, model, train_dataset):
    """Statistics referenced at theta* give a block of losses, gradients and
    Hessians that match the per-theta paths, which reference each theta itself."""
    stats = LossStatistics.of(train_dataset, pk.dab_transition(star, DT))
    thetas = np.random.default_rng(40).uniform(star.lower, star.upper, size=(300, 3))
    block = pk.transition_values(model, thetas, DT)
    f, g, h = stats.loss(block), stats.gradient(block), stats.hessian(block)
    assert f.shape == (300,) and g.shape == (300, 3) and h.shape == (300, 3, 3)
    for i, values in enumerate(thetas):
        theta = star.with_values(values)
        f_i = loss(theta, train_dataset, model, DT)
        g_i = gradient(theta, train_dataset, model, DT)
        h_i = hessian(theta, train_dataset, model, DT)
        assert abs(f[i] - f_i) <= 1e-12 * f_i, f"loss at {values}"
        assert np.max(np.abs(g[i] - g_i)) <= 1e-12 * np.max(np.abs(g_i)), f"gradient at {values}"
        assert np.max(np.abs(h[i] - h_i)) <= 1e-12 * np.max(np.abs(h_i)), f"Hessian at {values}"
        assert np.array_equal(h[i], h[i].T)


@pytest.mark.skipif(
    np.finfo(np.longdouble).precision <= np.finfo(float).precision,
    reason="long double is no wider than double here",
)
@pytest.mark.parametrize("offset", [1e-3, 1e-7])
def test_losses_near_the_optimum_match_a_long_double_reference(star, model, train_dataset, offset):
    """Within `offset` of each range around theta*, the losses (1e-18 to 1e-6
    here) err by under 1e-6 relative in both the kernel and the per-theta
    path (measured), far more than the 1e-12 the two agree to elsewhere; the
    reference recomputes W and the residual in long double from the same
    float data."""
    z, x = train_dataset.stacked
    stats = LossStatistics.of(train_dataset, pk.dab_transition(star, DT))
    rng = np.random.default_rng(41)
    thetas = star.values + rng.uniform(-offset, offset, size=(100, 3)) * star.ranges
    kernel = stats.loss(pk.transition_values(model, thetas, DT))
    for i, values in enumerate(thetas):
        lk, rl, n = values.astype(np.longdouble)
        dt = np.longdouble(DT)
        w = np.array([lk, dt, -n * dt]) / (lk + rl * dt)
        r = w @ z.astype(np.longdouble) - x[0]
        ref = np.sum(r * r) / (2 * z.shape[1])
        direct = loss(star.with_values(values), train_dataset, model, DT)
        assert abs(kernel[i] - ref) <= 1e-4 * ref, f"kernel {kernel[i]!r} vs {ref!r}"
        assert abs(direct - ref) <= 1e-4 * ref, f"per-theta {direct!r} vs {ref!r}"


def test_rates_formula_and_clamp():
    rates = lipschitz_aware_rates(2.0, np.array([1.0, 2.0]), 4.0)
    assert np.array_equal(rates, [0.5, 1.0])
    # clamp both ways
    clamped = lipschitz_aware_rates(1e9, np.array([1.0, 1e-12]), 1.0, clamp=(1e-7, 10.0))
    assert clamped[0] == 10.0 and clamped[1] == 1e-3
    tiny = lipschitz_aware_rates(1e-12, np.array([1.0]), 1.0, clamp=(1e-7, 10.0))
    assert tiny[0] == 1e-7
    with pytest.raises(NonPositiveBound):
        lipschitz_aware_rates(0.0, np.array([1.0]), 1.0)
    with pytest.raises(NonPositiveBound):
        lipschitz_aware_rates(1.0, np.array([-1.0]), 1.0)
    with pytest.raises(NonPositiveBound):
        lipschitz_aware_rates(1.0, np.array([1.0]), 1.0, scale_c=0.0)


def test_reference_rates(box_domain, model, star):
    """The rates the strategy sweep uses, frozen from the bound calculators."""
    ginf = pk.theoretical_L1theta(box_domain, model, DT, pk.NormKind.INFINITY, n_samples=10000)
    l2_star = pk.theoretical_L2theta(box_domain.collapsed(), model, DT, pk.NormKind.INFINITY)
    assert ginf == pytest.approx(5682835.662892039, rel=1e-9)
    assert l2_star == pytest.approx(232529897.0642427, rel=1e-9)
    rates = lipschitz_aware_rates(ginf, star.ranges, l2_star)
    expect = np.array([4.64344064819837e-06, 0.07307309230585857, 0.009775664522522884])
    assert np.allclose(rates, expect, rtol=1e-9), f"rates {rates}"


def test_strategy_rates_ladder():
    base = np.array([1e-6, 1e-2, 1e-3])
    assert np.array_equal(strategy_rates(base, "S3"), base)
    assert np.array_equal(strategy_rates(base, "S1"), 0.01 * base)
    assert np.array_equal(strategy_rates(base, "S5"), 100.0 * base)
    s6 = strategy_rates(base, "S6")
    assert np.all(s6 == np.mean(base)), "the ablation uses one uniform rate"
    with pytest.raises(ConfigError):
        strategy_rates(base, "S9")


def test_adam_config_validation():
    cfg = AdamConfig(np.array([1e-3]))
    assert cfg.gamma == pytest.approx(0.9**2 / np.sqrt(0.999))
    assert cfg.gamma < 1.0
    with pytest.raises(ConfigError):
        AdamConfig(np.array([0.0]))
    with pytest.raises(ConfigError):
        AdamConfig(np.array([1e-3]), beta1=1.0)
    with pytest.raises(ConfigError):
        AdamConfig(np.array([1e-3]), epsilon=0.0)
    with pytest.raises(ConfigError):
        AdamConfig(np.array([1e-3]), lambda_decay=0.0)
    with pytest.raises(ConfigError):
        # beta1^2/sqrt(beta2) = 0.9801/0.707 > 1
        AdamConfig(np.array([1e-3]), beta1=0.99, beta2=0.5)


def test_adam_stays_put_on_zero_gradient(star, model):
    theta0 = star.with_values([100e-6, 1.0, 1.1])
    cfg = AdamConfig(np.array([1e-3, 1e-3, 1e-3]), max_epochs=20)
    trace = adam_sweep(zero_dataset(), model, DT, theta0, {"custom": cfg})["custom"]
    assert not trace.failed
    assert len(trace.records) == 20
    assert np.array_equal(trace.final_theta, theta0.values), (
        "zero gradient must leave the parameters untouched"
    )
    assert np.all(trace.records.loss == 0.0)


def test_adam_reduces_loss(star, model, train_dataset):
    theta0 = star.with_values([120e-6, 0.903, 1.12])
    cfg = AdamConfig(np.array([4.6e-6, 7.3e-2, 9.8e-3]), max_epochs=60)
    trace = adam_sweep(train_dataset, model, DT, theta0, {"S3": cfg})["S3"]
    assert not trace.failed
    assert trace.records[-1].loss < 0.05 * trace.records[0].loss, (
        f"loss barely moved: {trace.records[0].loss} -> {trace.records[-1].loss}"
    )


def test_adam_respects_the_box(star, model, train_dataset):
    theta0 = star.with_values([120e-6, 0.903, 1.12])
    huge = AdamConfig(np.array([1.0, 1.0, 1.0]), max_epochs=30)
    trace = adam_sweep(train_dataset, model, DT, theta0, {"S5-ish": huge})["S5-ish"]
    for rec in trace.records:
        assert star.contains(rec.theta), f"epoch {rec.epoch} left the box: {rec.theta}"


def test_adam_flags_nonfinite_loss(star):
    blowup = pk.ContinuousModel(
        dim_x=1, dim_u=2, dim_theta=3,
        a_of=lambda _v: np.zeros((1, 1)),
        b_of=lambda _v: np.array([[1e308, 1e308]]),
        da_dtheta=lambda _v: np.zeros((1, 1, 3)),
        db_dtheta=lambda _v: np.zeros((1, 2, 3)),
    )
    ds = quick_dataset(DAB_THETA_STAR, 0.2)
    theta0 = pk.dab_params([120e-6, 0.903, 1.12])
    cfg = AdamConfig(np.full(3, 1e-3), max_epochs=5)
    with np.errstate(over="ignore"):
        trace = adam_sweep(ds, blowup, DT, theta0, {"custom": cfg})["custom"]
    assert trace.failed
    assert "non-finite" in trace.failure_reason
    assert len(trace.records) == 0
    assert np.array_equal(trace.final_theta, theta0.values)


def test_adam_fills_one_record_row_per_epoch(star, model, train_dataset):
    theta0 = star.with_values([120e-6, 0.903, 1.12])
    cfg = AdamConfig(np.array([4.6e-6, 7.3e-2, 9.8e-3]), max_epochs=50)
    trace = adam_sweep(train_dataset, model, DT, theta0, {"S3": cfg})["S3"]
    assert len(trace.records) == cfg.max_epochs
    for t, rec in enumerate(trace.records, start=1):
        assert rec.epoch == t
        assert rec.rmse == float(np.sqrt(2.0 * rec.loss))
        assert rec.grad_norm2 == float(np.linalg.norm(rec.grad, 2))
        assert rec.grad_norm_inf == float(np.max(np.abs(rec.grad)))
    nan_data = nan_sample_dataset(train_dataset)
    stopped = adam_sweep(nan_data, model, DT, theta0, {"S3": cfg})["S3"]
    assert stopped.failed and len(stopped.records) == 0
    assert stopped.records.dtype == trace.records.dtype


def test_grad_norm2_is_the_per_row_norm(star, train_dataset):
    """grad_norm2 holds np.linalg.norm(g, 2) of each row, not the row-wise
    reduction over the record, which rounds otherwise on some rows. A model
    with W linear in theta and balanced dW slices gives gradients whose
    entries are of one size, where the two differ."""
    w_star = pk.dab_transition(star, DT).w
    slices = 1e-3 * np.array([[1.0, -0.8, 0.6], [0.7, 1.1, -0.9], [-1.2, 0.5, 1.0]])

    def closed_form(values, dt):
        values = np.asarray(values, dtype=float)
        batch = values.shape[:-1]
        w = w_star + (values @ slices.T)[..., None, :]
        return DiscreteTransition(w, np.broadcast_to(slices, (*batch, 1, 3, 3)), None, dt)

    model = pk.ContinuousModel(1, 2, 3, None, None, closed_form=closed_form)
    theta0 = ParamVector(np.array([0.3, -0.2, 0.1]), -np.ones(3), np.ones(3), ("a", "b", "c"))
    cfg = AdamConfig(np.full(3, 1e-3), max_epochs=200)
    records = adam_sweep(train_dataset, model, DT, theta0, {"custom": cfg})["custom"].records
    grads = records.grad
    per_row = np.array([np.linalg.norm(g, 2) for g in grads])
    assert np.any(np.linalg.norm(grads, 2, axis=1) != per_row)
    assert np.all(records.grad_norm2 == per_row)


def sweep_configs(max_epochs):
    """The six default strategies over S3-like base rates."""
    base = np.array([4.6e-6, 7.3e-2, 9.8e-3])
    return {
        label: AdamConfig(strategy_rates(base, label), max_epochs=max_epochs)
        for label in STRATEGY_LABELS
    }


def assert_same_run(got, want):
    assert got.records.tobytes() == want.records.tobytes(), got.strategy
    assert got.records.dtype == want.records.dtype
    assert (got.failed, got.failure_reason) == (want.failed, want.failure_reason)


def plain_adam(dataset, model, theta0, config):
    """Box-projected Adam written out one epoch at a time on the public
    per-theta loss and gradient: the records and failure reason of a run."""
    records = epoch_records(config.max_epochs, theta0.dim)
    theta, m, v = theta0, np.zeros(theta0.dim), np.zeros(theta0.dim)
    for t in range(1, config.max_epochs + 1):
        f, g = loss(theta, dataset, model, DT), gradient(theta, dataset, model, DT)
        if not (np.isfinite(f) and np.isfinite(g).all()):
            return records[: t - 1], f"non-finite loss/gradient at epoch {t}"
        b1t = config.beta1 * config.lambda_decay ** (t - 1)
        m = b1t * m + (1.0 - b1t) * g
        v = config.beta2 * v + (1.0 - config.beta2) * g * g
        m_hat = m / (1.0 - config.beta1**t)
        v_hat = v / (1.0 - config.beta2**t)
        step = config.alpha * m_hat / (np.sqrt(v_hat) + config.epsilon)
        theta = theta0.with_values(np.clip(theta.values - step, theta0.lower, theta0.upper))
        row = records[t - 1]
        row.epoch, row.loss, row.rmse = t, f, np.sqrt(2.0 * f)
        row.theta, row.grad = theta.values, g
        row.grad_norm2, row.grad_norm_inf = np.linalg.norm(g, 2), np.max(np.abs(g))
    return records, ""


def test_sweep_rows_equal_solo_runs(star, model, train_dataset):
    """Lockstep training changes no bit of any strategy's record, S5 and S6
    (which cross the whole box in a step) included."""
    theta0 = star.with_values([120e-6, 0.903, 1.12])
    configs = sweep_configs(120)
    traces = adam_sweep(train_dataset, model, DT, theta0, configs)
    assert list(traces) == list(configs)
    for label, config in configs.items():
        assert len(traces[label].records) == config.max_epochs
        solo = adam_sweep(train_dataset, model, DT, theta0, {label: config})[label]
        assert_same_run(traces[label], solo)


def test_sweep_stops_an_overflowing_strategy_alone(star, train_dataset):
    """A generic model whose dB/dtheta overflows only at R_L > 2.5, where of
    the six only S5 goes: S5 stops with its solo run's records and reason,
    the others run every epoch as they do alone, and every run equals the
    plain epoch loop's."""
    dab = pk.dab_model()

    def db(v):
        out = dab.db_dtheta(v)
        lk, rl, _ = v.tolist()
        if rl > 2.5:
            out[0, 0, 0] = -1.0 / lk**2 * 1e305  # a Python float: -inf, no warning
        return out

    model = pk.ContinuousModel(1, 2, 3, dab.a_of, dab.b_of, dab.da_dtheta, db)
    theta0 = star.with_values([120e-6, 0.903, 1.12])
    configs = sweep_configs(40)
    traces = adam_sweep(train_dataset, model, DT, theta0, configs)
    for label, config in configs.items():
        solo = adam_sweep(train_dataset, model, DT, theta0, {label: config})[label]
        assert_same_run(traces[label], solo)
        records, reason = plain_adam(train_dataset, model, theta0, config)
        assert (solo.records.tobytes(), solo.failure_reason) == (records.tobytes(), reason)
        if label == "S5":
            assert solo.failed and 0 < len(solo.records) < config.max_epochs
            assert solo.failure_reason == f"non-finite loss/gradient at epoch {len(solo.records) + 1}"
        else:
            assert not solo.failed and len(solo.records) == config.max_epochs


def test_sweep_stops_every_strategy_on_a_nan_sample(star, model, train_dataset):
    theta0 = star.with_values([120e-6, 0.903, 1.12])
    traces = adam_sweep(nan_sample_dataset(train_dataset), model, DT, theta0, sweep_configs(5))
    dtype = epoch_records(0, 3).dtype
    for trace in traces.values():
        assert trace.failed and trace.failure_reason == "non-finite loss/gradient at epoch 1"
        assert len(trace.records) == 0 and trace.records.dtype == dtype


def test_sweep_takes_configs_differing_only_in_alpha(star, model, train_dataset):
    assert adam_sweep(train_dataset, model, DT, star, {}) == {}
    configs = sweep_configs(5)
    configs["S6"] = AdamConfig(configs["S6"].alpha, max_epochs=6)
    with pytest.raises(ConfigError):
        adam_sweep(train_dataset, model, DT, star, configs)


def test_block_statistics_equal_solo_statistics(star, train_dataset):
    """Statistics referenced at a block of transitions whose rows are strided
    views equal those referenced at each theta alone bit for bit, and so do
    the loss and gradient read from them, in the general form and at the
    reference: BLAS rounds a strided row times Z otherwise, so the kernel
    multiplies a contiguous copy."""
    thetas = np.random.default_rng(41).uniform(star.lower, star.upper, size=(6, 3))
    block = pk.dab_transition(thetas, DT)
    strided = DiscreteTransition(np.asfortranarray(block.w), None, None, DT)
    assert np.array_equal(strided.w, block.w) and not strided.w[0].flags.c_contiguous
    stats = LossStatistics.of(train_dataset, strided)
    f, g = stats.loss(block), stats.gradient(block)
    f_ref, g_ref = stats.at_reference(block.dw_dtheta)
    assert f_ref.tobytes() == f.tobytes() and g_ref.tobytes() == g.tobytes()
    for i, values in enumerate(thetas):
        trans = pk.dab_transition(values, DT)
        solo = LossStatistics.of(train_dataset, trans)
        assert stats.cross[i].tobytes() == solo.cross.tobytes()
        assert stats.mean_sq[i] == solo.mean_sq
        assert f[i] == solo.loss(trans) and g[i].tobytes() == solo.gradient(trans).tobytes()


def test_sweep_equals_a_plain_epoch_loop(star, model):
    """adam_sweep's records equal a plain per-theta Adam loop's byte for
    byte, for all six strategies on a noisy 8-segment dataset; S5 and S6
    cross the whole box in a step."""
    dataset = pk.synthesize_dataset(
        star, pk.draw_modulation_specs(8, 7), noise_sigma=0.05, seed=7
    )
    theta0 = star.with_values([120e-6, 0.903, 1.12])
    configs = sweep_configs(60)
    traces = adam_sweep(dataset, model, DT, theta0, configs)
    for label, config in configs.items():
        records, reason = plain_adam(dataset, model, theta0, config)
        assert len(records) == config.max_epochs and not reason
        assert traces[label].records.tobytes() == records.tobytes(), label
        assert (traces[label].failed, traces[label].failure_reason) == (False, "")


def test_adam_rejects_alpha_size_mismatch(star, model, train_dataset):
    with pytest.raises(ConfigError):
        adam_sweep(
            train_dataset, model, DT, star, {"custom": AdamConfig(np.array([1e-3, 1e-3]))}
        )


def test_regret_zero_when_sitting_at_the_optimum(star, model):
    ds = zero_dataset()
    cfg = AdamConfig(np.full(3, 1e-3), max_epochs=10)
    trace = adam_sweep(ds, model, DT, star, {"custom": cfg})["custom"]
    ledger = regret_ledger(trace, loss(star, ds, model, DT))
    assert ledger.theta_star_policy == "ground-truth"
    assert ledger.regret_T == 0.0
    assert np.all(ledger.curve == 0.0)
    assert ledger.slope is None, "no positive regret, no growth to fit"


def test_regret_curve_is_nondecreasing(star, model, train_dataset):
    theta0 = star.with_values([120e-6, 0.903, 1.12])
    cfg = AdamConfig(np.array([4.6e-6, 7.3e-2, 9.8e-3]), max_epochs=40)
    trace = adam_sweep(train_dataset, model, DT, theta0, {"custom": cfg})["custom"]
    ledger = regret_ledger(trace, loss(star, train_dataset, model, DT))
    assert ledger.theta_star_policy == "ground-truth"
    assert np.all(np.diff(ledger.curve) >= 0.0), (
        "ground-truth loss is the global minimum, so increments are nonnegative"
    )
    assert ledger.window_end <= len(trace.records)
    assert ledger.curve[-1] / len(trace.records) == pytest.approx(ledger.avg_regret)


def test_regret_best_seen_policy(star, model, train_dataset):
    theta0 = star.with_values([120e-6, 0.903, 1.12])
    cfg = AdamConfig(np.array([4.6e-6, 7.3e-2, 9.8e-3]), max_epochs=20)
    trace = adam_sweep(train_dataset, model, DT, theta0, {"custom": cfg})["custom"]
    ledger = regret_ledger(trace, None)
    assert ledger.theta_star_policy == "best-seen"
    assert ledger.f_star == np.min(trace.records.loss)
    assert np.all(np.diff(ledger.curve) >= 0.0)


def test_regret_bound_shape():
    # moderate lambda keeps the constant term small enough that the sqrt(T)
    # geometry is visible without cancellation
    cfg = AdamConfig(np.array([1e-3, 1e-2]), lambda_decay=0.9)
    b0 = regret_bound(cfg, d=2, big_d=1.0, big_d_inf=1.0, ginf=10.0, t=0)
    b1 = regret_bound(cfg, d=2, big_d=1.0, big_d_inf=1.0, ginf=10.0, t=1)
    b4 = regret_bound(cfg, d=2, big_d=1.0, big_d_inf=1.0, ginf=10.0, t=4)
    assert b0 > 0.0, "the constant term alone is positive"
    assert b4 - b0 == pytest.approx(2.0 * (b1 - b0), rel=1e-12), (
        "the T-dependent part must grow exactly like sqrt(T)"
    )
    with pytest.raises(DivergentBound):
        regret_bound(
            AdamConfig(np.array([1e-3]), lambda_decay=1.0),
            d=1, big_d=1.0, big_d_inf=1.0, ginf=10.0, t=1,
        )


def test_regret_bound_curve_equals_per_epoch_bounds():
    cfg = AdamConfig(np.array([4.6e-6, 7.3e-2, 9.8e-3]))
    constants = dict(d=3, big_d=1.67, big_d_inf=1.66, ginf=297.0)
    t = np.arange(1, 3001)
    per_epoch = [regret_bound(cfg, **constants, t=int(k)) for k in t]
    assert np.array_equal(regret_bound(cfg, **constants, t=t), per_epoch)


def test_diagnostics_monotone_approach():
    trace = make_trace(
        thetas=[[0.5, 1.8, 1.0], [0.9, 1.8, 1.0], [0.995, 1.8, 1.0], [1.0, 1.8, 1.0]],
        theta0=[0.0, 1.8, 1.0],
    )
    # only the first axis moves; its target is 1.0 from 0.0
    diag = training_diagnostics(trace, np.array([1.0, 1.8, 1.0]))
    assert np.all(diag.overshoot_pct == 0.0), f"overshoot {diag.overshoot_pct}"
    assert diag.convergence_epoch == 3, "first epoch with every error within 1%"
    assert np.all(diag.oscillation_count == 0)


def test_diagnostics_overshoot_percentage():
    # start at 0, target 1, peak at 1.87: 87% of the initial gap
    trace = make_trace(
        thetas=[[1.87, 1.8, 1.0], [1.0, 1.8, 1.0]],
        theta0=[0.0, 1.8, 1.0],
    )
    diag = training_diagnostics(trace, np.array([1.0, 1.8, 1.0]))
    assert diag.overshoot_pct[0] == pytest.approx(87.0)
    assert diag.overshoot_pct[1] == 0.0, "a parameter that never moves has no overshoot"


def test_diagnostics_overshoot_uses_initial_gap():
    trace = make_trace(
        thetas=[[1.1, 1.8, 1.0]],
        theta0=[0.5, 1.8, 1.0],
    )
    diag = training_diagnostics(trace, np.array([1.0, 1.8, 1.0]))
    assert diag.overshoot_pct[0] == pytest.approx(20.0), "0.1 beyond over a 0.5 gap"


def test_diagnostics_counts_oscillations():
    # sign sequence +,-,+,- has three flips; the first is the initial approach
    trace = make_trace(
        thetas=[
            [1.5, 1.8, 1.0],
            [0.5, 1.8, 1.0],
            [1.5, 1.8, 1.0],
            [0.5, 1.8, 1.0],
            [1.0, 1.8, 1.0],
        ],
        theta0=[0.0, 1.8, 1.0],
    )
    diag = training_diagnostics(trace, np.array([1.0, 1.8, 1.0]))
    assert diag.oscillation_count[0] == 2
    assert diag.convergence_epoch == 5


def test_diagnostics_none_when_not_converged():
    trace = make_trace(
        thetas=[[0.5, 1.8, 1.0]],
        theta0=[0.0, 1.8, 1.0],
    )
    diag = training_diagnostics(trace, np.array([1.0, 1.8, 1.0]))
    assert diag.convergence_epoch is None


def test_trace_csv_round_trip(tmp_path, star, model, train_dataset):
    theta0 = star.with_values([120e-6, 0.903, 1.12])
    cfg = AdamConfig(np.array([4.6e-6, 7.3e-2, 9.8e-3]), max_epochs=5)
    trace = adam_sweep(train_dataset, model, DT, theta0, {"S3": cfg})["S3"]
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,loss,rmse,L_k,R_L,n,grad_norm2,grad_norm_inf"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == trace.records[0].loss, "17-digit floats must round-trip"


def trace_csv_reference(trace, path):
    """The per-record csv.writer loop that write_trace_csv replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        names = trace.theta0.names
        writer.writerow(["epoch", "loss", "rmse", *names, "grad_norm2", "grad_norm_inf"])
        for rec in trace.records:
            floats = (rec.loss, rec.rmse, *rec.theta, rec.grad_norm2, rec.grad_norm_inf)
            writer.writerow([rec.epoch, *("{:.17g}".format(v) for v in floats)])


def test_trace_csv_equals_the_csv_writer_loop(tmp_path, star, model, train_dataset):
    theta0 = star.with_values([120e-6, 0.903, 1.12])
    cfg = AdamConfig(np.array([4.6e-6, 7.3e-2, 9.8e-3]), max_epochs=5)
    # A run stopped at epoch 1 writes the header alone.
    nan_data = nan_sample_dataset(train_dataset)
    stopped = adam_sweep(nan_data, model, DT, theta0, {"S3": cfg})["S3"]
    assert stopped.failed and not len(stopped.records)
    for trace in (adam_sweep(train_dataset, model, DT, theta0, {"S3": cfg})["S3"], stopped):
        write_trace_csv(trace, tmp_path / "got.csv")
        trace_csv_reference(trace, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert (tmp_path / "got.csv").read_bytes() == (
        b"epoch,loss,rmse,L_k,R_L,n,grad_norm2,grad_norm_inf\r\n"
    )
