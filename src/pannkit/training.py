"""Parameter identification: loss, analytic derivatives, box-projected Adam,
Lipschitz-aware learning rates, regret accounting, and run diagnostics.

The forward pass is `pann.rollout_teacher_forced` (each prediction starts
from the measured state), which is exactly what the analytic gradient
assumes: z is data, so d f / d theta flows only through W(theta). The loss
statistics take their residual from it.

Trace conventions: the epoch-t record stores the loss and gradient evaluated
at the iterate ENTERING the epoch (theta_1 = theta0) and the parameter
estimate AFTER the epoch's update. Regret sums the recorded losses; the
diagnostics track the recorded estimates.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional

import numpy as np

from .errors import (
    ConfigError,
    DivergentBound,
    EmptyTrace,
    MissingDerivatives,
    NonPositiveBound,
)
from .pann import rollout_teacher_forced
from .signals import WaveformDataset, write_csv
from .statespace import ContinuousModel, DiscreteTransition, ParamVector, transition_values

# Rate-scale ladder: multiples of the Lipschitz-aware rates, plus the S6
# ablation (a uniform rate with no per-parameter range scaling).
STRATEGY_MULTIPLIERS = {"S1": 0.01, "S2": 0.1, "S3": 1.0, "S4": 10.0, "S5": 100.0}
STRATEGY_LABELS = ("S1", "S2", "S3", "S4", "S5", "S6")
# The share of total regret whose first crossing ends the regret window.
WINDOW_ACCRUAL = 0.95


@dataclass
class AdamConfig:
    alpha: np.ndarray
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    lambda_decay: float = 1.0 - 1e-8
    max_epochs: int = 200

    def __post_init__(self):
        self.alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        if np.any(self.alpha <= 0) or not np.all(np.isfinite(self.alpha)):
            raise ConfigError(f"learning rates must be positive finite, got {self.alpha}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ConfigError(
                f"beta1 must lie in [0, 1) and beta2 in (0, 1): {self.beta1}, {self.beta2}"
            )
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if not (0.0 < self.lambda_decay <= 1.0):
            raise ConfigError(f"lambda_decay must lie in (0, 1], got {self.lambda_decay}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if self.gamma >= 1.0:
            raise ConfigError(
                f"beta1^2/sqrt(beta2) = {self.gamma:.6g} must be below 1 "
                "for the regret bound to be finite"
            )

    @property
    def gamma(self) -> float:
        return self.beta1**2 / np.sqrt(self.beta2)


def epoch_records(shape, dim: int) -> np.recarray:
    """Zeroed rows of a run's per-epoch record, n of them or an array of the
    given shape: the epoch number, the loss and its RMSE, the estimate theta,
    the gradient and its 2- and infinity norms, for a dim-parameter model."""
    dtype = [
        ("epoch", np.int64), ("loss", float), ("rmse", float),
        ("theta", float, (dim,)), ("grad", float, (dim,)),
        ("grad_norm2", float), ("grad_norm_inf", float),
    ]
    return np.zeros(shape, dtype=dtype).view(np.recarray)


@dataclass
class TrainingTrace:
    """One training run: a record array with one row per epoch run, and the
    starting point, whose box and names the consumers read."""

    records: np.recarray
    strategy: str
    theta0: ParamVector
    failed: bool = False
    failure_reason: str = ""

    @property
    def final_theta(self) -> np.ndarray:
        return self.records.theta[-1] if len(self.records) else self.theta0.values


@dataclass(frozen=True)
class LossStatistics:
    """The loss as a quadratic in the transition row, from the residual at a
    reference theta: with Z the stacked inputs (K steps), r_ref = W_ref Z - X
    and dW = W - W_ref,

        f = 1/2 (dW G dW^T + 2 dW c + s),  G = Z Z^T / K,
        c = Z r_ref^T / K,  s = mean over steps of ||r_ref||^2.

    loss, gradient and hessian take the transition at one theta or at a
    block of thetas and cost O(D^2) per theta, whatever K. Shifting around
    the reference keeps f free of cancellation near it; at the reference
    itself (dW = 0) f is exactly s / 2 and the gradient c^T dW/dtheta, which
    `at_reference` reads without the quadratic terms.
    """

    w_ref: np.ndarray
    gram: np.ndarray
    cross: np.ndarray
    mean_sq: float | np.ndarray

    @classmethod
    def of(cls, dataset: WaveformDataset, ref: DiscreteTransition) -> "LossStatistics":
        """Statistics referenced at one transition, or at each row of a block
        of them; then c and s carry the block's leading axis. The residual is
        the teacher-forced prediction's."""
        z, x = dataset.stacked
        k = z.shape[1]
        r = rollout_teacher_forced(ref, dataset) - x
        cross = z @ np.swapaxes(r, -2, -1) / k
        return cls(ref.w, dataset.gram, cross, np.sum(r * r, axis=(-2, -1)) / k)

    def _slope(self, trans: DiscreteTransition) -> np.ndarray:
        """df/dW = dW G + c^T, per theta."""
        return (trans.w - self.w_ref) @ self.gram + np.swapaxes(self.cross, -2, -1)

    def loss(self, trans: DiscreteTransition):
        d = trans.w - self.w_ref
        lin = 2.0 * np.swapaxes(self.cross, -2, -1)
        quad_and_lin = ((d @ self.gram + lin) * d).sum(axis=(-2, -1))
        return 0.5 * (quad_and_lin + self.mean_sq)

    def gradient(self, trans: DiscreteTransition) -> np.ndarray:
        if trans.dw_dtheta is None:
            raise MissingDerivatives("model provides no dW/dtheta tensor")
        return np.einsum("...xz,...xzi->...i", self._slope(trans), trans.dw_dtheta)

    def at_reference(self, dw_dtheta: Optional[np.ndarray]):
        """(f, grad) at the reference theta itself, given its dW/dtheta:
        s / 2 and c^T dW/dtheta. `loss` and `gradient` give the same bits
        there, since W - W_ref is exactly zero, whenever G and 2c are finite
        (otherwise their quadratic terms read 0 * inf)."""
        if dw_dtheta is None:
            raise MissingDerivatives("model provides no dW/dtheta tensor")
        slope = np.swapaxes(self.cross, -2, -1)
        return self.mean_sq / 2, np.einsum("...xz,...xzi->...i", slope, dw_dtheta)

    def hessian(self, trans: DiscreteTransition) -> np.ndarray:
        """Gauss-Newton term plus the residual-weighted curvature term."""
        dw, d2w = trans.dw_dtheta, trans.d2w_dtheta2
        if dw is None or d2w is None:
            raise MissingDerivatives("model provides no dW/d2W tensors")
        gauss_newton = np.einsum("...xzi,zy,...xyj->...ij", dw, self.gram, dw)
        curvature = np.einsum("...xz,...xzij->...ij", self._slope(trans), d2w)
        h = gauss_newton + curvature
        return 0.5 * (h + np.swapaxes(h, -2, -1))


def _at(values: np.ndarray, dataset: WaveformDataset, model: ContinuousModel, dt: float):
    """The transition at theta and the loss statistics referenced there."""
    trans = transition_values(model, values, dt)
    return trans, LossStatistics.of(dataset, trans)


def loss(theta: ParamVector, dataset: WaveformDataset, model: ContinuousModel, dt: float) -> float:
    """Mean over steps of 0.5 ||x_hat - x*||^2 (teacher-forced)."""
    trans, stats = _at(theta.values, dataset, model, dt)
    return float(stats.loss(trans))


def gradient(
    theta: ParamVector, dataset: WaveformDataset, model: ContinuousModel, dt: float
) -> np.ndarray:
    """Mean over steps of (x_hat - x*)^T (dW/dtheta_i z) per component."""
    trans, stats = _at(theta.values, dataset, model, dt)
    return stats.gradient(trans)


def hessian(
    theta: ParamVector, dataset: WaveformDataset, model: ContinuousModel, dt: float
) -> np.ndarray:
    """Gauss-Newton term plus the residual-weighted curvature term."""
    trans, stats = _at(theta.values, dataset, model, dt)
    return stats.hessian(trans)


def lipschitz_aware_rates(
    ginf: float,
    ranges: np.ndarray,
    l2theta: float,
    scale_c: float = 1.0,
    clamp: tuple = (1e-7, 1e1),
) -> np.ndarray:
    """alpha_i = scale_c * Ginf * range_i / L2theta, clamped to the
    admissible interval."""
    ranges = np.atleast_1d(np.asarray(ranges, dtype=float))
    if ginf <= 0 or l2theta <= 0 or np.any(ranges <= 0) or scale_c <= 0:
        raise NonPositiveBound(
            f"rate inputs must be positive: Ginf={ginf}, L2theta={l2theta}, "
            f"ranges={ranges}, scale_c={scale_c}"
        )
    return np.clip(scale_c * ginf * ranges / l2theta, clamp[0], clamp[1])


def strategy_rates(base_alpha: np.ndarray, label: str) -> np.ndarray:
    """Resolve a strategy label to its rate vector.

    S1..S5 scale the base (Lipschitz-aware) rates by fixed multipliers; S6 is
    the ablation: one uniform rate, the mean of the base, on every parameter.
    """
    base_alpha = np.atleast_1d(np.asarray(base_alpha, dtype=float))
    if label == "S6":
        return np.full_like(base_alpha, float(np.mean(base_alpha)))
    if label not in STRATEGY_MULTIPLIERS:
        raise ConfigError(f"unknown strategy {label!r}; expected one of {STRATEGY_LABELS}")
    return STRATEGY_MULTIPLIERS[label] * base_alpha


def adam_sweep(
    dataset: WaveformDataset,
    model: ContinuousModel,
    dt: float,
    theta0: ParamVector,
    configs: Mapping[str, AdamConfig],
) -> Dict[str, TrainingTrace]:
    """Box-projected Adam with bias correction and per-epoch beta1 decay, for
    every labelled config at once, all started at theta0.

    The configs may differ only in their rates. Each epoch advances the S
    running strategies as one (S, D) block: one block transition, one set of
    loss statistics and one Adam update, whose rows equal the runs made one
    strategy at a time bit for bit. Deterministic given (theta0, dataset,
    configs). A strategy whose loss or gradient turns non-finite stops alone,
    with its trace so far and the failed flag set; the others go on.
    """
    if not configs:
        return {}
    labels = list(configs)
    first = configs[labels[0]]
    shared = ("beta1", "beta2", "epsilon", "lambda_decay", "max_epochs")
    for label, config in configs.items():
        if config.alpha.size != theta0.dim:
            raise ConfigError(
                f"alpha has {config.alpha.size} entries for {theta0.dim} parameters"
            )
        if any(getattr(config, key) != getattr(first, key) for key in shared):
            raise ConfigError(f"strategy {label!r} differs from {labels[0]!r} in more than alpha")
    b1, b2 = first.beta1, first.beta2
    # Row i of the (S, T) record is strategy i's trace. Each epoch writes the
    # block's rows in place; live[row] is the strategy of the block's row.
    records = epoch_records((len(labels), first.max_epochs), theta0.dim)
    losses, thetas, grads = records.loss, records.theta, records.grad
    live = np.arange(len(labels))
    alpha = np.stack([configs[label].alpha for label in labels])
    th = np.tile(theta0.values, (len(labels), 1))
    m = np.zeros_like(th)
    v = np.zeros_like(th)
    ran = [first.max_epochs] * len(labels)
    reasons = [""] * len(labels)
    for t in range(1, first.max_epochs + 1):
        # Each row is its own loss statistics' reference, so the loss and
        # gradient are read there, in their exact form.
        trans = transition_values(model, th, dt)
        f, g = LossStatistics.of(dataset, trans).at_reference(trans.dw_dtheta)
        finite = np.isfinite(f) & np.isfinite(g).all(axis=1)
        if not finite.all():
            # Stopped rows leave the block, so no later arithmetic meets them.
            for i in live[~finite]:
                ran[i] = t - 1
                reasons[i] = f"non-finite loss/gradient at epoch {t}"
            live = live[finite]
            if not live.size:
                break
            f, g, th, m, v, alpha = (a[finite] for a in (f, g, th, m, v, alpha))
        b1t = b1 * first.lambda_decay ** (t - 1)
        m = b1t * m + (1.0 - b1t) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        th = theta0.clip(th - alpha * m_hat / (np.sqrt(v_hat) + first.epsilon))
        losses[live, t - 1], thetas[live, t - 1], grads[live, t - 1] = f, th, g
    traces = {}
    for i, label in enumerate(labels):
        rec = records[i, : ran[i]]
        rec.epoch = np.arange(1, ran[i] + 1)
        rec.rmse = np.sqrt(2.0 * rec.loss)
        # np.linalg.norm(g, 2)'s own 1-D dot, row by row: a reduction over
        # the rows would round otherwise.
        rec.grad_norm2 = np.sqrt([g.dot(g) for g in rec.grad])
        rec.grad_norm_inf = np.max(np.abs(rec.grad), axis=1)
        traces[label] = TrainingTrace(rec, label, theta0, failed=bool(reasons[i]),
                                      failure_reason=reasons[i])
    return traces


@dataclass
class RegretLedger:
    """Cumulative excess loss over the reference parameters."""

    regret_T: float
    avg_regret: float
    theta_star_policy: str
    curve: np.ndarray
    f_star: float
    window_accrual: float
    window_end: int
    slope: Optional[float]


def regret_ledger(trace: TrainingTrace, f_star: Optional[float] = None) -> RegretLedger:
    """Regret(T) = sum_t [f_t - f_star] with the accrual window end (first T
    reaching WINDOW_ACCRUAL of total regret), and the log-log growth slope
    fitted over that pre-convergence window.

    f_star is the ground-truth loss, or None for the trace's best-seen loss;
    theta_star_policy records which.
    """
    if not len(trace.records):
        raise EmptyTrace("regret needs at least one epoch")
    losses = trace.records.loss
    policy = "ground-truth" if f_star is not None else "best-seen"
    if f_star is None:
        f_star = float(np.min(losses))
    curve = np.cumsum(losses - f_star)
    t_axis = np.arange(1, losses.size + 1)
    regret_total = float(curve[-1])
    if regret_total > 0:
        window_end = int(np.argmax(curve >= WINDOW_ACCRUAL * regret_total)) + 1
    else:
        window_end = losses.size
    slope = None
    w = curve[:window_end]
    mask = w > 0
    if int(np.count_nonzero(mask)) >= 2:
        logt = np.log(t_axis[:window_end][mask])
        logr = np.log(w[mask])
        a = np.vstack([logt, np.ones_like(logt)]).T
        slope = float(np.linalg.lstsq(a, logr, rcond=None)[0][0])
    return RegretLedger(
        regret_T=regret_total,
        avg_regret=regret_total / losses.size,
        theta_star_policy=policy,
        curve=curve,
        f_star=f_star,
        window_accrual=WINDOW_ACCRUAL,
        window_end=window_end,
        slope=slope,
    )


def regret_bound(
    config: AdamConfig, d: int, big_d: float, big_d_inf: float, ginf: float,
    t: int | np.ndarray,
) -> float | np.ndarray:
    """The three-term regret bound evaluated with supplied constants, at one
    horizon t or elementwise over an array of them.

    With a per-parameter rate vector the scalar-rate statement is made
    conservative: min(alpha) where the rate divides, max(alpha) where it
    multiplies, which can only enlarge the bound.
    """
    gamma = config.gamma
    lam = config.lambda_decay
    if gamma >= 1.0 or lam >= 1.0:
        raise DivergentBound(
            f"bound undefined: gamma={gamma:.6g}, lambda={lam:.17g} (both must be < 1)"
        )
    a_min = float(np.min(config.alpha))
    a_max = float(np.max(config.alpha))
    b1, b2 = config.beta1, config.beta2
    term1 = d * big_d_inf**2 * ginf * np.sqrt(1.0 - b2) / (
        2.0 * a_min * (1.0 - b1) * (1.0 - lam) ** 2
    )
    term2 = d * big_d**2 * ginf / (2.0 * a_min * (1.0 - b1)) * np.sqrt(t)
    term3 = (
        a_max
        * (1.0 + b1)
        * d
        * ginf**2
        / ((1.0 - b1) * np.sqrt(1.0 - b2) * (1.0 - gamma) ** 2)
        * np.sqrt(t)
    )
    return term1 + term2 + term3


@dataclass
class Diagnostics:
    overshoot_pct: np.ndarray
    convergence_epoch: Optional[int]
    oscillation_count: np.ndarray


def training_diagnostics(trace: TrainingTrace, theta_star: np.ndarray) -> Diagnostics:
    """Overshoot (peak excursion beyond the target as % of the initial gap),
    convergence epoch (first epoch after which every parameter stays within
    1% relative error), and oscillation counts (sign changes of the error
    after its first crossing)."""
    if not len(trace.records):
        raise EmptyTrace("diagnostics need at least one epoch")
    theta_star = np.asarray(theta_star, dtype=float)
    thetas = trace.records.theta
    gap = theta_star - trace.theta0.values

    overshoot = np.zeros(theta_star.size)
    for i in range(theta_star.size):
        if gap[i] == 0.0:
            continue
        excursion = np.sign(gap[i]) * (thetas[:, i] - theta_star[i])
        overshoot[i] = max(0.0, float(np.max(excursion))) / abs(gap[i]) * 100.0

    rel = np.abs(thetas - theta_star) / np.abs(theta_star)
    within = np.all(rel <= 0.01, axis=1)
    convergence = None
    bad = np.nonzero(~within)[0]
    if within.size and within[-1]:
        convergence = int(bad[-1]) + 2 if bad.size else 1

    osc = np.zeros(theta_star.size, dtype=int)
    for i in range(theta_star.size):
        signs = np.sign(thetas[:, i] - theta_star[i])
        signs = signs[signs != 0]
        if signs.size < 2:
            continue
        changes = int(np.count_nonzero(np.diff(signs) != 0))
        osc[i] = max(0, changes - 1)
    return Diagnostics(overshoot, convergence, osc)


def write_trace_csv(trace: TrainingTrace, path: Path) -> None:
    """Per-epoch CSV: epoch, loss, rmse, parameter estimates, grad norms."""
    r = trace.records
    header = ["epoch", "loss", "rmse", *trace.theta0.names, "grad_norm2", "grad_norm_inf"]
    write_csv(path, header, [r.epoch, r.loss, r.rmse, *r.theta.T, r.grad_norm2, r.grad_norm_inf])
