"""Parameter identification: loss, analytic derivatives, box-projected Adam,
Lipschitz-aware learning rates, regret accounting, and run diagnostics.

The forward pass is teacher-forced (each prediction starts from the measured
state), which is exactly what the analytic gradient assumes: z is data, so
d f / d theta flows only through W(theta).

Trace conventions: the epoch-t record stores the loss and gradient evaluated
at the iterate ENTERING the epoch (theta_1 = theta0) and the parameter
estimate AFTER the epoch's update. Regret sums the recorded losses; the
diagnostics track the recorded estimates.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from .errors import (
    ConfigError,
    DivergentBound,
    EmptyDataset,
    EmptyTrace,
    MissingDerivatives,
    NonPositiveBound,
)
from .signals import WaveformDataset
from .statespace import ContinuousModel, DiscreteTransition, ParamVector, transition_values

_FLOAT_FMT = "{:.17g}"

# Rate-scale ladder: multiples of the Lipschitz-aware rates, plus the S6
# ablation (a uniform rate with no per-parameter range scaling).
STRATEGY_MULTIPLIERS = {"S1": 0.01, "S2": 0.1, "S3": 1.0, "S4": 10.0, "S5": 100.0}
STRATEGY_LABELS = ("S1", "S2", "S3", "S4", "S5", "S6")


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


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    rmse: float
    theta: np.ndarray
    grad: np.ndarray
    grad_norm2: float
    grad_norm_inf: float


@dataclass
class TrainingTrace:
    records: List[EpochRecord]
    strategy: str
    seed: int
    theta0: np.ndarray
    box_lower: np.ndarray
    box_upper: np.ndarray
    names: tuple
    failed: bool = False
    failure_reason: str = ""

    def __post_init__(self):
        for i, rec in enumerate(self.records):
            if rec.epoch != i + 1:
                raise EmptyTrace(f"epochs must be contiguous from 1, got {rec.epoch} at {i}")

    @property
    def final_theta(self) -> np.ndarray:
        return self.records[-1].theta if self.records else self.theta0

    @property
    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])

    @property
    def thetas(self) -> np.ndarray:
        return np.array([r.theta for r in self.records])


def _residuals(values: np.ndarray, dataset: WaveformDataset, model: ContinuousModel, dt: float):
    z, x = dataset.stacked()
    if z.shape[1] == 0:
        raise EmptyDataset("dataset has no steps")
    trans = transition_values(model, values, dt)
    return trans, z, (trans.w @ z - x)


# The residual -> (loss, gradient) kernel shared by loss, gradient and adam_train.

def _mean_half_square(r: np.ndarray) -> float:
    return 0.5 * float(np.sum(r * r)) / r.shape[1]


def _mean_gradient(trans: DiscreteTransition, z: np.ndarray, r: np.ndarray) -> np.ndarray:
    if trans.dw_dtheta is None:
        raise MissingDerivatives("model provides no dW/dtheta tensor")
    return np.einsum("xk,xzi,zk->i", r, trans.dw_dtheta, z) / r.shape[1]


def loss(theta: ParamVector, dataset: WaveformDataset, model: ContinuousModel, dt: float) -> float:
    """Mean over steps of 0.5 ||x_hat - x*||^2 (teacher-forced)."""
    return _mean_half_square(_residuals(theta.values, dataset, model, dt)[2])


def gradient(
    theta: ParamVector, dataset: WaveformDataset, model: ContinuousModel, dt: float
) -> np.ndarray:
    """Mean over steps of (x_hat - x*)^T (dW/dtheta_i z) per component."""
    return _mean_gradient(*_residuals(theta.values, dataset, model, dt))


def hessian(
    theta: ParamVector, dataset: WaveformDataset, model: ContinuousModel, dt: float
) -> np.ndarray:
    """Gauss-Newton term plus the residual-weighted curvature term."""
    trans, z, r = _residuals(theta.values, dataset, model, dt)
    if trans.dw_dtheta is None or trans.d2w_dtheta2 is None:
        raise MissingDerivatives("model provides no dW/d2W tensors")
    k = r.shape[1]
    jz = np.einsum("xzi,zk->xik", trans.dw_dtheta, z)
    term1 = np.einsum("xik,xjk->ij", jz, jz) / k
    term2 = np.einsum("xk,xzij,zk->ij", r, trans.d2w_dtheta2, z) / k
    return term1 + term2


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


def adam_train(
    dataset: WaveformDataset,
    model: ContinuousModel,
    dt: float,
    theta0: ParamVector,
    config: AdamConfig,
    strategy_label: str = "custom",
    seed: int = 0,
) -> TrainingTrace:
    """Box-projected Adam with bias correction and per-epoch beta1 decay.

    Deterministic given (theta0, dataset, config). A non-finite loss or
    gradient aborts with the trace so far and the failed flag set.
    """
    if config.alpha.size != theta0.dim:
        raise ConfigError(
            f"alpha has {config.alpha.size} entries for {theta0.dim} parameters"
        )
    th = theta0.values.copy()
    m = np.zeros(theta0.dim)
    v = np.zeros(theta0.dim)
    b1, b2 = config.beta1, config.beta2
    records: List[EpochRecord] = []
    failed = False
    reason = ""
    for t in range(1, config.max_epochs + 1):
        trans, z, r = _residuals(th, dataset, model, dt)
        f = _mean_half_square(r)
        g = _mean_gradient(trans, z, r)
        if not (np.isfinite(f) and np.all(np.isfinite(g))):
            failed = True
            reason = f"non-finite loss/gradient at epoch {t}"
            break
        b1t = b1 * config.lambda_decay ** (t - 1)
        m = b1t * m + (1.0 - b1t) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        th = theta0.clip(th - config.alpha * m_hat / (np.sqrt(v_hat) + config.epsilon))
        records.append(
            EpochRecord(
                epoch=t,
                loss=f,
                rmse=float(np.sqrt(2.0 * f)),
                theta=th.copy(),
                grad=g.copy(),
                grad_norm2=float(np.linalg.norm(g, 2)),
                grad_norm_inf=float(np.max(np.abs(g))),
            )
        )
    return TrainingTrace(
        records=records,
        strategy=strategy_label,
        seed=seed,
        theta0=theta0.values.copy(),
        box_lower=theta0.lower.copy(),
        box_upper=theta0.upper.copy(),
        names=tuple(theta0.names),
        failed=failed,
        failure_reason=reason,
    )


@dataclass
class RegretLedger:
    """Cumulative excess loss over the reference parameters."""

    regret_T: float
    avg_regret: float
    theta_star_policy: str
    curve: np.ndarray
    avg_curve: np.ndarray
    f_star: float
    window_accrual: float
    window_end: int
    slope: Optional[float]

    def to_dict(self) -> dict:
        return {
            "regret_T": self.regret_T,
            "avg_regret": self.avg_regret,
            "theta_star_policy": self.theta_star_policy,
            "curve": [float(v) for v in self.curve],
            "avg_curve": [float(v) for v in self.avg_curve],
            "f_star": self.f_star,
            "window_accrual": self.window_accrual,
            "window_end": self.window_end,
            "slope": self.slope,
        }


def regret_ledger(
    trace: TrainingTrace,
    dataset: WaveformDataset,
    model: ContinuousModel,
    dt: float,
    theta_star_policy: str = "ground-truth",
    theta_star: Optional[np.ndarray] = None,
    window_accrual: float = 0.95,
) -> RegretLedger:
    """Regret(T) = sum_t [f_t - f(theta_ref)] with its average curve, the
    accrual window end (first T reaching the given fraction of total regret),
    and the log-log growth slope fitted over that pre-convergence window.

    theta_ref is the supplied ground truth, or the best-seen iterate when
    theta_star_policy == "best-seen".
    """
    if not trace.records:
        raise EmptyTrace("regret needs at least one epoch")
    losses = trace.losses
    if theta_star_policy == "ground-truth":
        if theta_star is None:
            raise ConfigError("ground-truth policy needs theta_star values")
        pv = ParamVector(theta_star, trace.box_lower, trace.box_upper, trace.names)
        f_star = loss(pv, dataset, model, dt)
    elif theta_star_policy == "best-seen":
        f_star = float(np.min(losses))
    else:
        raise ConfigError(f"unknown theta_star_policy {theta_star_policy!r}")
    curve = np.cumsum(losses - f_star)
    t_axis = np.arange(1, losses.size + 1)
    avg_curve = curve / t_axis
    regret_total = float(curve[-1])
    if regret_total > 0:
        window_end = int(np.argmax(curve >= window_accrual * regret_total)) + 1
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
        theta_star_policy=theta_star_policy,
        curve=curve,
        avg_curve=avg_curve,
        f_star=f_star,
        window_accrual=window_accrual,
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

    def to_dict(self) -> dict:
        return {
            "overshoot_pct": [float(v) for v in self.overshoot_pct],
            "convergence_epoch": self.convergence_epoch,
            "oscillation_count": [int(v) for v in self.oscillation_count],
        }


def training_diagnostics(trace: TrainingTrace, theta_star: np.ndarray) -> Diagnostics:
    """Overshoot (peak excursion beyond the target as % of the initial gap),
    convergence epoch (first epoch after which every parameter stays within
    1% relative error), and oscillation counts (sign changes of the error
    after its first crossing)."""
    if not trace.records:
        raise EmptyTrace("diagnostics need at least one epoch")
    theta_star = np.asarray(theta_star, dtype=float)
    thetas = trace.thetas
    gap = theta_star - trace.theta0

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
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["epoch", "loss", "rmse", *trace.names, "grad_norm2", "grad_norm_inf"]
        )
        for rec in trace.records:
            writer.writerow(
                [
                    rec.epoch,
                    _FLOAT_FMT.format(rec.loss),
                    _FLOAT_FMT.format(rec.rmse),
                    *(_FLOAT_FMT.format(v) for v in rec.theta),
                    _FLOAT_FMT.format(rec.grad_norm2),
                    _FLOAT_FMT.format(rec.grad_norm_inf),
                ]
            )
