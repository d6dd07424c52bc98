"""Lipschitz-constant calculators, Monte-Carlo validators, and the training
condition monitor.

Three constants are covered:

- L1z: change of the one-step prediction per change of input, equal to the
  induced norm of W.
- L1theta: bound on the loss gradient norm over a (theta box, z bound)
  domain, sup ||W - W*|| * ||z||^2 * ||dW/dtheta||. Under the infinity norm
  this is the gradient-norm bound G_inf.
- L2theta: bound on the loss Hessian norm,
  sup ||z||^2 ||dW||^2 + ||W - W*|| ||z||^2 ||d2W||.

The suprema are evaluated by deterministic dense sampling of the theta box
(uniform draws plus all box corners, the center, and the reference point), so
they are concrete checkable numbers. Under the 2-norm a Frobenius bound on
each term rules out most points before any SVD runs, and the maximum stays
the one every point's SVD gives, bit for bit. A non-finite term or MC ratio
raises NonFinite naming its sample. The MC estimators draw pairs in blocks
of 512, each block from one substream keyed by its ordinal, with a fixed draw
layout per sample: sample i depends only on (seed, i), so the running maximum
over any prefix is independent of evaluation order. Suprema and pairs are
evaluated one block at a time, so no array grows with the sample count
beyond the sampled thetas themselves.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, TYPE_CHECKING

import numpy as np

from .errors import (
    BoundViolation,
    DegenerateDomain,
    EmptyTrace,
    MissingDerivatives,
    NonFinite,
    NonPositiveBound,
)
from .norms import NormKind, d2w_norm, dw_norm, mat_norm, vec_norm
from .rng import DOMAIN_MC, DOMAIN_THETA, substream
from .statespace import ContinuousModel, DiscreteTransition, transition_values

if TYPE_CHECKING:  # pragma: no cover
    from .training import TrainingTrace

_MAX_CORNER_DIMS = 16
# Thetas or pairs evaluated at once. It bounds every block array, and so the
# stage's peak memory, whatever the sample counts.
_BLOCK = 512
# Iterates per block of the monitor's D_hat search.
_DIAMETER_BLOCK = 64


@dataclass(frozen=True)
class DomainSpec:
    """The (theta box, z bound, reference theta) domain the constants are
    suprema over. A collapsed domain has lower == upper == theta_star."""

    theta_lower: np.ndarray
    theta_upper: np.ndarray
    z_bound: np.ndarray
    theta_star: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta_lower", np.asarray(self.theta_lower, dtype=float))
        object.__setattr__(self, "theta_upper", np.asarray(self.theta_upper, dtype=float))
        object.__setattr__(self, "z_bound", np.asarray(self.z_bound, dtype=float))
        object.__setattr__(self, "theta_star", np.asarray(self.theta_star, dtype=float))
        if np.any(self.theta_lower > self.theta_upper):
            raise NonPositiveBound("domain box must satisfy lower <= upper")
        if np.any(self.z_bound < 0):
            raise NonPositiveBound("z bounds must be nonnegative")

    def collapsed(self) -> "DomainSpec":
        return DomainSpec(self.theta_star, self.theta_star, self.z_bound, self.theta_star)

    @property
    def is_collapsed(self) -> bool:
        return bool(np.all(self.theta_lower == self.theta_upper))


def sample_thetas(domain: DomainSpec, n_samples: int, seed: int) -> np.ndarray:
    """Uniform draws over the box plus its corners, center, and theta_star."""
    if domain.is_collapsed:
        return domain.theta_star[np.newaxis, :]
    d = domain.theta_lower.size
    rng = substream(seed, DOMAIN_THETA, 0)
    draws = rng.uniform(domain.theta_lower, domain.theta_upper, size=(max(n_samples, 0), d))
    anchors = [domain.theta_star, 0.5 * (domain.theta_lower + domain.theta_upper)]
    if d <= _MAX_CORNER_DIMS:
        anchors.extend(
            np.array(c) for c in itertools.product(*zip(domain.theta_lower, domain.theta_upper))
        )
    return np.vstack([draws, np.array(anchors)])


def theoretical_L1z(trans: DiscreteTransition, kind: NormKind = NormKind.INFINITY) -> float:
    """Induced norm of W: the one-step input-to-output Lipschitz constant."""
    return mat_norm(trans.w, kind)


def _frobenius_bound(x: np.ndarray) -> np.ndarray:
    """Per row of a block, the Frobenius norm of the row's object times
    1 + 2^-40: at least every 2-norm `norms` computes for that object."""
    flat = x.reshape(len(x), -1)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat)) * (1.0 + 2.0**-40)


def _require_finite(values: np.ndarray, what: str, where: Callable[[int], str]) -> None:
    """NonFinite naming the first entry of `values` that is not finite;
    where(i) describes the sample behind entry i."""
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFinite(f"{what} is {values[i]} at {where(i)}")


def _max_term(term, zn2: float, kind: NormKind, tensors: list, samples: np.ndarray, rows,
              best: float) -> float:
    """max(best, term) over the given rows of a block, with the exact norms
    (an SVD each under the 2-norm); NonFinite names the first sample whose
    term is not finite."""
    norms = (mat_norm, dw_norm, d2w_norm)
    values = term(zn2, *(norm(t[rows], kind) for norm, t in zip(norms, tensors)))
    _require_finite(values, "sup term", lambda i: f"theta sample {samples[rows][i]}")
    return float(np.max(values, initial=best))


def _sup_over_domain(
    domain: DomainSpec, model: ContinuousModel, dt: float, kind: NormKind, n_samples: int,
    seed: int, term: Callable[..., np.ndarray], second_order: bool = False,
) -> float:
    """max(0, term(||z||^2, ||W - W*||, ||dW||[, ||d2W||])) over sample_thetas,
    evaluated one block of thetas at a time; NonFinite if a term is not.

    Under the 2-norm a block is first scored with each norm replaced by the
    _frobenius_bound of its object. Rounding is monotone in each non-negative
    factor of a term, so a row's score is at least its term, and a row whose
    score is below the running maximum cannot raise it. The norms, and their
    SVDs, are evaluated only on the top-scoring row and then on the rows
    whose score reaches the maximum so far; a NaN score is never pruned. The
    maximum is the one evaluating every row gives, bit for bit.
    """
    w_star = transition_values(model, domain.theta_star, dt).w
    zn2 = vec_norm(domain.z_bound, kind) ** 2
    thetas = sample_thetas(domain, n_samples, seed)
    best = 0.0
    for start in range(0, len(thetas), _BLOCK):
        trans = transition_values(model, thetas[start : start + _BLOCK], dt)
        if trans.dw_dtheta is None:
            raise MissingDerivatives("model provides no dW/dtheta tensor")
        tensors = [trans.w - w_star, trans.dw_dtheta]
        if second_order:
            if trans.d2w_dtheta2 is None:
                raise MissingDerivatives("model provides no d2W/dtheta2 tensor")
            tensors.append(trans.d2w_dtheta2)
        samples = np.arange(start, start + len(trans.w))
        rows = slice(None)
        if kind == NormKind.TWO:
            score = term(zn2, *map(_frobenius_bound, tensors))
            top = int(np.argmax(score))  # the first NaN, if any
            if np.isnan(score[top]):  # an SVD refuses NaN entries
                raise NonFinite(f"sup term is nan at theta sample {samples[top]}")
            best = _max_term(term, zn2, kind, tensors, samples, [top], best)
            rows = np.flatnonzero(score >= best)
        best = _max_term(term, zn2, kind, tensors, samples, rows, best)
    return best


def theoretical_L1theta(
    domain: DomainSpec,
    model: ContinuousModel,
    dt: float,
    kind: NormKind = NormKind.INFINITY,
    n_samples: int = 10000,
    seed: int = 0,
) -> float:
    """sup over the domain of ||W - W*|| * ||z||^2 * ||dW/dtheta||.

    Under the infinity norm this bounds every loss-gradient infinity norm on
    data whose z stays within the domain's z bound (G_inf); under the 2-norm
    it bounds loss differences via the mean value theorem.
    """
    return _sup_over_domain(
        domain, model, dt, kind, n_samples, seed, lambda zn2, gap, dwn: gap * zn2 * dwn
    )


def theoretical_L2theta(
    domain: DomainSpec,
    model: ContinuousModel,
    dt: float,
    kind: NormKind = NormKind.INFINITY,
    n_samples: int = 10000,
    seed: int = 0,
) -> float:
    """sup of ||z||^2 ||dW||^2 + ||W - W*|| ||z||^2 ||d2W||, the Hessian
    norm bound. On a collapsed domain the second term vanishes."""

    def term(zn2, gap, dwn, d2wn):
        # float_power squares as Python's float ** 2 does, bit for bit.
        return zn2 * np.float_power(dwn, 2) + gap * zn2 * d2wn

    return _sup_over_domain(domain, model, dt, kind, n_samples, seed, term, second_order=True)


@dataclass
class LipschitzReport:
    """Theoretical bound vs empirical MC estimate for one constant."""

    constant_name: str
    norm: NormKind
    theoretical: float
    empirical_max: float
    n_samples: int
    argmax_pair: Optional[tuple]
    seed: int
    n_skipped: int = 0
    tol_report: float = 1e-9
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_samples < 1:
            raise DegenerateDomain("a report needs at least one sample")
        if np.isfinite(self.theoretical) and self.empirical_max > self.theoretical * (
            1.0 + self.tol_report
        ):
            raise BoundViolation(
                f"{self.constant_name} ({self.norm.value}): empirical "
                f"{self.empirical_max:.17g} exceeds theoretical {self.theoretical:.17g}"
            )


@dataclass(frozen=True)
class BoxSampler:
    """Uniform sampler over an axis-aligned box."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if np.any(self.lower > self.upper):
            raise DegenerateDomain("sampler box must satisfy lower <= upper")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def scale(self) -> float:
        return float(np.max(self.upper - self.lower))

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n uniform points, shape (n, dim)."""
        return rng.uniform(self.lower, self.upper, size=(n, self.dim))

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)


def _directions(g: np.ndarray, variant: np.ndarray, kind: NormKind) -> np.ndarray:
    """Unit perturbation directions from standard normals g (one row per
    sample): variant 0 is an axis with a random sign, 1 a sign corner, 2 a
    random direction.

    Sign-corner directions attain the induced infinity norm of a linear map;
    random directions approach the 2-norm's maximizer.
    """
    rows = np.arange(len(g))
    axis = np.zeros_like(g)
    k = np.argmax(np.abs(g), axis=1)
    axis[rows, k] = np.where(g[rows, k] < 0, -1.0, 1.0)
    corner = np.where(g < 0, -1.0, 1.0)
    n = vec_norm(g, kind)[:, None]
    rand = np.divide(g, n, out=np.ones_like(g), where=n > 0)
    return np.choose(variant[:, None], [axis, corner, rand])


def _draw_pairs(
    sampler: BoxSampler, pairing: str, seed: int, block: int, kind: NormKind, delta: float
):
    """The _BLOCK pairs (a, b) of one block. Each draw is a (_BLOCK, dim) array
    whose row j belongs to sample block*_BLOCK + j, however many are used."""
    rng = substream(seed, DOMAIN_MC, block)
    a = sampler.draw(rng, _BLOCK)
    far = sampler.draw(rng, _BLOCK)
    g = rng.standard_normal((_BLOCK, sampler.dim))
    i = block * _BLOCK + np.arange(_BLOCK)
    near = sampler.clip(a + delta * _directions(g, (i // 2) % 3, kind))
    if pairing == "mixed":
        local = i % 2 == 1
    else:
        local = np.full(_BLOCK, pairing == "local")
    return a, np.where(local[:, None], near, far)


def _per_point(f: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """The block function that applies a per-point f to each row."""
    return lambda block: np.array([np.ravel(f(x)) for x in block])


def mc_estimate_lipschitz(
    f: Callable[[np.ndarray], np.ndarray],
    sampler: BoxSampler,
    pairing: str = "mixed",
    n_samples: int = 100000,
    seed: int = 0,
    kind: NormKind = NormKind.INFINITY,
    theoretical: float = float("nan"),
    constant_name: str = "L1z",
    tol_report: float = 1e-9,
    extras: Optional[dict] = None,
    batched: bool = False,
) -> LipschitzReport:
    """Max of ||f(a) - f(b)|| / ||a - b|| over sampled pairs.

    f maps one point to a vector, or with batched=True a (B, dim) block of
    points to a (B, m) block of vectors. pairing: "random" (independent
    pairs), "local" (a plus a perturbation 1e-6 times the sampler's widest
    side), or "mixed" (alternating, the default). Coincident pairs, all of
    them on a zero-width box, are skipped and counted; a non-finite ratio
    raises NonFinite naming its sample.
    Sample i depends only on (seed, i), so the maximum over any prefix is
    reduction-order independent.
    """
    if n_samples < 2:
        raise DegenerateDomain(f"need at least 2 samples, got {n_samples}")
    if pairing not in ("random", "local", "mixed"):
        raise DegenerateDomain(f"unknown pairing {pairing!r}")
    delta = 1e-6 * sampler.scale
    block_f = f if batched else _per_point(f)
    best = -1.0
    best_pair = None
    n_skipped = 0
    for start in range(0, n_samples, _BLOCK):
        a, b = _draw_pairs(sampler, pairing, seed, start // _BLOCK, kind, delta)
        a, b = a[: n_samples - start], b[: n_samples - start]
        dist = vec_norm(a - b, kind)
        kept = np.flatnonzero(dist >= 1e-300)
        n_skipped += len(dist) - len(kept)
        if not len(kept):
            continue
        a, b, dist = a[kept], b[kept], dist[kept]
        fa = np.reshape(block_f(a), (len(a), -1))
        fb = np.reshape(block_f(b), (len(b), -1))
        ratio = vec_norm(fa - fb, kind) / dist
        _require_finite(
            ratio, f"{constant_name} ratio",
            lambda i: f"sample {start + kept[i]} (a = {a[i]}, b = {b[i]})",
        )
        j = int(np.argmax(ratio))
        if ratio[j] > best:
            best = float(ratio[j])
            best_pair = (a[j].copy(), b[j].copy())
    if best_pair is None:
        raise DegenerateDomain(
            f"all {n_samples} sampled pairs were coincident; the domain is degenerate"
        )
    return LipschitzReport(
        constant_name=constant_name,
        norm=kind,
        theoretical=theoretical,
        empirical_max=best,
        n_samples=n_samples,
        argmax_pair=best_pair,
        seed=seed,
        n_skipped=n_skipped,
        tol_report=tol_report,
        extras=extras or {},
    )


def dab_l1z_values(trans: DiscreteTransition) -> dict:
    """Both readings of the one-step constant: induced infinity norm (max
    row sum) and the max-entry norm. They straddle 1 for the reference DAB,
    so reports carry both rather than forcing either claim."""
    return {
        "l1z_infinity": theoretical_L1z(trans, NormKind.INFINITY),
        "l1z_max_entry": float(np.max(np.abs(trans.w))),
        "l1z_two": theoretical_L1z(trans, NormKind.TWO),
    }


@dataclass
class MonitorReport:
    """Empirical counterparts of the convergence conditions: max gradient
    norms and iterate diameters, plus the box-boundedness verdict."""

    G_hat: float
    Ginf_hat: float
    D_hat: float
    Dinf_hat: float
    satisfied: bool


def _sq_norms(d: np.ndarray) -> np.ndarray:
    """Squared 2-norms over the last axis, summed left to right, which is how
    np.linalg.norm sums rows of fewer than 8 coordinates."""
    sq = d[..., 0] * d[..., 0]
    for j in range(1, d.shape[-1]):
        sq += d[..., j] * d[..., j]
    return sq


def _diameter(points: np.ndarray) -> float:
    """The largest pairwise 2-norm distance of the rows of `points`, each
    pair rounded as its own subtraction, squares and sum round; NaN if any
    point is non-finite.

    An exact branch and bound over blocks of _DIAMETER_BLOCK points. Rounding
    is monotone, so on each coordinate no pair from blocks A and B has a
    rounded difference larger in magnitude than max(fl(hi_B - lo_A),
    fl(hi_A - lo_B)), and these bounds, squared and summed in the same order,
    bound every pair's squared distance. A block pair whose bound is below
    the best squared distance found so far is skipped; the rest are
    evaluated in full. sqrt is monotone too, so one root of the largest
    squared distance is the largest distance.
    """
    if not np.isfinite(points).all():
        return float("nan")
    # Seed: the point farthest from the point farthest from the first.
    far = points[np.argmax(_sq_norms(points - points[0]))]
    best = float(np.max(_sq_norms(points - far)))
    blocks = [points[i : i + _DIAMETER_BLOCK] for i in range(0, len(points), _DIAMETER_BLOCK)]
    lo = np.array([b.min(axis=0) for b in blocks])
    hi = np.array([b.max(axis=0) for b in blocks])
    bound = _sq_norms(np.maximum(hi - lo[:, None], hi[:, None] - lo))
    first, second = np.triu_indices(len(blocks))
    for a, b in sorted(zip(first, second), key=lambda ab: -bound[ab]):
        if bound[a, b] < best:
            break
        best = max(best, float(np.max(_sq_norms(blocks[b] - blocks[a][:, None]))))
    return float(np.sqrt(best))


def theorem2_monitor(trace: "TrainingTrace") -> MonitorReport:
    """Scan a trace for max gradient norms (2 and infinity), read from its
    own norm columns, and max pairwise iterate distances; satisfied when all
    are finite and the diameters fit inside the parameter box."""
    if not len(trace.records):
        raise EmptyTrace("monitor needs at least one epoch")
    iterates = np.vstack([trace.theta0.values, trace.records.theta])
    g_hat = float(np.max(trace.records.grad_norm2))
    ginf_hat = float(np.max(trace.records.grad_norm_inf))
    # Rounding is monotone, so no pair's rounded difference exceeds the
    # extreme pair's: the widest coordinate range is the exact pairwise max.
    dinf_hat = float(np.max(np.ptp(iterates, axis=0)))
    d_hat = _diameter(iterates)
    ranges = trace.theta0.ranges
    satisfied = bool(
        np.isfinite([g_hat, ginf_hat, d_hat, dinf_hat]).all()
        and dinf_hat <= float(np.max(ranges)) * (1.0 + 1e-12)
        and d_hat <= float(np.linalg.norm(ranges, 2)) * (1.0 + 1e-12)
    )
    return MonitorReport(g_hat, ginf_hat, d_hat, dinf_hat, satisfied)
