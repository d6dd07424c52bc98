"""Continuous-time LTI converter models and implicit-Euler discretization.

A continuous model dx/dt = A(theta) x + B(theta) u is discretized with the
implicit Euler rule into a one-step transition

    x[k+1] = W(theta) [x[k]; u[k+1]],
    W = [(I - A dt)^-1 | (I - A dt)^-1 B dt],

whose trainable parameters are the circuit parameters themselves. The module
ships both the generic dense-solve route (`discretize`, at raw values) and
the closed-form dual-active-bridge concretization (`dab_transition`) with
analytic first and second parameter derivatives, d2W symmetric by
construction; the two routes are kept independent so tests can cross-check
them. Both evaluate one theta of shape (D_theta,) or a block of shape
(B, D_theta); a block's tensors carry a leading batch axis.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    OutOfBounds,
    SingularDiscretization,
    StepTooLarge,
)
from .norms import NormKind, mat_norm

# Dual-active-bridge reference configuration: ground-truth parameters,
# admissible box, switching frequency, and simulation step.
DAB_NAMES = ("L_k", "R_L", "n")
DAB_THETA_STAR = np.array([63e-6, 1.8, 1.0])
DAB_LOWER = np.array([10e-6, 0.01, 0.8])
DAB_UPPER = np.array([200e-6, 3.0, 1.2])
DEFAULT_DT = 80e-9
DEFAULT_FS = 50e3

_RCOND_THRESHOLD = 1e-12


@dataclass
class ParamVector:
    """Box-bounded parameter vector theta."""

    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    names: Sequence[str]

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if not (self.lower.size == self.upper.size == len(self.names)):
            raise OutOfBounds(
                f"inconsistent parameter vector sizes: lower {self.lower.size}, "
                f"upper {self.upper.size}, names {len(self.names)}"
            )
        if not np.all(self.lower < self.upper):
            raise OutOfBounds(
                f"box must satisfy lower < upper strictly, got "
                f"{self.lower} vs {self.upper}"
            )
        self.values = self._inside(self.values)

    def _inside(self, values) -> np.ndarray:
        """values as a float array, checked to be finite and in the box."""
        values = np.asarray(values, dtype=float)
        if values.size != self.lower.size:
            raise OutOfBounds(f"{values.size} parameter values for a box of {self.lower.size}")
        # A NaN compares false, so one pass over the box also catches it.
        if not ((values >= self.lower) & (values <= self.upper)).all():
            if not np.isfinite(values).all():
                raise OutOfBounds(f"non-finite parameter values: {values}")
            raise OutOfBounds(f"values {values} outside box [{self.lower}, {self.upper}]")
        return values

    @property
    def dim(self) -> int:
        return self.values.size

    @property
    def ranges(self) -> np.ndarray:
        return self.upper - self.lower

    def with_values(self, values: np.ndarray) -> "ParamVector":
        """New values on this box, which was validated when it was built."""
        new = copy.copy(self)
        new.values = self._inside(values)
        return new

    def contains(self, values: np.ndarray) -> bool:
        v = np.asarray(values, dtype=float)
        return bool(np.all(v >= self.lower) and np.all(v <= self.upper))

    def clip(self, values: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(values, dtype=float), self.lower, self.upper)


def dab_params(values: Optional[np.ndarray] = None) -> ParamVector:
    """The (L_k, R_L, n) parameter vector over its reference box."""
    if values is None:
        values = DAB_THETA_STAR
    return ParamVector(np.array(values, dtype=float), DAB_LOWER.copy(), DAB_UPPER.copy(), DAB_NAMES)


@dataclass
class ContinuousModel:
    """dx/dt = A(theta) x + B(theta) u with optional parameter derivatives.

    `closed_form`, when set, maps (theta values, dt) straight to a
    DiscreteTransition with full derivative tensors; it is used by callers
    that need second derivatives, never by `discretize` itself.
    """

    dim_x: int
    dim_u: int
    dim_theta: int
    a_of: Callable[[np.ndarray], np.ndarray]
    b_of: Callable[[np.ndarray], np.ndarray]
    da_dtheta: Optional[Callable[[np.ndarray], np.ndarray]] = None
    db_dtheta: Optional[Callable[[np.ndarray], np.ndarray]] = None
    closed_form: Optional[Callable[[np.ndarray, float], "DiscreteTransition"]] = None


class DiscreteTransition:
    """W(theta) with its parameter-derivative tensors.

    dw_dtheta has shape (D_x, D_x + D_u, D_theta); d2w_dtheta2 appends one
    more theta axis. Either may be None when the model lacks it; d2W is
    otherwise given as a builder (no arguments) that makes it symmetric in
    its theta indices, run when d2W is first read. For a block of thetas
    every array has a leading axis of length B.
    """

    def __init__(self, w, dw_dtheta: Optional[np.ndarray], d2w_dtheta2, dt: float):
        self.w = np.atleast_2d(np.asarray(w, dtype=float))
        if not np.isfinite(self.w).all():
            raise SingularDiscretization(f"non-finite transition matrix: {self.w}")
        self.dw_dtheta = dw_dtheta
        self._build_d2w = d2w_dtheta2
        self.dt = dt

    @cached_property
    def d2w_dtheta2(self) -> Optional[np.ndarray]:
        return None if self._build_d2w is None else self._build_d2w()

    @property
    def dim_x(self) -> int:
        return self.w.shape[-2]

    @property
    def dim_z(self) -> int:
        return self.w.shape[-1]


def discretize(model: ContinuousModel, values: np.ndarray, dt: float) -> DiscreteTransition:
    """Implicit-Euler transition at one theta's values via a dense partial-pivot solve.

    Derivative tensors are populated from dA/dB when the model provides them
    (second derivatives are never available on this route).
    """
    if dt <= 0:
        raise SingularDiscretization(f"dt must be positive, got {dt}")
    values = np.asarray(values, dtype=float)
    a = np.atleast_2d(np.asarray(model.a_of(values), dtype=float))
    b = np.atleast_2d(np.asarray(model.b_of(values), dtype=float))
    d_x = model.dim_x
    m = np.eye(d_x) - a * dt
    rcond = 1.0 / np.linalg.cond(m, p=None) if d_x > 0 else 0.0
    if not np.isfinite(rcond) or rcond < _RCOND_THRESHOLD:
        raise SingularDiscretization(
            f"(I - A*dt) reciprocal condition {rcond:.3e} below {_RCOND_THRESHOLD}"
        )
    m_inv = np.linalg.solve(m, np.eye(d_x))
    w = np.hstack([m_inv, m_inv @ b * dt])

    dw = None
    if model.da_dtheta is not None and model.db_dtheta is not None:
        da = np.asarray(model.da_dtheta(values), dtype=float)
        db = np.asarray(model.db_dtheta(values), dtype=float)
        dw = np.empty((d_x, d_x + model.dim_u, model.dim_theta))
        for i in range(model.dim_theta):
            # d(M^-1)/dtheta_i = M^-1 (dA_i dt) M^-1 since dM_i = -dA_i dt
            dm_inv = m_inv @ (da[:, :, i] * dt) @ m_inv
            dw[:, :d_x, i] = dm_inv
            dw[:, d_x:, i] = dm_inv @ b * dt + m_inv @ db[:, :, i] * dt

    return DiscreteTransition(w, dw, None, dt)


def _dab_tensors(lk, rl, n, den, dt: float):
    """W (1,3), dW (1,3,3) and a builder of d2W (1,3,3,3) at one theta, or
    with a leading batch axis of B thetas; den = L_k + R_L*dt. Both run these
    numpy expressions, so a row of a block equals its theta alone bit for
    bit; np.float_power rounds squares and cubes as C pow does. W and dW are
    C-contiguous; d2W, 27 of the 39 entries, is built only when it is read.
    """
    d2 = np.float_power(den, 2)
    s = dt / d2
    zero = 0.0 * den
    batch = np.shape(den)

    def tensor(entries, shape):
        return np.ascontiguousarray(np.array(entries).T).reshape(*batch, *shape)

    w = [lk / den, dt / den, -n * dt / den]
    # dW[z, i] = dt / den^2 * m[z][i], m = [[R_L, -L_k, 0], [-1, -dt, 0], [n, n dt, -den]]
    dw = [s * rl, s * -lk, zero, -s, s * -dt, zero, s * n, s * (n * dt), s * -den]

    def d2w():
        # d2W[z, i, j], symmetric by construction: one value per mixed partial
        d3 = np.float_power(den, 3)
        w1_01 = dt * (lk - rl * dt) / d3
        w2_01 = 2 * dt**2 / d3
        w3_01 = -2 * n * dt**2 / d3
        w3_02 = dt / d2
        w3_12 = dt**2 / d2
        entries = [
            # w1 = L_k / den
            -2 * rl * dt / d3, w1_01, zero,
            w1_01, 2 * lk * dt**2 / d3, zero,
            zero, zero, zero,
            # w2 = dt / den
            2 * dt / d3, w2_01, zero,
            w2_01, 2 * dt**3 / d3, zero,
            zero, zero, zero,
            # w3 = -n dt / den
            -2 * n * dt / d3, w3_01, w3_02,
            w3_01, zero, w3_12,
            w3_02, w3_12, zero,
        ]
        return np.array(entries).T.reshape(*batch, 1, 3, 3, 3)

    return tensor(w, (1, 3)), tensor(dw, (1, 3, 3)), d2w


def dab_transition(
    theta: ParamVector | np.ndarray, dt: float, box: Optional[ParamVector] = None
) -> DiscreteTransition:
    """Closed-form DAB transition row W = [L_k, dt, -n*dt] / (L_k + R_L*dt).

    theta is a ParamVector, checked against its own box, or raw values of
    shape (3,) or (B, 3), checked against `box` (default: the reference
    box). The box, finiteness and `L_k + R_L*dt > 0` checks run once for the
    whole block, and a block's tensors carry a leading axis of length B,
    each row equal to the single-theta result. Both derivative tensors are
    analytic; the finite-difference tests pin them against the generic
    route and against numeric differentiation.
    """
    if isinstance(theta, ParamVector):
        values, box = theta.values, theta
    else:
        values = np.asarray(theta, dtype=float)
        box = dab_params() if box is None else box
    if dt <= 0:
        raise SingularDiscretization(f"dt must be positive, got {dt}")
    if values.ndim not in (1, 2) or values.shape[-1] != len(DAB_NAMES):
        raise OutOfBounds(f"theta must have shape (3,) or (B, 3), got {values.shape}")
    # A NaN compares false, so the box check also rejects non-finite values.
    inside = (values >= box.lower) & (values <= box.upper)
    if not inside.all():
        bad = values if values.ndim == 1 else values[~inside.all(axis=1)][0]
        raise OutOfBounds(f"theta {bad} outside box [{box.lower}, {box.upper}]")
    lk, rl, n = values.T
    den = lk + rl * dt
    if not (den > 0).all():
        raise SingularDiscretization(f"L_k + R_L*dt = {np.min(den)} must be positive")
    return DiscreteTransition(*_dab_tensors(lk, rl, n, den, dt), dt)


def dab_model(box: Optional[ParamVector] = None) -> ContinuousModel:
    """The scalar DAB model di/dt = (-R_L*i + v_p - n*v_s) / L_k. Its closed
    form checks each theta, or block of thetas, against `box` (default: the
    reference box)."""
    box = dab_params() if box is None else box

    def a_of(v: np.ndarray) -> np.ndarray:
        lk, rl, _ = v
        return np.array([[-rl / lk]])

    def b_of(v: np.ndarray) -> np.ndarray:
        lk, _, n = v
        return np.array([[1.0 / lk, -n / lk]])

    def da(v: np.ndarray) -> np.ndarray:
        lk, rl, _ = v
        out = np.zeros((1, 1, 3))
        out[0, 0, 0] = rl / lk**2
        out[0, 0, 1] = -1.0 / lk
        return out

    def db(v: np.ndarray) -> np.ndarray:
        lk, _, n = v
        out = np.zeros((1, 2, 3))
        out[0, 0, 0] = -1.0 / lk**2
        out[0, 1, 0] = n / lk**2
        out[0, 1, 2] = -1.0 / lk
        return out

    return ContinuousModel(
        dim_x=1,
        dim_u=2,
        dim_theta=3,
        a_of=a_of,
        b_of=b_of,
        da_dtheta=da,
        db_dtheta=db,
        closed_form=lambda values, dt: dab_transition(values, dt, box),
    )


def transition_values(model: ContinuousModel, values: np.ndarray, dt: float) -> DiscreteTransition:
    """Transition with the richest derivative information the model offers,
    for raw parameter values of shape (D_theta,) or a (B, D_theta) block (box
    handling is the closed form's business; the generic route does not need
    a box and solves a block one theta at a time)."""
    values = np.asarray(values, dtype=float)
    if model.closed_form is not None:
        return model.closed_form(values, dt)
    if values.ndim < 2:
        return discretize(model, values, dt)
    rows = [discretize(model, v, dt) for v in values]
    dw = None if rows[0].dw_dtheta is None else np.stack([r.dw_dtheta for r in rows])
    return DiscreteTransition(np.stack([r.w for r in rows]), dw, None, dt)


def neumann_bound(
    model: ContinuousModel,
    theta: ParamVector,
    dt: float,
    kind: NormKind = NormKind.INFINITY,
) -> float:
    """Upper bound 1/(1 - ||A dt||) on ||(I - A dt)^-1||, checked against
    the actual inverse norm before returning."""
    a = np.atleast_2d(np.asarray(model.a_of(theta.values), dtype=float))
    norm_adt = mat_norm(a * dt, kind)
    if norm_adt >= 1.0:
        dt_max = dt / norm_adt
        raise StepTooLarge(
            f"||A*dt|| = {norm_adt:.6g} >= 1; largest admissible dt is {dt_max:.6g}",
            dt_max=dt_max,
        )
    bound = 1.0 / (1.0 - norm_adt)
    m_inv = np.linalg.solve(np.eye(a.shape[0]) - a * dt, np.eye(a.shape[0]))
    actual = mat_norm(m_inv, kind)
    if actual > bound * (1.0 + 1e-12):
        raise SingularDiscretization(
            f"inverse norm {actual:.17g} exceeds Neumann bound {bound:.17g}"
        )
    return bound
