"""Recurrent execution of the discretized transition.

Three execution modes, arrays in and arrays out, each the one the study
runs: one-step prediction (the map whose L1z the Lipschitz reports
certify), free-running rollout (the model feeds on its own states; settling
runs it for synthesis and `simulate`), and teacher-forced prediction (each
step starts from the measured state; the training loss is built on it,
which is what the training gradient assumes).
"""
from __future__ import annotations

from typing import NamedTuple, TYPE_CHECKING

import numpy as np

from .errors import EmptyDataset, NonFinite, ShapeMismatch
from .statespace import DiscreteTransition

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from .signals import WaveformDataset

_OVERFLOW_LIMIT = 1e12


def step(trans: DiscreteTransition, z: np.ndarray) -> np.ndarray:
    """One-step prediction x_hat = W [x_prev; u_next], for one z of shape
    (D_z,) or a (B, D_z) block of them, one per row. A block is one product:
    a loop over its rows would round otherwise."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.isfinite(z).all():
        raise NonFinite("step input contains non-finite entries")
    if z.shape[-1] != trans.dim_z:
        raise ShapeMismatch(f"z has length {z.shape[-1]}, W expects {trans.dim_z}")
    return z @ trans.w.T


def rollout_free(trans: DiscreteTransition, x0: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Free-running rollout: the (D_x, K+1) states from x0 under K input
    columns. Each step feeds on the previous prediction and
    equals w_0 x + w_1 u_0 + ... summed left to right (a BLAS matvec may fuse
    or reorder). The input terms w[i, D_x + j] * u_j of every step are formed
    at once, before the loop: an elementwise product rounds as a Python
    float product does, so the loop computes only the state terms and adds
    the input terms in that order. Overflow is checked once, at the end,
    naming the first step."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    d_x = trans.dim_x
    d_u = trans.dim_z - d_x
    if x0.size != d_x or inputs.shape[0] != d_u:
        raise ShapeMismatch(
            f"rollout shapes: x0 {x0.size} vs D_x {d_x}, inputs {inputs.shape[0]} vs D_u {d_u}"
        )
    k_steps = inputs.shape[1]
    if k_steps < 1:
        raise ShapeMismatch("rollout needs at least one input column")
    # Each row's state coefficients, and its input terms cols[j][k] for every
    # input j and step k.
    rows = list(zip(trans.w[:, :d_x].tolist(), (trans.w[:, d_x:, None] * inputs).tolist()))
    flat = x0.tolist()  # the states, one step after another
    for k in range(k_steps):
        x = []
        for row, cols in rows:
            acc = row[0] * flat[-d_x]
            for j in range(1, d_x):
                acc += row[j] * flat[j - d_x]
            for col in cols:
                acc += col[k]
            x.append(acc)
        flat += x
    states = np.array(flat).reshape(k_steps + 1, d_x).T
    in_range = np.all(np.abs(states[:, 1:]) <= _OVERFLOW_LIMIT, axis=0)
    if not np.all(in_range):
        raise NonFinite(
            f"state magnitude exceeded {_OVERFLOW_LIMIT:g} at step {int(np.argmin(in_range)) + 1}; "
            "the discretized model is unstable for these inputs"
        )
    return states


def rollout_teacher_forced(trans: DiscreteTransition, dataset: "WaveformDataset") -> np.ndarray:
    """Per-step predictions W z_k from measured z, concatenated over segments;
    for a block of transitions, one row block of predictions per transition."""
    z, _ = dataset.stacked()
    if z.shape[1] == 0:
        raise EmptyDataset("dataset has no steps")
    if z.shape[0] != trans.dim_z:
        raise ShapeMismatch(f"dataset z dimension {z.shape[0]} vs W {trans.dim_z}")
    # BLAS multiplies a strided row into Z with other roundings than the
    # contiguous single-theta W, so a strided block is copied first.
    return np.ascontiguousarray(trans.w) @ z


class SettleResult(NamedTuple):
    states: np.ndarray
    converged: bool
    cycles: int
    residual: float


def settle_to_steady_state(
    trans: DiscreteTransition,
    inputs_one_period: np.ndarray,
    tol: float = 1e-9,
) -> SettleResult:
    """One period of the periodic steady state, in closed form: a period maps
    x to Phi x + x_P(0) (Phi = W_x^P, x_P(0) the end of a run from zero), so
    the orbit starts at x_0 = (I - Phi)^-1 x_P(0); NonFinite if W_x has
    spectral radius >= 1. The period from x_0 is the second rolled out, and
    its P+1 states are returned; converged means its residual
    max|x_P - x_0| is within tol * state scale."""
    inputs = np.atleast_2d(np.asarray(inputs_one_period, dtype=float))
    d_x = trans.dim_x
    w_x = trans.w[:, :d_x]
    radius = float(np.max(np.abs(np.linalg.eigvals(w_x))))
    if not radius < 1.0:
        raise NonFinite(f"W_x has spectral radius {radius:.6g} >= 1: no periodic steady state")
    from_zero = rollout_free(trans, np.zeros(d_x), inputs)
    phi = np.linalg.matrix_power(w_x, inputs.shape[1])
    x0 = np.linalg.solve(np.eye(d_x) - phi, from_zero[:, -1])
    states = rollout_free(trans, x0, inputs)
    residual = float(np.max(np.abs(states[:, -1] - states[:, 0])))
    return SettleResult(states, bool(residual <= tol * np.max(np.abs(states))), 2, residual)
