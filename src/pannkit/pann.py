"""Recurrent execution of the discretized transition.

Three execution modes: one-step prediction, free-running rollout (the model
feeds on its own states), and teacher-forced prediction (each step starts
from the measured state, which is what the training gradient assumes).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, TYPE_CHECKING

import numpy as np

from .errors import EmptyDataset, NonFinite, ShapeMismatch
from .statespace import DiscreteTransition

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from .signals import WaveformDataset

_OVERFLOW_LIMIT = 1e12


@dataclass
class StepInput:
    """State at t_k and inputs at t_{k+1}; concatenates to z = [x; u]."""

    x_prev: np.ndarray
    u_next: np.ndarray

    def __post_init__(self):
        self.x_prev = np.atleast_1d(np.asarray(self.x_prev, dtype=float))
        self.u_next = np.atleast_1d(np.asarray(self.u_next, dtype=float))
        if not (np.all(np.isfinite(self.x_prev)) and np.all(np.isfinite(self.u_next))):
            raise NonFinite("step input contains non-finite entries")

    @property
    def z(self) -> np.ndarray:
        return np.concatenate([self.x_prev, self.u_next])


@dataclass
class Trajectory:
    """Uniformly sampled state trajectory with the inputs that drove it.

    states has K+1 columns; inputs[:, k] is the input applied over the step
    from times[k] to times[k+1].
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        k = self.inputs.shape[1]
        if self.times.size != k + 1 or self.states.shape[1] != k + 1:
            raise ShapeMismatch(
                f"trajectory sizes inconsistent: {self.times.size} times, "
                f"{self.states.shape[1]} states, {k} inputs"
            )
        if k >= 1:
            dts = np.diff(self.times)
            # allclose(dts, dts[0], rtol=1e-9, atol=0), without its overhead
            if np.any(dts <= 0) or not np.all(np.abs(dts - dts[0]) <= 1e-9 * dts[0]):
                raise ShapeMismatch("trajectory times must increase uniformly")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def step(trans: DiscreteTransition, z: StepInput) -> np.ndarray:
    """One-step prediction x_hat = W [x_prev; u_next]."""
    zz = z.z
    if zz.size != trans.dim_z:
        raise ShapeMismatch(f"z has length {zz.size}, W expects {trans.dim_z}")
    return trans.w @ zz


def rollout_free(trans: DiscreteTransition, x0: np.ndarray, inputs: np.ndarray) -> Trajectory:
    """Free-running rollout: each step feeds on the previous prediction and
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
    times = trans.dt * np.arange(k_steps + 1)
    return Trajectory(times, states, inputs)


def rollout_teacher_forced(trans: DiscreteTransition, dataset: "WaveformDataset") -> np.ndarray:
    """Per-step predictions W z_k from measured z, concatenated over segments."""
    z, _ = dataset.stacked()
    if z.shape[1] == 0:
        raise EmptyDataset("dataset has no steps")
    if z.shape[0] != trans.dim_z:
        raise ShapeMismatch(f"dataset z dimension {z.shape[0]} vs W {trans.dim_z}")
    return trans.w @ z


class SettleResult(NamedTuple):
    trajectory: Trajectory
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
    spectral radius >= 1. The period from x_0 is the second rolled out;
    converged means its residual max|x_P - x_0| is within tol * state scale."""
    inputs = np.atleast_2d(np.asarray(inputs_one_period, dtype=float))
    d_x = trans.dim_x
    w_x = trans.w[:, :d_x]
    radius = float(np.max(np.abs(np.linalg.eigvals(w_x))))
    if not radius < 1.0:
        raise NonFinite(f"W_x has spectral radius {radius:.6g} >= 1: no periodic steady state")
    traj = rollout_free(trans, np.zeros(d_x), inputs)
    phi = np.linalg.matrix_power(w_x, inputs.shape[1])
    x0 = np.linalg.solve(np.eye(d_x) - phi, traj.states[:, -1])
    traj = rollout_free(trans, x0, inputs)
    residual = float(np.max(np.abs(traj.states[:, -1] - traj.states[:, 0])))
    return SettleResult(traj, bool(residual <= tol * np.max(np.abs(traj.states))), 2, residual)
