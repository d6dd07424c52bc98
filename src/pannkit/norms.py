"""Norm conventions shared by the discretization, Lipschitz, and training code.

Vectors use the plain 2- and infinity-norms. Matrices use induced norms
(spectral, max absolute row sum). Derivative tensors are normed as the
Jacobian/second-derivative operators they represent, flattened so that every
bound-dominance inequality in the test suite is an actual theorem:

- dW (shape D_x x D x D_theta) acts on z per parameter slice; its infinity
  norm is the max over parameter slices of the slice's induced infinity norm,
  and its 2-norm is the largest singular value of the (D_x*D_theta) x D
  stacked Jacobian.
- d2W (shape D_x x D x D_theta x D_theta) under infinity is
  max_i sum_j ||slice_ij||_inf; under 2 it is sqrt(sum_ij ||slice_ij||_2^2).

Every helper reduces over the trailing axes its object occupies: one object
gives a float, a batch of them (leading axes) gives an array of norms, each
equal bit for bit to the float of that object alone.

Each 2-norm here is at most the Frobenius norm of its whole tensor (a
spectral norm is at most the Frobenius norm, and sqrt(sum_ij F_ij^2) is the
tensor's), which the 2-norm suprema use to rule out points before any SVD.
"""
from __future__ import annotations

import enum

import numpy as np


class NormKind(str, enum.Enum):
    TWO = "two"
    INFINITY = "infinity"


def _ord(kind: NormKind):
    return 2 if kind == NormKind.TWO else np.inf


def _float_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


def vec_norm(v: np.ndarray, kind: NormKind):
    v = np.asarray(v, dtype=float)
    if v.ndim > 1:
        return np.linalg.norm(v, _ord(kind), axis=-1)
    # One vector keeps numpy's dot-product 2-norm, which rounds differently
    # from the per-row reduction above.
    v = v.ravel()
    if kind == NormKind.TWO:
        return float(np.linalg.norm(v, 2))
    return float(np.max(np.abs(v))) if v.size else 0.0


def mat_norm(m: np.ndarray, kind: NormKind):
    m = np.atleast_2d(np.asarray(m, dtype=float))
    return _float_or_array(np.linalg.norm(m, _ord(kind), axis=(-2, -1)))


def max_entry_norm(m: np.ndarray) -> float:
    """Largest absolute entry; not induced, reported alongside L1z."""
    return float(np.max(np.abs(np.asarray(m, dtype=float))))


def dw_norm(dw: np.ndarray, kind: NormKind):
    dw = np.asarray(dw, dtype=float)
    if dw.ndim < 3:
        raise ValueError(f"dW tensor must be at least 3-D, got shape {dw.shape}")
    *batch, d_x, d_z, d_theta = dw.shape
    if kind == NormKind.TWO:
        stacked = np.swapaxes(dw, -2, -1).reshape(*batch, d_x * d_theta, d_z)
        return mat_norm(stacked, NormKind.TWO)
    slices = np.moveaxis(dw, -1, -3)
    return _float_or_array(np.max(mat_norm(slices, NormKind.INFINITY), axis=-1))


def d2w_norm(d2w: np.ndarray, kind: NormKind):
    d2w = np.asarray(d2w, dtype=float)
    if d2w.ndim < 4:
        raise ValueError(f"d2W tensor must be at least 4-D, got shape {d2w.shape}")
    d_theta = d2w.shape[-1]
    # slice_ij norms, shape (..., D_theta, D_theta)
    norms = mat_norm(np.moveaxis(d2w, (-2, -1), (-4, -3)), kind)
    if kind == NormKind.TWO:
        # float_power and this summation order match the scalar float sum.
        total = 0.0
        for i in range(d_theta):
            for j in range(d_theta):
                total = total + np.float_power(norms[..., i, j], 2)
        return _float_or_array(np.sqrt(total))
    return _float_or_array(np.max(np.sum(norms, axis=-1), axis=-1))
