"""Excitation waveforms and ground-truth dataset synthesis for the DAB model.

Excitation is single-phase-shift modulation: primary and secondary bridges
emit square waves at the switching frequency, the secondary delayed by
phase_shift * T_s (phase_shift is a fraction of the FULL period, so 0.5 is a
half-period shift, i.e. inversion). Datasets are one settled period of
(z, target) training pairs per operating point; targets satisfy the model
recurrence exactly, and any measurement noise is applied only to the state
entries of z. write_csv and write_json write every CSV and JSON artifact.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from .errors import EmptyDataset, InvalidSpec
from .pann import settle_to_steady_state
from .rng import DOMAIN_NOISE, DOMAIN_PHASES, substream
from .statespace import DEFAULT_DT, DEFAULT_FS, ParamVector, dab_transition

_SEGMENT_HEADER = ["time", "i_L", "v_p", "v_s", "target"]
_CSV_BLOCK = 512  # rows write_csv converts at a time, so no table is copied whole


@dataclass(frozen=True)
class ModulationSpec:
    """One square-wave operating point."""

    v_in: float = 200.0
    v_out: float = 200.0
    f_s: float = DEFAULT_FS
    phase_shift: float = 0.0
    dt: float = DEFAULT_DT
    n_periods: int = 1

    def __post_init__(self):
        if self.f_s <= 0 or self.dt <= 0:
            raise InvalidSpec(f"f_s and dt must be positive: f_s={self.f_s}, dt={self.dt}")
        if self.dt > 1.0 / (2.0 * self.f_s):
            raise InvalidSpec(
                f"dt={self.dt} exceeds half the switching period {1.0 / (2.0 * self.f_s)}"
            )
        period = 1.0 / self.f_s
        steps = period / self.dt
        # Every float from 2^53 on is whole, so the integral test below proves nothing there.
        if not steps < 2.0**53:
            raise InvalidSpec(f"steps per period 1/(f_s dt) must be below 2^53, got {steps}")
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise InvalidSpec(
                f"steps per period must be integral: 1/f_s = {period}, dt = {self.dt} "
                f"gives {steps}"
            )
        if not (-0.5 < self.phase_shift <= 0.5):
            raise InvalidSpec(f"phase_shift must lie in (-0.5, 0.5], got {self.phase_shift}")
        if self.n_periods < 1:
            raise InvalidSpec(f"n_periods must be at least 1, got {self.n_periods}")

    @property
    def steps_per_period(self) -> int:
        return round((1.0 / self.f_s) / self.dt)


def dab_pwm(spec: ModulationSpec) -> np.ndarray:
    """Grid samples (v_p, v_s) at t_k = k*dt for k = 0..K-1.

    v_p is +v_in over the first half of each period; v_s is the same square
    delayed by phase_shift of a full period, scaled to v_out.
    """
    p = spec.steps_per_period
    k = np.arange(spec.n_periods * p)
    half = p / 2.0
    v_p = np.where((k % p) < half, spec.v_in, -spec.v_in)
    pos_s = (k - spec.phase_shift * p) % p
    v_s = np.where(pos_s < half, spec.v_out, -spec.v_out)
    return np.vstack([v_p, v_s]).astype(float)


def step_inputs_one_period(spec: ModulationSpec) -> np.ndarray:
    """Inputs u(t_{k+1}) for the P steps of one period (periodic wrap)."""
    samples = dab_pwm(replace(spec, n_periods=1))
    return np.roll(samples, -1, axis=1)


@dataclass
class Segment:
    """One operating point's worth of training pairs.

    z rows are (measured state; v_p; v_s) at steps k = 0..K-1, targets are
    the exact next states.
    """

    z: np.ndarray
    targets: np.ndarray
    spec: ModulationSpec
    noise_sigma: float
    settled: bool

    def __post_init__(self):
        self.z = np.atleast_2d(np.asarray(self.z, dtype=float))
        self.targets = np.atleast_2d(np.asarray(self.targets, dtype=float))
        if self.z.shape[1] != self.targets.shape[1]:
            raise InvalidSpec(
                f"segment z has {self.z.shape[1]} steps but targets {self.targets.shape[1]}"
            )
        if not np.all(np.isfinite(self.targets)):
            raise InvalidSpec("segment targets contain non-finite values")


@dataclass
class WaveformDataset:
    segments: List[Segment]
    role: str = "train"

    @cached_property
    def stacked(self) -> Tuple[np.ndarray, np.ndarray]:
        """(Z, X): z columns and target columns concatenated across segments."""
        if not self.segments:
            raise EmptyDataset("dataset has no segments")
        z = np.hstack([s.z for s in self.segments])
        x = np.hstack([s.targets for s in self.segments])
        return z, x

    @cached_property
    def gram(self) -> np.ndarray:
        """Z Z^T / K over the stacked z columns, the data's part of the loss's
        quadratic form; computed once, like `stacked`."""
        z, _ = self.stacked
        return z @ z.T / z.shape[1]

    @property
    def n_steps(self) -> int:
        return sum(s.z.shape[1] for s in self.segments)

    def z_bounds(self) -> np.ndarray:
        """Per-row max |z| over the whole dataset (Lipschitz domain input)."""
        z, _ = self.stacked
        return np.max(np.abs(z), axis=1)


def draw_modulation_specs(
    n: int,
    seed: int,
    role_index: int = 0,
    phase_range: Tuple[float, float] = (0.05, 0.45),
    spec: ModulationSpec = ModulationSpec(),
) -> List[ModulationSpec]:
    """n one-period operating points: spec with its phase shift drawn
    uniformly from phase_range."""
    if len(phase_range) != 2 or not (-0.5 < phase_range[0] < phase_range[1] <= 0.5):
        raise InvalidSpec(
            f"phase_range must be (lo, hi) with -0.5 < lo < hi <= 0.5, got {phase_range}"
        )
    lo, hi = phase_range
    rng = substream(seed, DOMAIN_PHASES, role_index)
    phases = rng.uniform(lo, hi, size=n)
    return [replace(spec, phase_shift=float(ph), n_periods=1) for ph in phases]


def synthesize_dataset(
    theta_true: ParamVector,
    specs: Sequence[ModulationSpec],
    noise_sigma: float = 0.0,
    seed: int = 0,
    role: str = "train",
    index_base: int = 0,
) -> WaveformDataset:
    """Settle the true-parameter model at each operating point and emit one
    period of (z, target) pairs per spec.

    The settled period is the emitted one: its states are the z states and,
    shifted by one step, the targets, so the targets satisfy the recurrence
    exactly; noise (if any) perturbs only the measured-state row of z.
    Deterministic given seed; each segment draws noise from its own
    substream keyed by index_base + position.
    """
    if not specs:
        raise EmptyDataset("synthesize_dataset needs at least one ModulationSpec")
    segments = []
    for i, spec in enumerate(specs):
        trans = dab_transition(theta_true, spec.dt)
        u_block = step_inputs_one_period(spec)
        settled = settle_to_steady_state(trans, u_block)
        xs = settled.states
        states = xs[0, :-1]
        if noise_sigma > 0.0:
            rng = substream(seed, DOMAIN_NOISE, index_base + i)
            states = states + rng.normal(0.0, noise_sigma, size=spec.steps_per_period)
        z = np.vstack([states, u_block])
        segments.append(Segment(z, xs[:, 1:], spec, noise_sigma, settled.converged))
    return WaveformDataset(segments, role=role)


def write_csv(path: Path, header: Sequence[str], columns: Sequence) -> None:
    """Write one CSV artifact: the header, then row k of the equal-length
    columns for each k, one row at a time. Integer columns are written as
    integers and float columns with 17 significant digits, so floats
    round-trip exactly; rows end in \\r\\n, as csv.writer's do. The parent
    directory is created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cols = [np.asarray(c) for c in columns]
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in cols) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(cols[0]), _CSV_BLOCK):
            block = [c[start : start + _CSV_BLOCK].tolist() for c in cols]
            for values in zip(*block):
                fh.write(row % values)


def _tolist(o):
    """numpy arrays and scalars as the lists and numbers they hold."""
    if isinstance(o, (np.ndarray, np.generic)):
        return o.tolist()
    raise TypeError(f"{type(o).__name__} is not JSON serializable")


def write_json(data, path: Path) -> None:
    """Write one JSON artifact, streamed: sorted keys, two-space indent and
    a final newline; numpy arrays and scalars are written as lists and
    numbers. The parent directory is created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=_tolist)
        fh.write("\n")


def save_dataset(dataset: WaveformDataset, out_dir: Path, seed: int = 0) -> Path:
    """Write one CSV per segment plus a JSON manifest; returns the manifest
    path. A load/save cycle is byte-identical."""
    out_dir = Path(out_dir)
    entries = []
    for i, seg in enumerate(dataset.segments):
        name = f"segment_{i:03d}.csv"
        times = np.arange(seg.z.shape[1]) * seg.spec.dt
        write_csv(out_dir / name, _SEGMENT_HEADER, [times, *seg.z, seg.targets[0]])
        entries.append({"file": name, "spec": asdict(seg.spec),
                        "noise_sigma": seg.noise_sigma, "settled": seg.settled})
    manifest = {"schema_version": 1, "role": dataset.role, "seed": seed, "segments": entries}
    write_json(manifest, out_dir / "manifest.json")
    return out_dir / "manifest.json"


def load_dataset(out_dir: Path) -> WaveformDataset:
    out_dir = Path(out_dir)
    with open(out_dir / "manifest.json") as fh:
        manifest = json.load(fh)
    segments = []
    for entry in manifest["segments"]:
        spec = ModulationSpec(**entry["spec"])
        with open(out_dir / entry["file"]) as fh:
            header = fh.readline().rstrip("\n").split(",")
            if header != _SEGMENT_HEADER:
                raise InvalidSpec(f"unexpected segment CSV header: {header}")
            arr = np.loadtxt(fh, delimiter=",", ndmin=2)
        z = arr[:, 1:4].T
        targets = arr[:, 4][np.newaxis, :]
        segments.append(Segment(z, targets, spec, entry["noise_sigma"], entry["settled"]))
    return WaveformDataset(segments, role=manifest["role"])
