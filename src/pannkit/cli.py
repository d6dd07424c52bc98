"""Experiment runner: config handling, dataset synthesis, Lipschitz
validation, strategy sweeps, and a one-shot reproduction pipeline.

The CLI composes library operations and persists their outputs; it computes
no math of its own. Every run echoes its resolved config next to its outputs
and derives all randomness from one master seed, so reruns are bit-identical.

Exit codes: 0 success, 1 configuration/input error (an allocation too large
for memory among them), 2 numerical failure, 3 reproduction-check failure.
"""
from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
import yaml

from .errors import (
    ConfigError,
    InvalidSpec,
    OutOfBounds,
    PannkitError,
)
from .lipschitz import (
    BoxSampler,
    DomainSpec,
    LipschitzReport,
    dab_l1z_values,
    mc_estimate_lipschitz,
    theoretical_L1theta,
    theoretical_L1z,
    theoretical_L2theta,
    theorem2_monitor,
)
from .norms import NormKind
from .pann import settle_to_steady_state, step
from .signals import (
    ModulationSpec,
    WaveformDataset,
    draw_modulation_specs,
    save_dataset,
    step_inputs_one_period,
    synthesize_dataset,
    write_csv,
    write_json,
)
from .statespace import (
    DAB_LOWER, DAB_NAMES, DAB_THETA_STAR, DAB_UPPER, DEFAULT_DT, DEFAULT_FS, ParamVector,
    dab_model, transition_values,
)
from .training import (
    AdamConfig,
    LossStatistics,
    adam_sweep,
    lipschitz_aware_rates,
    loss,
    regret_bound,
    regret_ledger,
    strategy_rates,
    training_diagnostics,
    write_trace_csv,
    STRATEGY_LABELS,
)

OUT_ENV_VAR = "PANNKIT_OUT"
_ROLES = ("train", "test", "validation")


# The config schema: each key's default. A key's type follows its default: a
# float (finite; YAML numeric strings such as `8e-8` are read as floats), a
# whole number in [0, 2^63), a string, or a non-empty list of one of these.
_DEFAULTS = {
    "theta": {
        "star": DAB_THETA_STAR.tolist(),
        "lower": DAB_LOWER.tolist(),
        "upper": DAB_UPPER.tolist(),
        "initial": [120e-6, 0.903, 1.12],
    },
    "timing": {"dt": DEFAULT_DT, "f_s": DEFAULT_FS},
    "excitation": {
        "v_in": 200.0,
        "v_out": 200.0,
        "phase_shift": 0.25,
        "phase_range": [0.05, 0.45],
    },
    "dataset": {"n_train": 2, "n_test": 50, "n_validation": 50, "noise_sigma": 0.0},
    "adam": {
        "beta1": 0.9,
        "beta2": 0.999,
        "epsilon": 1e-8,
        "lambda_decay": 0.99999999,
        "max_epochs": 200,
    },
    "rates": {"scale_c": 1.0, "clamp": [1e-7, 10.0]},
    "strategies": list(STRATEGY_LABELS),
    "mc": {"n_z_pairs": 100000, "n_theta_pairs": 10000, "n_theta_samples": 10000},
    "seed": 0,
}
# Lower bounds beyond the type's own.
_MINIMA = {
    "dataset.n_train": 1,
    "dataset.noise_sigma": 0.0,
    "mc.n_z_pairs": 2,
    "mc.n_theta_pairs": 2,
}
_TYPE_NAMES = {float: "a finite number", int: "a whole number in [0, 2^63)", str: "a string"}


def default_config() -> dict:
    """The reference DAB configuration."""
    return copy.deepcopy(_DEFAULTS)


def _parse(value, default, where: str):
    """value checked against the type of default; floats are converted."""
    if isinstance(default, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where} must be a non-empty list, got {value!r}")
        return [_parse(v, default[0], f"{where}[{i}]") for i, v in enumerate(value)]
    kind = type(default)
    if kind is float and isinstance(value, (str, int)) and not isinstance(value, bool):
        try:
            value = float(value)
        except (ValueError, OverflowError):
            pass
    ok = isinstance(value, kind) and not isinstance(value, bool)
    if not ok or (kind is float and not math.isfinite(value)) or (
        kind is int and not 0 <= value < 2**63
    ):
        raise ConfigError(f"{where} must be {_TYPE_NAMES[kind]}, got {value!r}")
    low = _MINIMA.get(where)
    if low is not None and value < low:
        raise ConfigError(f"{where} must be at least {low}, got {value!r}")
    return value


class ExperimentConfig:
    """The parsed config: one attribute per section (`config.adam["beta1"]`,
    `config.seed`), plus the library objects built from it: the parameter
    vectors `star` and `initial`, the DAB `model` over the `star` box and the
    modulation `spec`. Raises ConfigError on the first unknown or malformed
    key."""

    def __init__(self, raw: dict):
        unknown = set(raw) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown, key=str)}")
        self.raw = {}
        for section, default in _DEFAULTS.items():
            value = raw.get(section, default)
            if isinstance(default, dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"config section '{section}' must be a mapping")
                extra = set(value) - set(default)
                if extra:
                    raise ConfigError(f"unknown keys in '{section}': {sorted(extra, key=str)}")
                value = {
                    key: _parse(v, default[key], f"{section}.{key}")
                    for key, v in {**default, **value}.items()
                }
            else:
                value = _parse(value, default, section)
            self.raw[section] = value
            setattr(self, section, value)

        th, exc = self.theta, self.excitation
        try:
            self.spec = ModulationSpec(
                exc["v_in"], exc["v_out"], self.timing["f_s"], exc["phase_shift"],
                self.timing["dt"],
            )
            self.star = ParamVector(th["star"], th["lower"], th["upper"], DAB_NAMES)
            self.initial = self.star.with_values(th["initial"])
        except (InvalidSpec, OutOfBounds) as err:
            raise ConfigError(f"invalid theta/timing/excitation: {err}") from err
        # With neither bridge driven every z bound, and so every constant and
        # rate, is zero.
        if exc["v_in"] == 0.0 and exc["v_out"] == 0.0:
            raise ConfigError("excitation.v_in and excitation.v_out must not both be 0")
        # L_k + R_L*dt, the closed form's denominator, grows in both: its
        # minimum over the box is at the lower corner.
        den = th["lower"][0] + th["lower"][1] * self.spec.dt
        if den <= 0.0:
            raise ConfigError(f"theta.lower must keep L_k + R_L*dt positive over the box, "
                              f"got {den:.6g}")
        self.model = dab_model(self.star)

        # The study always evaluates the regret bound, whose constant term
        # divides by (1 - lambda)^2; AdamConfig's own rules cover the rest.
        if self.adam["lambda_decay"] >= 1.0:
            raise ConfigError(f"adam.lambda_decay must be below 1 for the regret bound to be "
                              f"finite, got {self.adam['lambda_decay']!r}")
        AdamConfig(np.ones(1), **self.adam)
        rates = self.rates
        if rates["scale_c"] <= 0.0:
            raise ConfigError(f"rates.scale_c must be positive, got {rates['scale_c']}")
        clamp = rates["clamp"]
        if len(clamp) != 2 or not (0.0 < clamp[0] <= clamp[1]):
            raise ConfigError(f"rates.clamp must be [low, high] with 0 < low <= high, "
                              f"got {clamp}")
        for s in self.strategies:
            if s not in STRATEGY_LABELS:
                raise ConfigError(f"unknown strategy {s!r}; expected subset of {STRATEGY_LABELS}")
        if len(set(self.strategies)) != len(self.strategies):
            raise ConfigError(f"strategies must not repeat a label, got {self.strategies}")

    def to_dict(self) -> dict:
        return json.loads(json.dumps(self.raw))


def load_config(path: Optional[str]) -> ExperimentConfig:
    """The config at path (None: the defaults). A file that cannot be read,
    is not UTF-8 or UTF-16 YAML, or is malformed raises ConfigError."""
    if path is None:
        return ExperimentConfig(default_config())
    p = Path(path)
    try:
        raw = yaml.safe_load(p.read_bytes()) or {}
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {p}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc.strerror}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {p} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return ExperimentConfig(raw)


def _output_root(args: argparse.Namespace) -> Optional[Path]:
    """The output directory, created: --out, else $PANNKIT_OUT, else
    ./pannkit-out. `defaults` writes only to --out, else to stdout (None)."""
    out = args.out
    if not out and args.command != "defaults":
        out = os.environ.get(OUT_ENV_VAR) or "pannkit-out"
    if not out:
        return None
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from exc
    return Path(out)


def _config_yaml(config: ExperimentConfig) -> str:
    return yaml.safe_dump(config.to_dict(), sort_keys=True)


def _save_datasets(datasets: Dict[str, WaveformDataset], out: Path, seed: int) -> List[Path]:
    """Save every non-empty role; returns the segment files written. The
    dataset manifests are left out: the run manifest attests no manifest.json."""
    written: List[Path] = []
    for role in _ROLES:
        if datasets[role].segments:
            manifest = save_dataset(datasets[role], out / "dataset" / role, seed=seed)
            entries = json.loads(manifest.read_text())["segments"]
            written += [manifest.parent / entry["file"] for entry in entries]
    return written


def synth_role(config: ExperimentConfig, role: str) -> WaveformDataset:
    """The dataset of one role. Each role draws its phases and noise from
    substreams of its own, so roles can be synthesized alone."""
    n = config.dataset[f"n_{role}"]
    if n == 0:
        return WaveformDataset([], role=role)
    role_index = _ROLES.index(role)
    phase_range = tuple(config.excitation["phase_range"])
    specs = draw_modulation_specs(n, config.seed, role_index, phase_range, spec=config.spec)
    return synthesize_dataset(
        config.star,
        specs,
        noise_sigma=config.dataset["noise_sigma"],
        seed=config.seed,
        role=role,
        index_base=role_index * 1_000_000,
    )


def cmd_defaults(config: ExperimentConfig, out: Optional[Path], args: argparse.Namespace) -> int:
    if out is None:
        sys.stdout.write(_config_yaml(config))
    else:
        print(f"wrote {out / 'config.yaml'}")
    return 0


def cmd_synth(config: ExperimentConfig, out: Path, args: argparse.Namespace) -> int:
    datasets = {role: synth_role(config, role) for role in _ROLES}
    _save_datasets(datasets, out, config.seed)
    for role in _ROLES:
        print(f"{role}: {len(datasets[role].segments)} segments, {datasets[role].n_steps} steps")
    return 0


def cmd_simulate(config: ExperimentConfig, out: Path, args: argparse.Namespace) -> int:
    spec = config.spec
    theta = config.star
    if args.theta:
        try:
            values = [float(v) for v in args.theta.split(",")]
        except ValueError:
            raise ConfigError(f"--theta must be comma-separated numbers, got {args.theta!r}")
        theta = theta.with_values(values)  # raises OutOfBounds for bad values
    trans = transition_values(config.model, theta.values, spec.dt)
    inputs = step_inputs_one_period(spec)
    settled = settle_to_steady_state(trans, inputs)
    k = inputs.shape[1]
    write_csv(
        out / "trajectory.csv",
        ["time", "i_L", "v_p", "v_s"],
        [trans.dt * np.arange(1, k + 1), *settled.states[:, 1:], *inputs],
    )
    print(
        f"settled={settled.converged} cycles={settled.cycles} "
        f"residual={settled.residual:.3g} samples={k}"
    )
    return 0


def compute_lipschitz_reports(
    config: ExperimentConfig, train_dataset: WaveformDataset
) -> Dict[str, LipschitzReport]:
    """The three bound-vs-MC reports. L1z under the infinity norm (where the
    theoretical value is exactly attainable); the loss and gradient constants
    under the 2-norm, where the paper-form bounds dominate the pair ratios
    when the targets are noise-free (X = W* Z): they bound the residual by
    ||W - W*|| ||z||, which measurement noise in z escapes."""
    model, dt = config.model, config.spec.dt
    star, mc = config.star, config.mc
    z_bound = train_dataset.z_bounds()
    trans_star = transition_values(model, star.values, dt)
    domain = DomainSpec(star.lower, star.upper, z_bound, star.values)
    ginf, l2theta_star = _rate_constants(config, domain)
    sup = dict(n_samples=mc["n_theta_samples"], seed=config.seed)
    shared = dict(pairing="mixed", seed=config.seed, batched=True)
    theta_box = BoxSampler(star.lower, star.upper)

    # The loss and gradient maps evaluate blocks of thetas from statistics
    # referenced at theta*.
    stats = LossStatistics.of(train_dataset, trans_star)

    l1z_report = mc_estimate_lipschitz(
        lambda zs: step(trans_star, zs),
        BoxSampler(-z_bound, z_bound),
        n_samples=mc["n_z_pairs"],
        kind=NormKind.INFINITY,
        theoretical=theoretical_L1z(trans_star, NormKind.INFINITY),
        constant_name="L1z",
        extras=dab_l1z_values(trans_star),
        **shared,
    )

    def loss_map(thetas: np.ndarray) -> np.ndarray:
        return stats.loss(transition_values(model, thetas, dt))

    l1theta_report = mc_estimate_lipschitz(
        loss_map,
        theta_box,
        n_samples=mc["n_theta_pairs"],
        kind=NormKind.TWO,
        theoretical=theoretical_L1theta(domain, model, dt, NormKind.TWO, **sup),
        constant_name="L1theta",
        extras={"ginf_theoretical": ginf},
        **shared,
    )

    def grad_map(thetas: np.ndarray) -> np.ndarray:
        return stats.gradient(transition_values(model, thetas, dt))

    l2theta_report = mc_estimate_lipschitz(
        grad_map,
        theta_box,
        n_samples=mc["n_theta_pairs"],
        kind=NormKind.TWO,
        theoretical=theoretical_L2theta(domain, model, dt, NormKind.TWO, **sup),
        constant_name="L2theta",
        extras={"l2theta_star_infinity": l2theta_star},
        **shared,
    )
    return {"L1z": l1z_report, "L1theta": l1theta_report, "L2theta": l2theta_report}


def _rate_constants(config: ExperimentConfig, domain: DomainSpec) -> Tuple[float, float]:
    """The rates' two constants: G_inf, the L1theta supremum over the box,
    and L2theta*, the L2theta supremum at theta*, both under the infinity norm."""
    model, dt = config.model, config.spec.dt
    ginf = theoretical_L1theta(
        domain, model, dt, NormKind.INFINITY,
        n_samples=config.mc["n_theta_samples"], seed=config.seed,
    )
    return ginf, theoretical_L2theta(domain.collapsed(), model, dt, NormKind.INFINITY)


def _save_reports(reports: Dict[str, LipschitzReport], out: Path) -> List[Path]:
    paths = [out / "lipschitz" / f"{name}.json" for name in reports]
    for report, path in zip(reports.values(), paths):
        write_json(asdict(report), path)
    return paths


def cmd_lipschitz(config: ExperimentConfig, out: Path, args: argparse.Namespace) -> int:
    reports = compute_lipschitz_reports(config, synth_role(config, "train"))
    _save_reports(reports, out)
    for name, report in reports.items():
        print(
            f"{name} ({report.norm.value}): theoretical {report.theoretical:.9g}, "
            f"empirical {report.empirical_max:.9g}"
        )
    return 0


def run_strategy_sweep(
    config: ExperimentConfig,
    train_dataset: WaveformDataset,
    reports: Optional[Dict[str, LipschitzReport]] = None,
) -> Tuple[dict, Dict[str, dict]]:
    """Train every configured strategy; returns (comparison, per-strategy
    summaries). Rates come live from the Lipschitz calculators."""
    model, dt = config.model, config.spec.dt
    star = config.star
    if reports:
        ginf = reports["L1theta"].extras["ginf_theoretical"]
        l2theta_star = reports["L2theta"].extras["l2theta_star_infinity"]
    else:
        domain = DomainSpec(star.lower, star.upper, train_dataset.z_bounds(), star.values)
        ginf, l2theta_star = _rate_constants(config, domain)

    base_rates = lipschitz_aware_rates(
        ginf, star.ranges, l2theta_star,
        scale_c=config.rates["scale_c"], clamp=tuple(config.rates["clamp"]),
    )
    theta0 = config.initial
    # Regret is measured against the ground-truth loss on noise-free data,
    # and against each run's best-seen loss on noisy data.
    f_star = loss(star, train_dataset, model, dt) if config.dataset["noise_sigma"] == 0.0 else None

    summaries: Dict[str, dict] = {}
    comparison: dict = {
        "ginf": float(ginf),
        "l2theta_star": float(l2theta_star),
        "base_rates": base_rates,
        "strategies": {},
    }
    adams = {
        label: AdamConfig(strategy_rates(base_rates, label), **config.adam)
        for label in config.strategies
    }
    traces = adam_sweep(train_dataset, model, dt, theta0, adams)
    for label, adam in adams.items():
        trace = traces[label]
        summary: dict = {
            "strategy": label,
            "rates": adam.alpha,
            "diverged": trace.failed,
            "failure_reason": trace.failure_reason,
            "final_theta": trace.final_theta,
            "epochs_run": len(trace.records),
        }
        if len(trace.records):
            diag = training_diagnostics(trace, star.values)
            ledger = regret_ledger(trace, f_star)
            monitor = theorem2_monitor(trace)
            bound_curve = regret_bound(
                adam,
                d=theta0.dim,
                big_d=monitor.D_hat,
                big_d_inf=monitor.Dinf_hat,
                ginf=monitor.Ginf_hat,
                t=trace.records.epoch,
            )
            summary.update(
                {
                    "diagnostics": asdict(diag),
                    "regret": asdict(ledger),
                    "monitor": asdict(monitor),
                    "regret_bound_curve": bound_curve,
                    "regret_bound_dominates": bool(
                        np.all(ledger.curve <= bound_curve + 1e-12)
                    ),
                    "final_loss": trace.records.loss[-1],
                    "final_rel_err_pct": np.abs(trace.final_theta - star.values)
                    / np.abs(star.values)
                    * 100.0,
                }
            )
            comparison["strategies"][label] = {
                **summary["diagnostics"],
                # a list, as cmd_train prints it
                "overshoot_pct": diag.overshoot_pct.tolist(),
                **{key: summary[key] for key in ("final_loss", "final_rel_err_pct", "diverged")},
            }
        else:
            comparison["strategies"][label] = {"diverged": True}
        summaries[label] = summary
        summaries[label]["_trace"] = trace
    return comparison, summaries


def cmd_train(config: ExperimentConfig, out: Path, args: argparse.Namespace) -> int:
    comparison, summaries = run_strategy_sweep(config, synth_role(config, "train"))
    _persist_sweep(config, out, comparison, summaries)
    for label in config.strategies:
        entry = comparison["strategies"][label]
        print(f"{label}: conv={entry.get('convergence_epoch')} "
              f"overshoot={entry.get('overshoot_pct')} diverged={entry.get('diverged')}")
    return 0


def _persist_sweep(
    config, out: Path, comparison: dict, summaries: Dict[str, dict]
) -> List[Path]:
    """Write traces, summaries and the comparison; returns their paths.

    A summary is written without the two curves it derives from the rest:
    `regret.curve` is the cumulative sum of trace.csv's loss minus
    `regret.f_star`, and `regret_bound_curve` is `regret_bound` of the
    written rates, monitor and config at epochs 1..T."""
    train_dir = out / "train"
    written: List[Path] = []
    for label, summary in summaries.items():
        trace = summary.pop("_trace")
        sdir = train_dir / label
        write_trace_csv(trace, sdir / "trace.csv")
        persisted = {k: v for k, v in summary.items() if k != "regret_bound_curve"}
        if "regret" in summary:
            persisted["regret"] = {k: v for k, v in summary["regret"].items() if k != "curve"}
        write_json({**persisted, "config": config.to_dict()}, sdir / "summary.json")
        written += [sdir / "trace.csv", sdir / "summary.json"]
    write_json(comparison, train_dir / "comparison.json")
    return written + [train_dir / "comparison.json"]


def _check_sweep(config: ExperimentConfig, comparison: dict, summaries: Dict[str, dict]) -> List[str]:
    """Reproduction checks over the sweep outputs; returns failure messages."""
    strategies = comparison["strategies"]
    if "S3" not in strategies or strategies["S3"]["diverged"]:
        return ["S3 missing or diverged"]
    failures: List[str] = []
    s3 = strategies["S3"]
    conv3 = s3["convergence_epoch"]
    rel = s3["final_rel_err_pct"]
    if conv3 is None:
        failures.append("S3 did not converge to the 1% band")
    tol_pct = [1.0, 5.0, 1.0]
    for name, err, tol in zip(config.star.names, rel, tol_pct):
        if err > tol:
            failures.append(f"S3 final {name} error {err:.3f}% exceeds {tol}%")
    if max(s3["overshoot_pct"]) > 5.0:
        failures.append(f"S3 overshoot {max(s3['overshoot_pct']):.2f}% exceeds 5%")
    final = np.asarray(summaries["S3"]["final_theta"])
    if not config.star.contains(final):
        failures.append("S3 final theta left the box")
    reg = summaries["S3"]["regret"]
    curve = np.asarray(reg["curve"])
    if np.any(np.diff(curve) < -1e-15):
        failures.append("S3 regret curve is not nondecreasing")
    t_max = curve.size
    quarter = max(1, t_max // 4)
    if curve[-1] / t_max >= 0.5 * curve[quarter - 1] / quarter:
        failures.append("S3 average regret did not halve from T/4 to T")
    slope = reg["slope"]
    if slope is None or not (0.3 <= slope <= 0.7):
        failures.append(f"S3 regret slope {slope} outside [0.3, 0.7]")
    if not summaries["S3"]["regret_bound_dominates"]:
        failures.append("S3 regret exceeded its bound at some epoch")

    if "S1" in strategies:
        conv1 = strategies["S1"].get("convergence_epoch")
        if conv3 is not None and conv1 is not None and conv3 >= conv1:
            failures.append(f"S3 ({conv3}) not faster than S1 ({conv1})")
    if "S5" in strategies:
        over5 = strategies["S5"].get("overshoot_pct", [0.0])[0]
        over3 = s3["overshoot_pct"][0]
        if over5 <= 20.0:
            failures.append(f"S5 first-parameter overshoot {over5:.2f}% not above 20%")
        if over5 <= over3:
            failures.append("S5 overshoot not above S3 overshoot")
    if "S6" in strategies:
        conv6 = strategies["S6"].get("convergence_epoch")
        over6 = max(strategies["S6"].get("overshoot_pct", [0.0]))
        slower = conv6 is None or (conv3 is not None and conv6 > conv3)
        if not (slower or over6 > 0.0):
            failures.append("S6 is neither slower than S3 nor overshooting")
    return failures


def cmd_reproduce(config: ExperimentConfig, out: Path, args: argparse.Namespace) -> int:
    datasets = {role: synth_role(config, role) for role in _ROLES}
    written = _save_datasets(datasets, out, config.seed)
    reports = compute_lipschitz_reports(config, datasets["train"])
    written += _save_reports(reports, out)
    comparison, summaries = run_strategy_sweep(config, datasets["train"], reports)
    written += _persist_sweep(config, out, comparison, summaries)
    written.append(out / "config.yaml")

    check_results = None
    if args.check:
        failures = _check_sweep(config, comparison, summaries)
        tight = reports["L1z"].empirical_max >= 0.99 * reports["L1z"].theoretical
        if not tight:
            failures.append("L1z MC estimate below 0.99 of the theoretical value")
        check_results = {"failures": failures, "passed": not failures}
        write_json(check_results, out / "check.json")
        written.append(out / "check.json")
        for msg in failures:
            print(f"CHECK FAIL: {msg}")
        if not failures:
            print("CHECK PASS: all reproduction checks satisfied")

    manifest = {
        "seed": config.seed,
        "config": config.to_dict(),
        "files": _hash_tree(out, written),
    }
    write_json(manifest, out / "manifest.json")
    print(f"wrote {out / 'manifest.json'} ({len(manifest['files'])} artifacts)")
    if check_results is not None and not check_results["passed"]:
        return 3
    return 0


def _hash_tree(root: Path, written: List[Path]) -> Dict[str, str]:
    """sha256 of each file this run wrote, keyed by its path under root."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in written
    }


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    raw = config.to_dict()
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "strategies", None):
        raw["strategies"] = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if getattr(args, "samples", None) is not None:
        raw["mc"]["n_z_pairs"] = args.samples
        raw["mc"]["n_theta_pairs"] = args.samples
        raw["mc"]["n_theta_samples"] = args.samples
    return ExperimentConfig(raw)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML config path (defaults built in)")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--out", help=f"output directory (default ${OUT_ENV_VAR} or ./pannkit-out)")
    parser.add_argument("--strategies", help="comma-separated strategy labels")
    parser.add_argument("--samples", type=int, help="override all MC sample counts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pannkit",
        description="Power-converter recurrent modeling, identification, and "
        "Lipschitz validation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("defaults", help="emit the reference configuration")
    p.add_argument("--out", help="directory to write config.yaml into (default: stdout)")
    p.set_defaults(func=cmd_defaults)

    p = sub.add_parser("synth", help="synthesize train/test/validation datasets")
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="settled steady-state trajectory")
    _add_common(p)
    p.add_argument("--theta", help="comma-separated parameter values (default: ground truth)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("lipschitz", help="theoretical bounds vs MC estimates")
    _add_common(p)
    p.set_defaults(func=cmd_lipschitz)

    p = sub.add_parser("train", help="strategy sweep with traces and diagnostics")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("reproduce", help="synth + lipschitz + train, one manifest")
    _add_common(p)
    p.add_argument("--check", action="store_true", help="verify reproduction properties")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _apply_overrides(load_config(getattr(args, "config", None)), args)
        out = _output_root(args)
        if out is not None:
            (out / "config.yaml").write_text(_config_yaml(config))
        return args.func(config, out, args)
    except (ConfigError, InvalidSpec, OutOfBounds) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except PannkitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
