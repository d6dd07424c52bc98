"""The three benchmark workloads and the checks on their outputs.

Each workload is one `pannkit` command with a config overlay merged over the
built-in defaults. The benchmark passes only `--seed`, `--config` and `--out`;
everything else comes from here. The checks read the artifacts a run wrote
and never pin artifact hashes, because a deliberate change to the synthesis
algorithm may change dataset bytes once.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

import yaml

STRATEGIES = ("S1", "S2", "S3", "S4", "S5", "S6")
CONSTANTS = ("L1z", "L1theta", "L2theta")


@dataclass
class Verdict:
    """Outcome of one CLI run.

    valid: the artifacts are what the command promises (hashes match,
        certificates dominate, every summary exists).
    failed: the run counts as failed: a nonzero exit or invalid outputs.
        A `reproduce --check` whose release check fails (exit 3) with valid
        outputs is failed but valid.
    """

    valid: bool
    failed: bool
    messages: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple
    overlay: dict
    check: Callable[[Path, int], Verdict]

    def config_yaml(self) -> Optional[str]:
        """The config file the run passes, or None for the built-in defaults."""
        return yaml.safe_dump(self.overlay, sort_keys=True) if self.overlay else None


def _load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _missing(out: Path, rel_paths) -> List[str]:
    return [f"missing {rel}" for rel in rel_paths if not (out / rel).is_file()]


def check_study(out: Path, exit_code: int) -> Verdict:
    """`reproduce --check`: the manifest attests exactly the files on disk,
    every stage wrote its artifacts, and check.json agrees with the exit code."""
    if exit_code not in (0, 3):
        return Verdict(False, True, [f"exit code {exit_code}"])
    expected = [
        "config.yaml",
        "check.json",
        "manifest.json",
        "train/comparison.json",
        *(f"dataset/{role}/manifest.json" for role in ("train", "test", "validation")),
        *(f"lipschitz/{c}.json" for c in CONSTANTS),
        *(f"train/{s}/{f}" for s in STRATEGIES for f in ("summary.json", "trace.csv")),
    ]
    problems = _missing(out, expected)
    if problems:
        return Verdict(False, True, problems)
    files = _load_json(out / "manifest.json")["files"]
    on_disk = {
        p.relative_to(out).as_posix()
        for p in out.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    }
    if set(files) != on_disk:
        problems.append(f"manifest lists {sorted(set(files) ^ on_disk)} not matching disk")
    problems += [f"hash mismatch {rel}" for rel in sorted(set(files) & on_disk)
                 if _sha256(out / rel) != files[rel]]
    check = _load_json(out / "check.json")
    if check["passed"] != (exit_code == 0) or check["passed"] == bool(check["failures"]):
        problems.append(f"check.json {check} disagrees with exit code {exit_code}")
    if problems:
        return Verdict(False, True, problems)
    return Verdict(True, exit_code != 0, list(check["failures"]))


def check_identify(out: Path, exit_code: int) -> Verdict:
    """`train`: every strategy wrote its trace and summary, and S3 ran to the
    end without diverging."""
    if exit_code != 0:
        return Verdict(False, True, [f"exit code {exit_code}"])
    problems = _missing(
        out,
        ["train/comparison.json",
         *(f"train/{s}/{f}" for s in STRATEGIES for f in ("summary.json", "trace.csv"))],
    )
    if not problems:
        s3 = _load_json(out / "train/S3/summary.json")
        if s3["diverged"]:
            problems.append(f"S3 diverged: {s3['failure_reason']}")
        elif s3["epochs_run"] != s3["config"]["adam"]["max_epochs"]:
            problems.append(f"S3 ran {s3['epochs_run']} epochs")
    return Verdict(not problems, bool(problems), problems)


def check_certify(out: Path, exit_code: int) -> Verdict:
    """`lipschitz`: three reports, each with the configured sample count and
    empirical <= theoretical * (1 + tol); no datasets or traces written."""
    if exit_code != 0:
        return Verdict(False, True, [f"exit code {exit_code}"])
    problems = _missing(out, [f"lipschitz/{c}.json" for c in CONSTANTS])
    problems += [f"unexpected {d}/" for d in ("dataset", "train") if (out / d).exists()]
    if not problems:
        config = yaml.safe_load((out / "config.yaml").read_text())
        mc = config["mc"]
        wanted = {"L1z": mc["n_z_pairs"], "L1theta": mc["n_theta_pairs"],
                  "L2theta": mc["n_theta_pairs"]}
        for c in CONSTANTS:
            rep = _load_json(out / f"lipschitz/{c}.json")
            if rep["empirical_max"] > rep["theoretical"] * (1.0 + rep["tol_report"]):
                problems.append(f"{c}: empirical {rep['empirical_max']!r} exceeds "
                                f"theoretical {rep['theoretical']!r}")
            if rep["n_samples"] != wanted[c] or rep["seed"] != config["seed"]:
                problems.append(f"{c}: report n_samples/seed do not match the config")
    return Verdict(not problems, bool(problems), problems)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "study",
            "the full reproduce --check study users run at the default config; "
            "settling and the Lipschitz MC and suprema each take about half",
            ("reproduce", "--check"),
            {},
            check_study,
        ),
        Workload(
            "identify",
            "train all six strategies on 8 noisy segments for 3000 epochs: Adam, "
            "monitor, regret and trace writes, no MC pairs",
            ("train",),
            {
                "dataset": {"n_train": 8, "n_test": 0, "n_validation": 0, "noise_sigma": 0.05},
                "adam": {"max_epochs": 3000},
            },
            check_identify,
        ),
        Workload(
            "certify",
            "Lipschitz MC and suprema over a 32-segment (K = 8000) training "
            "record, so per-pair loss and gradient cost scales with K",
            ("lipschitz",),
            {
                "dataset": {"n_train": 32, "n_test": 0, "n_validation": 0},
                "mc": {"n_z_pairs": 10000},
            },
            check_certify,
        ),
    )
}
