"""pannkit benchmark: run the `pannkit` CLI on a named workload and report
end-to-end metrics, or with --trace 1 a per-layer breakdown.

    python3 perfbench/run.py --workload study --seed 0 --seconds 40 --trace 0

Run it from the root of a pannkit source tree; the CLI runs from `src/` with
no install step. Every CLI run is a fresh process writing into a fresh, empty
`--out` directory under `.perfbench/`, which is removed once the outputs have
been checked. Invocation i of a run uses seed `--seed` + i.

--trace 0 (end to end, tracing off):
    setup_s      median of 8 timed processes that start the interpreter,
                 import pannkit and load and validate the workload's config:
                 one untimed warm-up, then 4 before the CLI runs and 4 after,
                 so that a passing burst of load on the machine skews fewer.
    wall_s       median wall time of the workload's CLI process, spawn to
                 exit. Processes run back to back while the next one is
                 predicted, from the last one's time, to end within
                 --seconds; at least one runs.
    peak_rss_mb  median peak resident memory of those processes.
--trace 1 (per layer): one untraced and one traced process on --seed; see
    trace_run.py. trace.overhead_s is traced minus untraced wall time.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A run fails if it exits
nonzero or its outputs fail the workload's check; failed/attempted is the
failed share. `correct` is false only if some run's outputs were invalid.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, Verdict

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACER = Path(__file__).resolve().parent / "trace_run.py"
SETUP_REPEATS = 4
# Every process is killed once the run has lasted this long, so the benchmark
# itself exits well inside three minutes even if the CLI hangs.
RUN_LIMIT_S = 170.0

CLI_ENTRY = "import sys; from pannkit.cli import main; sys.exit(main())"
SETUP_ENTRY = (
    "import sys; from pannkit.cli import load_config; "
    "load_config(sys.argv[1] if len(sys.argv) > 1 else None)"
)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# name -> unit. Counts repeat exactly for a given seed; a layer that does not
# run on a workload reports 0. BENCHMARK.json lists the same names.
PER_LAYER = {
    "statespace.transition_calls": "count",
    "statespace.transition_s": "s",
    "statespace.us_per_transition": "us",
    "pann.settle_calls": "count",
    "pann.settle_s": "s",
    "pann.settle_cycles": "count",
    "pann.rollout_steps": "count",
    "pann.unsettled": "count",
    "rng.substream_calls": "count",
    "rng.substream_s": "s",
    "signals.synth_s.train": "s",
    "signals.synth_s.test": "s",
    "signals.synth_s.validation": "s",
    "signals.segments": "count",
    "signals.save_s": "s",
    "signals.bytes_written": "B",
    "signals.self_s": "s",
    **{
        f"lipschitz.{metric}.{c}": unit
        for c in ("L1z", "L1theta", "L2theta")
        for metric, unit in (
            ("mc_s", "s"), ("mc_pairs", "count"), ("us_per_pair", "us"),
            ("mc_skipped", "count"), ("ratio", "ratio"),
        )
    },
    **{
        f"lipschitz.sup_s.{sup}": "s"
        for sup in ("L1theta_two", "L1theta_inf", "L2theta_two", "L2theta_star_inf")
    },
    "lipschitz.sup_points": "count",
    "lipschitz.monitor_calls": "count",
    "lipschitz.monitor_s": "s",
    "lipschitz.self_s": "s",
    "training.loss_calls": "count",
    "training.gradient_calls": "count",
    "training.loss_grad_s": "s",
    "training.adam_s": "s",
    "training.epochs": "count",
    "training.us_per_epoch": "us",
    "training.regret_s": "s",
    "training.regret_bound_calls": "count",
    "training.diagnostics_s": "s",
    "training.s3_rel_err_pct": "%",
    "training.s3_conv_epoch": "epoch",
    "training.self_s": "s",
    "cli.config_s": "s",
    "cli.self_s": "s",
    "cli.files_hashed": "count",
    "cli.bytes_hashed": "B",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def child_env() -> dict:
    """The CLI's environment: this tree's sources, no inherited output root,
    and BLAS/OpenMP pools capped at the CPUs this process may use."""
    env = dict(os.environ)
    env.pop("PANNKIT_OUT", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cpus = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cpus
    return env


def _kill(pid: int) -> None:
    # The child stays a zombie until wait4 reaps it, so its pid cannot have
    # been reused yet; it may already have exited, though.
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Spawns processes for one benchmark run and enforces its time limit."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.env = child_env()

    def spawn(self, args: list, log_dir: Path):
        """Run `python3 args...` with output to log_dir; return (exit code,
        wall seconds from spawn to exit, peak RSS in MB)."""
        with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=self.env,
            )
            remaining = RUN_LIMIT_S - (start - self.t0)
            killer = threading.Timer(max(remaining, 0.0), _kill, (proc.pid,))
            killer.start()
            try:
                # wait4 reports this child's own peak RSS (KiB on Linux).
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def cli(self, workload, seed: int, run_dir: Path, config, trace_dir=None):
        """One CLI process on a fresh, empty --out; returns (Verdict, wall, rss)."""
        log_dir = Path(tempfile.mkdtemp(dir=run_dir))
        out = log_dir / "out"
        out.mkdir()
        argv = [*workload.argv, "--seed", str(seed), "--out", str(out)]
        if config is not None:
            argv += ["--config", str(config)]
        head = ["-c", CLI_ENTRY] if trace_dir is None else [str(TRACER), str(trace_dir), "--"]
        code, wall, rss = self.spawn(head + argv, log_dir)
        verdict = workload.check(out, code)
        if code not in (0, 3):
            tail = (log_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
            verdict.messages += tail
        shutil.rmtree(log_dir)
        return verdict, wall, rss

    def setup(self, run_dir: Path, config, repeats: int) -> list:
        """Wall times of `repeats` config-loading processes."""
        args = ["-c", SETUP_ENTRY] + ([str(config)] if config is not None else [])
        times = []
        for _ in range(repeats):
            code, wall, _ = self.spawn(args, run_dir)
            if code != 0:
                raise RuntimeError(
                    f"config load exited {code}: {(run_dir / 'stderr.txt').read_text()}"
                )
            times.append(wall)
        return times


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pannkit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def describe(name: str, values: list, unit: str) -> str:
    return (f"{name} = {statistics.median(values):.6g} {unit} (median of {len(values)}; "
            f"min {min(values):.6g}, max {max(values):.6g})")


def record(seed: int, verdict: Verdict, verdicts: list) -> None:
    verdicts.append(verdict)
    if verdict.failed:
        # FAILED: valid outputs, but the run reported a failure (check.json);
        # INVALID: the outputs themselves failed the workload's check.
        state = "FAILED" if verdict.valid else "INVALID"
        print(f"{state} seed={seed}: " + "; ".join(verdict.messages))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pannkit" / "cli.py").is_file():
        print(f"error: no pannkit sources under {SRC}; run from a source tree root",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    print(f"machine: {platform.platform()}, {os.cpu_count()} CPUs "
          f"({len(os.sched_getaffinity(0))} usable)")
    print(f"python {platform.python_version()}, numpy {importlib.metadata.version('numpy')}, "
          f"commit {commit()}, sources {source_digest()}")
    print(f"workload {workload.name}: pannkit {' '.join(workload.argv)} "
          f"config {json.dumps(workload.overlay, sort_keys=True)}")

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{workload.name}-"))
    runner = Runner()
    verdicts: list = []
    try:
        config_text = workload.config_yaml()
        config = None
        if config_text is not None:
            config = run_dir / "config.yaml"
            config.write_text(config_text)
        if args.trace:
            untraced, plain_wall, _ = runner.cli(workload, args.seed, run_dir, config)
            record(args.seed, untraced, verdicts)
            trace_dir = WORK / "trace" / workload.name
            shutil.rmtree(trace_dir, ignore_errors=True)
            traced, traced_wall, _ = runner.cli(workload, args.seed, run_dir, config, trace_dir)
            record(args.seed, traced, verdicts)
            layer = json.loads((trace_dir / "metrics.json").read_text())
            layer["trace.overhead_s"] = traced_wall - plain_wall
            print(f"spans and per-layer metrics in {trace_dir.relative_to(ROOT)}/")
            metrics = {}
            for name, unit in PER_LAYER.items():
                metrics[name] = {"value": layer.get(name, 0.0), "unit": unit}
                print(f"{name} = {metrics[name]['value']:.6g} {unit}")
        else:
            runner.setup(run_dir, config, 1)  # warm-up: byte-compile, fill caches
            setup = runner.setup(run_dir, config, SETUP_REPEATS)
            walls, rsss = [], []
            start = time.perf_counter()
            while True:
                seed = args.seed + len(walls)
                verdict, wall, rss = runner.cli(workload, seed, run_dir, config)
                record(seed, verdict, verdicts)
                walls.append(wall)
                rsss.append(rss)
                if time.perf_counter() + wall > start + args.seconds:
                    break
            setup += runner.setup(run_dir, config, SETUP_REPEATS)
            samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rsss}
            metrics = {}
            for name, unit in END_TO_END.items():
                metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
                print(describe(name, samples[name], unit))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(v.failed for v in verdicts)
    print(f"failed_share = {failed}/{len(verdicts)} = {failed / len(verdicts):.3g}")
    print(json.dumps({
        "correct": all(v.valid for v in verdicts),
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
