"""Run one `pannkit` command in-process with every layer boundary traced.

    python3 perfbench/trace_run.py TRACE_DIR -- <pannkit arguments>

Each public function of statespace, pann, rng, signals, lipschitz and
training is wrapped, and the wrapper is bound in place of the original in
every other pannkit module that imported it. `cli`, `signals` and `training`
bind imported names at import time, so rebinding the defining module alone
would miss their calls. Calls inside one module stay unwrapped: a span marks
a crossing between layers. Within `cli`, config loading and artifact hashing
get spans of their own, and `cli.main` is the root span.

Spans (name, parent, start, end) are kept in arrays while the command runs
and written to TRACE_DIR/spans.csv when it ends, with the per-layer metrics
in TRACE_DIR/metrics.json. Work that is not part of the command, such as
sizing the files it wrote, is deferred until after the root span closes.
The process exits with the command's exit code.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from functools import cached_property
from pathlib import Path

from pannkit.lipschitz import sample_thetas

LAYERS = ("statespace", "pann", "rng", "signals", "lipschitz", "training")
TRANSITION_BUILDERS = ("transition_values", "dab_transition")
CLI_STAGES = ("load_config", "_apply_overrides", "_hash_tree")


class Tracer:
    """Span recorder plus named counters. One instance per traced process."""

    def __init__(self):
        self.span_names: list = []
        self.name_of = array("l")
        self.parent_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.metrics = defaultdict(float)
        self.deferred: list = []
        self.active = True

    def wrap(self, layer: str, fn, hook=None):
        """Return fn wrapped in a span named `<layer>.<fn name>`. After the
        call, hook(tracer, Call, result, seconds) records counts."""
        name_id = len(self.span_names)
        self.span_names.append(f"{layer}.{fn.__name__}")
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self.start)
            self.name_of.append(name_id)
            self.parent_of.append(stack[-1])
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(self, Call(fn, args, kwargs), result, self.end[sid] - self.start[sid])
            return result

        return traced

    def self_seconds(self) -> dict:
        """Per layer: span durations minus the time their direct children cover."""
        child = [0.0] * len(self.start)
        for sid, parent in enumerate(self.parent_of):
            if parent >= 0:
                child[parent] += self.end[sid] - self.start[sid]
        totals = defaultdict(float)
        for sid, name_id in enumerate(self.name_of):
            layer = self.span_names[name_id].split(".", 1)[0]
            totals[layer] += self.end[sid] - self.start[sid] - child[sid]
        return totals

    def write_spans(self, path: Path) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("span,parent,name,start_us,end_us\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid},{self.parent_of[sid]},{self.span_names[self.name_of[sid]]},"
                    f"{(self.start[sid] - t0) * 1e6:.1f},{(self.end[sid] - t0) * 1e6:.1f}\n"
                )


class Call:
    """The function and arguments of one traced call."""

    def __init__(self, fn, args, kwargs):
        self.fn, self.args, self.kwargs = fn, args, kwargs

    @cached_property
    def arguments(self) -> dict:
        """Parameter name -> value, defaults included."""
        bound = inspect.signature(self.fn).bind(*self.args, **self.kwargs)
        bound.apply_defaults()
        return bound.arguments


def _tree_bytes(paths) -> int:
    return sum(p.stat().st_size for p in paths)


# Hooks: one per wrapped function whose call carries a count the report needs.

def _record(seconds=None, calls=None):
    def hook(tr, call, result, dt):
        if seconds:
            tr.metrics[seconds] += dt
        if calls:
            tr.metrics[calls] += 1

    return hook


def _settle(tr, call, result, dt):
    period = call.arguments["inputs_one_period"].shape[-1]
    m = tr.metrics
    m["pann.settle_calls"] += 1
    m["pann.settle_s"] += dt
    m["pann.settle_cycles"] += result.cycles
    m["pann.rollout_steps"] += result.cycles * period
    m["pann.unsettled"] += not result.converged


def _synthesize(tr, call, result, dt):
    tr.metrics[f"signals.synth_s.{call.arguments['role']}"] += dt
    tr.metrics["signals.segments"] += len(result.segments)


def _save_dataset(tr, call, result, dt):
    tr.metrics["signals.save_s"] += dt
    out_dir = Path(result).parent

    def size():
        tr.metrics["signals.bytes_written"] += _tree_bytes(out_dir.iterdir())

    tr.deferred.append(size)


def _mc(tr, call, result, dt):
    name = result.constant_name
    m = tr.metrics
    m[f"lipschitz.mc_s.{name}"] += dt
    m[f"lipschitz.mc_pairs.{name}"] += result.n_samples
    m[f"lipschitz.mc_skipped.{name}"] += result.n_skipped
    m[f"lipschitz.ratio.{name}"] = result.empirical_max / result.theoretical


def _sup(constant):
    def hook(tr, call, result, dt):
        a = call.arguments
        kind = {"infinity": "inf"}.get(a["kind"].value, a["kind"].value)
        star = "_star" if a["domain"].is_collapsed else ""
        tr.metrics[f"lipschitz.sup_s.{constant}{star}_{kind}"] += dt

        def points():
            thetas = sample_thetas(a["domain"], a["n_samples"], a["seed"])
            tr.metrics["lipschitz.sup_points"] += len(thetas)

        tr.deferred.append(points)

    return hook


def _adam(tr, call, result, dt):
    tr.metrics["training.adam_s"] += dt
    tr.metrics["training.epochs"] += len(result.records)


def _diagnostics(tr, call, result, dt):
    tr.metrics["training.diagnostics_s"] += dt
    trace = call.arguments["trace"]
    if trace.strategy == "S3":
        star = call.arguments["theta_star"]
        rel = abs(trace.final_theta - star) / abs(star) * 100.0
        tr.metrics["training.s3_rel_err_pct"] = float(max(rel))
        # An S3 run that never enters the 1% band reads one past its last epoch.
        tr.metrics["training.s3_conv_epoch"] = (
            result.convergence_epoch or len(trace.records) + 1
        )


def _hash_tree(tr, call, result, dt):
    root = Path(call.arguments["root"])
    tr.metrics["cli.files_hashed"] += len(result)

    def size():
        tr.metrics["cli.bytes_hashed"] += _tree_bytes(root / rel for rel in result)

    tr.deferred.append(size)


HOOKS = {
    **{
        f"statespace.{name}": _record("statespace.transition_s", "statespace.transition_calls")
        for name in TRANSITION_BUILDERS
    },
    "pann.settle_to_steady_state": _settle,
    "rng.substream": _record("rng.substream_s", "rng.substream_calls"),
    "signals.synthesize_dataset": _synthesize,
    "signals.save_dataset": _save_dataset,
    "lipschitz.mc_estimate_lipschitz": _mc,
    "lipschitz.theoretical_L1theta": _sup("L1theta"),
    "lipschitz.theoretical_L2theta": _sup("L2theta"),
    "lipschitz.theorem2_monitor": _record("lipschitz.monitor_s", "lipschitz.monitor_calls"),
    "training.loss": _record("training.loss_grad_s", "training.loss_calls"),
    "training.gradient": _record("training.loss_grad_s", "training.gradient_calls"),
    "training.adam_train": _adam,
    "training.regret_ledger": _record("training.regret_s"),
    "training.regret_bound": _record(calls="training.regret_bound_calls"),
    "training.training_diagnostics": _diagnostics,
    "cli.load_config": _record("cli.config_s"),
    "cli._apply_overrides": _record("cli.config_s"),
    "cli._hash_tree": _hash_tree,
}


def install(tracer: Tracer):
    """Wrap every layer boundary and return the traced `cli.main`."""
    modules = {name: importlib.import_module(f"pannkit.{name}") for name in (*LAYERS, "cli")}
    for layer in LAYERS:
        home = modules[layer]
        for attr, fn in list(vars(home).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != home.__name__:
                continue
            traced = tracer.wrap(layer, fn, HOOKS.get(f"{layer}.{attr}"))
            # The defining module keeps the original: calls within a layer
            # are not boundary crossings.
            for caller in modules.values():
                if caller is not home and vars(caller).get(attr) is fn:
                    setattr(caller, attr, traced)
    cli = modules["cli"]
    for attr in CLI_STAGES:
        setattr(cli, attr, tracer.wrap("cli", getattr(cli, attr), HOOKS.get(f"cli.{attr}")))
    return tracer.wrap("cli", cli.main)


def _us_per(seconds: float, count: float) -> float:
    return seconds / count * 1e6 if count else 0.0


def run(trace_dir: Path, cli_args: list) -> int:
    """Run the traced command; write metrics.json and spans.csv."""
    tracer = Tracer()
    code = install(tracer)(cli_args)
    tracer.active = False
    for job in tracer.deferred:
        job()
    m = tracer.metrics
    for layer, seconds in tracer.self_seconds().items():
        m[f"{layer}.self_s"] = seconds
    m["statespace.us_per_transition"] = _us_per(
        m["statespace.transition_s"], m["statespace.transition_calls"]
    )
    for name in ("L1z", "L1theta", "L2theta"):
        m[f"lipschitz.us_per_pair.{name}"] = _us_per(
            m[f"lipschitz.mc_s.{name}"], m[f"lipschitz.mc_pairs.{name}"]
        )
    m["training.us_per_epoch"] = _us_per(m["training.adam_s"], m["training.epochs"])
    m["trace.spans"] = len(tracer.start)
    trace_dir.mkdir(parents=True, exist_ok=True)
    (trace_dir / "metrics.json").write_text(json.dumps(m, indent=1, sort_keys=True) + "\n")
    tracer.write_spans(trace_dir / "spans.csv")
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: trace_run.py TRACE_DIR -- <pannkit arguments>")
    sys.exit(run(Path(sys.argv[1]), sys.argv[3:]))
