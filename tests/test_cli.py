"""End-to-end command checks: config handling, artifact layout, determinism,
and the exit-code contract."""
import copy
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import pannkit as pk
from pannkit.cli import (
    OUT_ENV_VAR,
    ExperimentConfig,
    _check_sweep,
    compute_lipschitz_reports,
    default_config,
    load_config,
    main,
    run_strategy_sweep,
    synth_role,
)
from pannkit.errors import ConfigError
from pannkit.training import AdamConfig, regret_bound


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUT_ENV_VAR, raising=False)
    return tmp_path


def write_config(tmp_path, overrides):
    """The defaults with overrides merged in, written as YAML; a list is
    written as it is, a config root that is no mapping."""
    if isinstance(overrides, list):
        raw = overrides
    else:
        raw = default_config()
        for section, sub in overrides.items():
            if isinstance(sub, dict):
                raw.setdefault(section, {}).update(sub)
            else:
                raw[section] = sub
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def small_config(tmp_path, **extra_sections):
    overrides = {
        "dataset": {"n_test": 0, "n_validation": 0},
        "adam": {"max_epochs": 25},
        "strategies": ["S3"],
        "mc": {"n_z_pairs": 400, "n_theta_pairs": 200, "n_theta_samples": 200},
    }
    overrides.update(extra_sections)
    return write_config(tmp_path, overrides)


def test_defaults_prints_the_reference_config(capsys):
    assert main(["defaults"]) == 0
    parsed = yaml.safe_load(capsys.readouterr().out)
    assert parsed == default_config()
    assert parsed["theta"]["star"] == [63e-6, 1.8, 1.0]
    assert parsed["timing"]["dt"] == 8e-8
    assert parsed["dataset"] == {
        "n_train": 2, "n_test": 50, "n_validation": 50, "noise_sigma": 0.0,
    }
    assert parsed["seed"] == 0


def test_defaults_writes_a_loadable_file(tmp_path):
    assert main(["defaults", "--out", str(tmp_path / "cfg")]) == 0
    config = load_config(str(tmp_path / "cfg" / "config.yaml"))
    assert config.seed == 0
    assert config.to_dict() == default_config()


def test_config_file_overrides_take_effect(tmp_path):
    path = write_config(tmp_path, {"seed": 7, "adam": {"max_epochs": 17}})
    config = load_config(path)
    assert config.seed == 7
    assert config.adam["max_epochs"] == 17
    assert config.dataset["n_train"] == 2, "untouched sections keep their defaults"


def test_config_rejects_unknown_sections(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("bogus_section:\n  x: 1\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


_SHORT_THETA = {
    "star": [63e-6, 1.8], "lower": [10e-6, 0.01], "upper": [200e-6, 3.0],
    "initial": [120e-6, 0.903],
}
_MALFORMED = {
    "scalar-section": {"mc": 5},
    "reversed-clamp": {"rates": {"clamp": [10.0, 1e-7]}},
    "removed-settle-key": {"settle": {"max_cycles": 200}},
    "word-seed": {"seed": "abc"},
    "bool-seed": {"seed": True},
    "negative-seed": {"seed": -1},
    "scalar-strategies": {"strategies": 5},
    "no-strategies": {"strategies": []},
    "word-dt": {"timing": {"dt": "fast"}},
    "removed-settle-section": {"settle": {"tol": 1e-9}},
    "removed-window-accrual": {"rates": {"window_accrual": 0.95}},
    "two-entry-theta": {"theta": _SHORT_THETA},
    "scalar-names": {"theta": {"names": 5}},
    "string-names": {"theta": {"names": "abc"}},
    "removed-names-key": {"theta": {"names": ["L_k", "R_L", "n"]}},
    "removed-model-section": {"model": {"kind": "dab"}},
    "box-denominator-not-positive": {"theta": {"lower": [1e-9, -1.0, 0.8]}},
    "repeated-strategies": {"strategies": ["S3", "S3"]},
    "initial-outside-box": {"theta": {"initial": [1e-3, 0.903, 1.12]}},
    "one-entry-phase-range": {"excitation": {"phase_range": [0.1]}},
    "scalar-phase-range": {"excitation": {"phase_range": 0.1}},
    "one-entry-clamp": {"rates": {"clamp": [1e-7]}},
    "negative-scale-c": {"rates": {"scale_c": -1}},
    "fractional-count": {"dataset": {"n_train": 2.5}},
    "infinite-noise": {"dataset": {"noise_sigma": float("inf")}},
    "one-mc-pair": {"mc": {"n_z_pairs": 1}},
    "lambda-decay-one": {"adam": {"lambda_decay": 1.0}},
    "zero-excitation": {"excitation": {"v_in": 0.0, "v_out": 0.0}},
    "tiny-dt": {"timing": {"dt": 1e-300}},
    "tiny-fs": {"timing": {"f_s": 1e-300}},
    "huge-seed": {"seed": 2**64},
    "unknown-strategy": {"strategies": ["S9"]},
    "list-root": [{"seed": 1}],
    "flat-box-coordinate": {"theta": {"lower": [10e-6, 0.01, 1.0], "upper": [200e-6, 3.0, 1.0]}},
    "overflowing-dt": {"timing": {"dt": 1e200, "f_s": 1e-201}},
}


@pytest.mark.parametrize(
    "overrides,args",
    [
        *((o, []) for o in _MALFORMED.values()),
        ({}, ["--samples", "1"]),
        ({}, ["--strategies", "S3,S3"]),
        ({}, ["--seed", "18446744073709551616"]),
    ],
    ids=[*_MALFORMED, "one-sample", "repeated-strategies-flag", "huge-seed-flag"],
)
def test_malformed_config_is_a_config_error(tmp_path, capsys, overrides, args):
    path = write_config(tmp_path, overrides)
    assert main(["synth", "--config", path, "--out", "o", *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err, err


def test_infeasible_allocation_is_an_error_line(tmp_path, capsys):
    """6 x 10^15 epoch records need 469 PiB, more than any address space
    holds, so the allocation fails at once."""
    path = write_config(tmp_path, {
        "adam": {"max_epochs": 10**15},
        "dataset": {"n_test": 0, "n_validation": 0},
    })
    assert main(["train", "--config", path, "--out", "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err, err


def test_overflowing_box_is_a_numerical_failure(tmp_path, capsys):
    """With L_k up to 1e308, (L_k + R_L dt)^2 and d2W's 2 * L_k * dt^2
    overflow at the box's upper L_k corners. The config check evaluates the
    closed form at each corner first, so the run ends in one error line
    naming the first such corner, and numpy prints no warning."""
    path = write_config(tmp_path, {"theta": {"upper": [1e308, 3.0, 1.2]}})
    assert main(["lipschitz", "--config", path, "--samples", "500", "--out", "o"]) == 1
    assert capsys.readouterr().err == (
        "error: the transition or its derivatives overflow at theta box corner "
        "[1e+308, 0.01, 0.8]\n"
    )


def test_yaml_numeric_string_loads_as_float(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("timing:\n  dt: 8e-8\n")
    assert yaml.safe_load(path.read_text())["timing"]["dt"] == "8e-8", "PyYAML reads a string"
    config = load_config(str(path))
    assert config.timing["dt"] == 8e-8 and config.spec.dt == 8e-8


_CONFIG_PATHS = [(section,) for section in default_config()] + [
    (section, key)
    for section, sub in default_config().items()
    if isinstance(sub, dict)
    for key in sub
]
_YAML_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
    | st.sampled_from(["8e-8", "1e3", "nan", "-inf", "0x10"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4) | st.integers(), children, max_size=3),
    max_leaves=4,
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_CONFIG_PATHS), _YAML_VALUES), min_size=1, max_size=3))
def test_fuzzed_config_builds_or_is_a_config_error(mutations):
    raw = default_config()
    for path, value in mutations:
        section = raw
        for key in path[:-1]:
            section = section[key]
        if isinstance(section, dict):
            section[path[-1]] = value
    try:
        config = ExperimentConfig(raw)
    except ConfigError:
        return
    echoed = config.to_dict()
    assert ExperimentConfig(echoed).to_dict() == echoed, "parsed values parse to themselves"


def test_config_rejects_non_integral_steps_per_period(tmp_path, capsys):
    path = write_config(tmp_path, {"timing": {"dt": 7e-8}})
    assert main(["synth", "--config", path, "--out", "o"]) == 1
    assert "error:" in capsys.readouterr().err


def test_synth_layout_and_determinism(tmp_path):
    path = small_config(tmp_path, dataset={"n_train": 2, "n_test": 3, "n_validation": 0})
    assert main(["synth", "--config", path, "--out", "a"]) == 0
    train_files = sorted(p.name for p in Path("a/dataset/train").iterdir())
    assert train_files == ["manifest.json", "segment_000.csv", "segment_001.csv"]
    test_files = sorted(p.name for p in Path("a/dataset/test").iterdir())
    assert len(test_files) == 4
    assert not Path("a/dataset/validation").exists(), "empty roles write nothing"
    assert Path("a/config.yaml").exists()

    assert main(["synth", "--config", path, "--out", "b"]) == 0
    for rel in ["dataset/train/segment_000.csv", "dataset/train/manifest.json", "config.yaml"]:
        assert Path("a", rel).read_bytes() == Path("b", rel).read_bytes(), f"{rel} differs"


def test_synth_segments_carry_the_configured_operating_point(tmp_path):
    path = small_config(
        tmp_path,
        dataset={"n_train": 2, "n_test": 1, "n_validation": 1},
        excitation={"v_in": 150.0, "v_out": 180.0},
        timing={"dt": 1e-7, "f_s": 100000.0},
    )
    assert main(["synth", "--config", path, "--out", "a"]) == 0
    for role in ["train", "test", "validation"]:
        manifest = json.loads(Path(f"a/dataset/{role}/manifest.json").read_text())
        assert manifest["segments"], role
        for entry in manifest["segments"]:
            spec = entry["spec"]
            assert (spec["v_in"], spec["v_out"]) == (150.0, 180.0), role
            assert (spec["f_s"], spec["dt"], spec["n_periods"]) == (100000.0, 1e-7, 1), role


def test_synth_respects_seed_override(tmp_path):
    path = small_config(tmp_path)
    assert main(["synth", "--config", path, "--out", "a"]) == 0
    assert main(["synth", "--config", path, "--seed", "1", "--out", "c"]) == 0
    a = Path("a/dataset/train/segment_000.csv").read_bytes()
    c = Path("c/dataset/train/segment_000.csv").read_bytes()
    assert a != c, "a different master seed must draw different phases"
    loaded = pk.load_dataset(Path("a/dataset/train"))
    assert len(loaded.segments) == 2


def test_simulate_emits_one_settled_period(capsys):
    assert main(["simulate", "--out", "sim"]) == 0
    lines = Path("sim/trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "time,i_L,v_p,v_s"
    assert len(lines) == 251, "one period at 80 ns of 50 kHz is 250 samples"
    times = [float(l.split(",")[0]) for l in lines[1:]]
    assert times == [pk.DEFAULT_DT * k for k in range(1, 251)], "state k is at k dt"
    out = capsys.readouterr().out
    assert "settled=True" in out
    currents = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert np.max(np.abs(currents)) < 200.0, "steady-state current should be modest"


def test_simulate_rejects_out_of_box_theta(capsys):
    assert main(["simulate", "--theta", "1e-3,1.8,1.0", "--out", "sim"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["simulate", "--theta", "abc", "--out", "sim"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err, err


def test_simulate_with_custom_theta():
    assert main(["simulate", "--theta", "100e-6,0.5,1.1", "--out", "sim"]) == 0
    assert Path("sim/trajectory.csv").exists()


def test_simulate_lossless_theta_fails_numerically(tmp_path, capsys):
    # R_L = 0 gives W_x = 1: the recurrence has no periodic steady state.
    path = write_config(tmp_path, {"theta": {"lower": [1e-5, 0.0, 0.8]}})
    code = main(["simulate", "--config", path, "--theta", "63e-6,0,1", "--out", "sim"])
    assert code == 2, "a box that admits the theta makes it a numerical failure"
    assert "numerical failure:" in capsys.readouterr().err


def test_configured_box_wider_than_reference_box(tmp_path):
    path = small_config(
        tmp_path,
        theta={"lower": [5e-6, 0.01, 0.8]},
        adam={"max_epochs": 20},
        mc={"n_z_pairs": 200, "n_theta_pairs": 200, "n_theta_samples": 200},
    )
    assert main(["lipschitz", "--config", path, "--out", "lip"]) == 0
    for name in ["L1z", "L1theta", "L2theta"]:
        rep = json.loads(Path(f"lip/lipschitz/{name}.json").read_text())
        assert rep["empirical_max"] <= rep["theoretical"] * (1 + 1e-9), name
    assert main(["train", "--config", path, "--out", "t"]) == 0
    summary = json.loads(Path("t/train/S3/summary.json").read_text())
    assert summary["epochs_run"] == 20 and not summary["diverged"]


def test_lipschitz_reports(tmp_path):
    path = small_config(tmp_path)
    assert main(["lipschitz", "--config", path, "--out", "lip"]) == 0
    names = sorted(p.name for p in Path("lip/lipschitz").iterdir())
    assert names == ["L1theta.json", "L1z.json", "L2theta.json"]
    l1z = json.loads(Path("lip/lipschitz/L1z.json").read_text())
    assert l1z["empirical_max"] <= l1z["theoretical"] * (1 + 1e-9)
    assert l1z["empirical_max"] >= 0.99 * l1z["theoretical"]
    assert l1z["extras"]["l1z_infinity"] > 1.0 > l1z["extras"]["l1z_max_entry"]
    for name in ["L1theta.json", "L2theta.json"]:
        rep = json.loads(Path("lip/lipschitz", name).read_text())
        assert rep["empirical_max"] <= rep["theoretical"], name
        assert rep["norm"] == "two"


def test_train_writes_trace_summary_comparison(tmp_path):
    path = small_config(tmp_path)
    assert main(["train", "--config", path, "--out", "t"]) == 0
    trace_lines = Path("t/train/S3/trace.csv").read_text().strip().split("\n")
    assert trace_lines[0] == "epoch,loss,rmse,L_k,R_L,n,grad_norm2,grad_norm_inf"
    assert len(trace_lines) == 26, "25 epochs plus the header"
    summary = json.loads(Path("t/train/S3/summary.json").read_text())
    for key in [
        "rates", "diagnostics", "regret", "monitor", "regret_bound_dominates", "final_theta",
    ]:
        assert key in summary, f"summary missing {key}"
    assert summary["monitor"]["satisfied"] is True
    assert "regret_bound_curve" not in summary and "curve" not in summary["regret"]
    comparison = json.loads(Path("t/train/comparison.json").read_text())
    assert list(comparison["strategies"]) == ["S3"]
    assert comparison["ginf"] > 0 and comparison["l2theta_star"] > 0


def test_summary_curves_rebuild_from_the_written_files(tmp_path):
    """The two curves a summary leaves out are rebuilt, bit for bit, from
    trace.csv and the summary: regret.curve is the cumulative loss minus
    f_star, regret_bound_curve is regret_bound of the rates, monitor and
    config."""
    path = small_config(tmp_path, strategies=["S1", "S3", "S5"])
    assert main(["train", "--config", path, "--out", "t"]) == 0
    config = load_config(path)
    _, in_memory = run_strategy_sweep(config, synth_role(config, "train"))
    for label, want in in_memory.items():
        summary = json.loads(Path(f"t/train/{label}/summary.json").read_text())
        trace = np.loadtxt(f"t/train/{label}/trace.csv", delimiter=",", skiprows=1, ndmin=2)
        curve = np.cumsum(trace[:, 1] - summary["regret"]["f_star"])
        monitor = summary["monitor"]
        bound = regret_bound(
            AdamConfig(np.array(summary["rates"]), **summary["config"]["adam"]),
            d=len(summary["rates"]), big_d=monitor["D_hat"], big_d_inf=monitor["Dinf_hat"],
            ginf=monitor["Ginf_hat"], t=np.arange(1, summary["epochs_run"] + 1),
        )
        assert curve.tobytes() == want["regret"]["curve"].tobytes(), label
        assert bound.tobytes() == want["regret_bound_curve"].tobytes(), label


def test_train_strategy_flag_overrides_config(tmp_path):
    path = small_config(tmp_path)
    assert main(["train", "--config", path, "--strategies", "S1,S2", "--out", "t"]) == 0
    assert sorted(p.name for p in Path("t/train").iterdir()) == [
        "S1", "S2", "comparison.json",
    ]


def test_reproduce_writes_manifest_with_hashes(tmp_path):
    path = small_config(tmp_path)
    assert main(["reproduce", "--config", path, "--out", "r"]) == 0
    manifest = json.loads(Path("r/manifest.json").read_text())
    assert manifest["seed"] == 0
    files = manifest["files"]
    assert "train/S3/trace.csv" in files
    assert "lipschitz/L1z.json" in files
    assert "dataset/train/segment_000.csv" in files
    assert "manifest.json" not in files, "the manifest cannot hash itself"
    for digest in files.values():
        assert len(digest) == 64, "sha256 hex digests expected"


def test_reproduce_check_fails_fast_runs(tmp_path, capsys):
    # 25 epochs cannot reach the 1% band, so --check must report and exit 3
    path = small_config(tmp_path)
    assert main(["reproduce", "--config", path, "--check", "--out", "r"]) == 3
    check = json.loads(Path("r/check.json").read_text())
    assert not check["passed"]
    assert any("S3" in msg for msg in check["failures"])
    assert "CHECK FAIL" in capsys.readouterr().out


def test_reproduce_check_passes_at_the_defaults(capsys):
    assert main(["reproduce", "--check", "--seed", "0", "--out", "r"]) == 0
    out = capsys.readouterr().out
    assert "CHECK PASS: all reproduction checks satisfied\n" in out and "CHECK FAIL" not in out
    assert json.loads(Path("r/check.json").read_text()) == {"failures": [], "passed": True}
    assert "check.json" in json.loads(Path("r/manifest.json").read_text())["files"]


@pytest.fixture(scope="module")
def release_sweep():
    """The default study's sweep and Lipschitz reports at seed 0, which pass
    the release check."""
    config = ExperimentConfig(default_config())
    train = synth_role(config, "train")
    reports = compute_lipschitz_reports(config, train)
    return (config, *run_strategy_sweep(config, train, reports), reports)


_LOOSE_L1Z = "L1z MC estimate below 0.99 of the theoretical value"
_REGRET = np.arange(1.0, 201.0) ** 0.4  # nondecreasing; its average more than halves
_DIP = np.arange(200) == 1  # lowers the second epoch's regret by 1, below the first's
# Each case changes a copy of the passing sweep: entries of the comparison's
# strategies (None drops one), of S3's summary and regret, and the ratio of
# the L1z estimate to its theoretical value. The message list is exact.
_RELEASE_FAILURES = {
    "unchanged": ({}, []),
    "S3-missing": ({"strategies": {"S3": None}}, ["S3 missing or diverged"]),
    "S3-diverged-and-L1z-loose": (
        {"strategies": {"S3": {"diverged": True}}, "l1z_ratio": 0.98},
        ["S3 missing or diverged", _LOOSE_L1Z],
    ),
    "S3-unconverged": (
        {"strategies": {"S3": {"convergence_epoch": None}}},
        ["S3 did not converge to the 1% band"],
    ),
    "S3-final-errors": (
        {"strategies": {"S3": {"final_rel_err_pct": [2.0, 6.0, 1.5]}}},
        ["S3 final L_k error 2.000% exceeds 1.0%", "S3 final R_L error 6.000% exceeds 5.0%",
         "S3 final n error 1.500% exceeds 1.0%"],
    ),
    "S3-overshoot": (
        {"strategies": {"S3": {"overshoot_pct": [1.0, 6.0, 0.0]}}},
        ["S3 overshoot 6.00% exceeds 5%"],
    ),
    "S3-left-box": ({"S3": {"final_theta": [1e-3, 1.8, 1.0]}}, ["S3 final theta left the box"]),
    "regret-dips": (
        {"regret": {"curve": _REGRET - _DIP}}, ["S3 regret curve is not nondecreasing"],
    ),
    "regret-linear": (
        {"regret": {"curve": np.arange(1.0, 201.0)}},
        ["S3 average regret did not halve from T/4 to T"],
    ),
    "regret-slope-high": ({"regret": {"slope": 0.75}}, ["S3 regret slope 0.75 outside [0.3, 0.7]"]),
    "regret-slope-none": ({"regret": {"slope": None}}, ["S3 regret slope None outside [0.3, 0.7]"]),
    "regret-bound-exceeded": (
        {"S3": {"regret_bound_dominates": False}}, ["S3 regret exceeded its bound at some epoch"],
    ),
    "S1-faster": (
        {"strategies": {"S1": {"convergence_epoch": 100}, "S3": {"convergence_epoch": 120}}},
        ["S3 (120) not faster than S1 (100)"],
    ),
    "S5-overshoot-low": (
        {"strategies": {"S5": {"overshoot_pct": [10.0, 0.0, 0.0]}}},
        ["S5 first-parameter overshoot 10.00% not above 20%"],
    ),
    "S5-overshoot-below-S3": (
        {"strategies": {"S3": {"overshoot_pct": [4.0, 0.0, 0.0]},
                        "S5": {"overshoot_pct": [3.0, 0.0, 0.0]}}},
        ["S5 first-parameter overshoot 3.00% not above 20%",
         "S5 overshoot not above S3 overshoot"],
    ),
    "S6-fast-and-flat": (
        {"strategies": {"S3": {"convergence_epoch": 120},
                        "S6": {"convergence_epoch": 100, "overshoot_pct": [0.0, 0.0, 0.0]}}},
        ["S6 is neither slower than S3 nor overshooting"],
    ),
    "L1z-loose": ({"l1z_ratio": 0.98}, [_LOOSE_L1Z]),
    "all-but-S3-missing-or-unconverged": (
        {
            "strategies": {
                "S1": {"convergence_epoch": 100},
                "S3": {"convergence_epoch": 120, "final_rel_err_pct": [2.0, 6.0, 1.5],
                       "overshoot_pct": [6.0, 0.0, 0.0]},
                "S5": {"overshoot_pct": [3.0, 0.0, 0.0]},
                "S6": {"convergence_epoch": 100, "overshoot_pct": [0.0, 0.0, 0.0]},
            },
            "S3": {"final_theta": [1e-3, 1.8, 1.0], "regret_bound_dominates": False},
            "regret": {"curve": np.arange(1.0, 201.0) - 2 * _DIP, "slope": 0.9},
            "l1z_ratio": 0.5,
        },
        ["S3 final L_k error 2.000% exceeds 1.0%", "S3 final R_L error 6.000% exceeds 5.0%",
         "S3 final n error 1.500% exceeds 1.0%", "S3 overshoot 6.00% exceeds 5%",
         "S3 final theta left the box", "S3 regret curve is not nondecreasing",
         "S3 average regret did not halve from T/4 to T",
         "S3 regret slope 0.9 outside [0.3, 0.7]", "S3 regret exceeded its bound at some epoch",
         "S3 (120) not faster than S1 (100)", "S5 first-parameter overshoot 3.00% not above 20%",
         "S5 overshoot not above S3 overshoot", "S6 is neither slower than S3 nor overshooting",
         _LOOSE_L1Z],
    ),
}


@pytest.mark.parametrize("change,expected", _RELEASE_FAILURES.values(), ids=_RELEASE_FAILURES)
def test_release_check_reports_each_failure(release_sweep, change, expected):
    config = release_sweep[0]
    comparison, summaries, reports = copy.deepcopy(release_sweep[1:])
    strategies = comparison["strategies"]
    for label, entries in change.get("strategies", {}).items():
        if entries is None:
            del strategies[label]
        else:
            strategies[label].update(entries)
    summaries["S3"].update(change.get("S3", {}))
    summaries["S3"]["regret"].update(change.get("regret", {}))
    if "l1z_ratio" in change:
        l1z = reports["L1z"]
        reports["L1z"] = replace(l1z, empirical_max=change["l1z_ratio"] * l1z.theoretical)
    assert _check_sweep(config, comparison, summaries, reports) == expected


def test_reproduce_manifest_attests_only_this_run(tmp_path):
    path = small_config(tmp_path)
    first = ["reproduce", "--config", path, "--check", "--strategies", "S1,S3", "--out", "r"]
    assert main(first) == 3
    assert main(["reproduce", "--config", path, "--strategies", "S3", "--out", "r"]) == 0
    files = json.loads(Path("r/manifest.json").read_text())["files"]
    assert "check.json" not in files, "the first run's check.json is stale"
    assert not [rel for rel in files if rel.startswith("train/S1/")], "S1 was not rerun"
    assert "train/S3/trace.csv" in files and "dataset/train/segment_000.csv" in files
    for rel, digest in files.items():
        assert hashlib.sha256(Path("r", rel).read_bytes()).hexdigest() == digest, rel


def test_out_env_var_sets_default_root(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_ENV_VAR, str(tmp_path / "from-env"))
    path = small_config(tmp_path)
    assert main(["synth", "--config", path]) == 0
    assert (tmp_path / "from-env" / "dataset" / "train" / "manifest.json").exists()


def test_missing_config_file_is_a_config_error(capsys):
    assert main(["synth", "--config", "no-such.yaml", "--out", "o"]) == 1
    assert "not found" in capsys.readouterr().err


_UNUSABLE_PATHS = {
    "out-is-a-file": (["synth", "--out", "blocker"], None, "blocker"),
    "out-under-a-file": (["lipschitz", "--out", "blocker/x"], None, "blocker/x"),
    "defaults-out-is-a-file": (["defaults", "--out", "blocker"], None, "blocker"),
    "env-out-is-a-file": (["simulate"], "blocker", "blocker"),
    "config-is-a-directory": (["synth", "--config", "cfgdir", "--out", "o"], None, "cfgdir"),
    "config-not-utf8": (["synth", "--config", "latin1.yaml", "--out", "o"], None, "latin1.yaml"),
    "artifact-is-a-directory": (["simulate", "--out", "d"], None, "d/trajectory.csv"),
}


@pytest.mark.parametrize("argv,env_out,named", _UNUSABLE_PATHS.values(), ids=_UNUSABLE_PATHS)
def test_unusable_path_is_an_error_line(monkeypatch, capsys, argv, env_out, named):
    Path("blocker").write_text("a file, not a directory\n")
    Path("cfgdir").mkdir()
    Path("d/trajectory.csv").mkdir(parents=True)
    Path("latin1.yaml").write_bytes("seed: 1  # caf\u00e9\n".encode("latin-1"))
    if env_out is not None:
        monkeypatch.setenv(OUT_ENV_VAR, env_out)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err, err
    assert named in err, err
