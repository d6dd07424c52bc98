"""Modulation and dataset checks: square-wave geometry, exact-recurrence
targets, seeded determinism, the disk round trip and the artifact writer."""
import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pannkit as pk
from pannkit.errors import EmptyDataset, InvalidSpec
from pannkit.signals import dab_pwm, step_inputs_one_period, write_csv
from pannkit.training import loss

from conftest import quick_dataset

DT = pk.DEFAULT_DT
FS = pk.DEFAULT_FS


def test_spec_rejects_bad_inputs():
    with pytest.raises(InvalidSpec):
        pk.ModulationSpec(f_s=0.0)
    with pytest.raises(InvalidSpec):
        pk.ModulationSpec(dt=-1e-9)
    with pytest.raises(InvalidSpec):
        pk.ModulationSpec(dt=1.0 / FS)  # one step per period
    with pytest.raises(InvalidSpec):
        pk.ModulationSpec(dt=7e-8)  # 285.7 steps per period
    with pytest.raises(InvalidSpec):
        pk.ModulationSpec(phase_shift=0.6)
    with pytest.raises(InvalidSpec):
        pk.ModulationSpec(phase_shift=-0.5)
    with pytest.raises(InvalidSpec):
        pk.ModulationSpec(n_periods=0)


def test_reference_spec_has_250_steps():
    assert pk.ModulationSpec().steps_per_period == 250


def test_pwm_levels_and_zero_mean():
    spec = pk.ModulationSpec(phase_shift=0.3)
    u = dab_pwm(spec)
    assert u.shape == (2, 250)
    assert set(np.unique(u[0])) == {-200.0, 200.0}
    assert set(np.unique(u[1])) == {-200.0, 200.0}
    assert np.sum(u[0]) == 0.0, "primary square wave must have zero mean"
    assert np.sum(u[1]) == 0.0, "secondary square wave must have zero mean"


def test_pwm_zero_phase_means_aligned_bridges():
    u = dab_pwm(pk.ModulationSpec(phase_shift=0.0))
    assert np.array_equal(u[0], u[1]), "zero phase shift must align the bridges"


def test_pwm_half_period_shift_inverts():
    u = dab_pwm(pk.ModulationSpec(phase_shift=0.5))
    assert np.array_equal(u[1], -u[0]), "0.5 of a full period is a sign flip"


def test_pwm_shift_is_a_sample_roll():
    spec = pk.ModulationSpec(phase_shift=0.1)  # 25 of 250 samples
    u = dab_pwm(spec)
    u0 = dab_pwm(pk.ModulationSpec(phase_shift=0.0))
    assert np.array_equal(u[1], np.roll(u0[1], 25)), (
        "phase shift must delay the secondary by phase*period"
    )


def test_step_inputs_are_next_sample():
    spec = pk.ModulationSpec(phase_shift=0.2)
    samples = dab_pwm(spec)
    inputs = step_inputs_one_period(spec)
    p = spec.steps_per_period
    for k in range(p):
        assert np.array_equal(inputs[:, k], samples[:, (k + 1) % p]), f"column {k}"


def test_draw_specs_stay_in_range():
    specs = pk.draw_modulation_specs(50, seed=123, role_index=1, phase_range=(0.05, 0.45))
    phases = np.array([s.phase_shift for s in specs])
    assert np.all((phases >= 0.05) & (phases < 0.45))
    again = pk.draw_modulation_specs(50, seed=123, role_index=1)
    assert phases.tolist() == [s.phase_shift for s in again], "draws must be seeded"
    other_role = pk.draw_modulation_specs(50, seed=123, role_index=2)
    assert phases.tolist() != [s.phase_shift for s in other_role], (
        "role substreams must not collide"
    )


def test_draw_specs_carry_the_base_spec_but_its_phase():
    base = pk.ModulationSpec(v_in=150.0, v_out=180.0, f_s=100000.0, phase_shift=0.3,
                             dt=1e-7, n_periods=4)
    specs = pk.draw_modulation_specs(5, seed=9, role_index=2, spec=base)
    phases = [s.phase_shift for s in pk.draw_modulation_specs(5, seed=9, role_index=2)]
    assert [s.phase_shift for s in specs] == phases, "the base spec does not move the draws"
    for spec in specs:
        assert (spec.v_in, spec.v_out, spec.f_s, spec.dt) == (150.0, 180.0, 100000.0, 1e-7)
        assert spec.n_periods == 1 and spec.steps_per_period == 100


def test_draw_specs_rejects_bad_range():
    with pytest.raises(InvalidSpec):
        pk.draw_modulation_specs(5, seed=0, phase_range=(0.4, 0.2))


def test_targets_satisfy_recurrence_exactly(star):
    ds = quick_dataset(star.values, 0.3)
    seg = ds.segments[0]
    w = pk.dab_transition(star, DT).w[0]
    for k in range(seg.z.shape[1] - 1):
        predicted = w[0] * seg.z[0, k] + w[1] * seg.z[1, k] + w[2] * seg.z[2, k]
        assert predicted == seg.targets[0, k], f"recurrence breaks at step {k}"
        assert seg.z[0, k + 1] == seg.targets[0, k], "next z state must be the target"


def test_loss_vanishes_at_true_parameters(star, model, train_dataset):
    val = loss(star, train_dataset, model, DT)
    assert val <= 1e-20, f"loss at the generating parameters is {val:.3e}"


@given(
    lk=st.floats(10e-6, 200e-6),
    rl=st.floats(0.01, 3.0),
    n=st.floats(0.8, 1.2),
)
@settings(max_examples=200, deadline=None)
def test_true_parameters_are_the_global_minimum(lk, rl, n):
    ds = quick_dataset([63e-6, 1.8, 1.0], 0.15)
    model = pk.dab_model()
    base = loss(pk.dab_params(), ds, model, DT)
    other = loss(pk.dab_params([lk, rl, n]), ds, model, DT)
    assert other >= base, f"loss {other} below the generating-parameter loss {base}"


def test_noise_only_touches_measured_states(star):
    spec = pk.ModulationSpec(phase_shift=0.2)
    clean = pk.synthesize_dataset(star, [spec], noise_sigma=0.0, seed=9)
    noisy = pk.synthesize_dataset(star, [spec], noise_sigma=0.01, seed=9)
    c, n = clean.segments[0], noisy.segments[0]
    assert np.array_equal(c.targets, n.targets), "targets must stay noise-free"
    assert np.array_equal(c.z[1:], n.z[1:]), "input rows must stay noise-free"
    assert not np.array_equal(c.z[0], n.z[0]), "state row must carry the noise"
    assert np.std(n.z[0] - c.z[0]) == pytest.approx(0.01, rel=0.5)


def test_synthesis_is_deterministic(star):
    spec = pk.ModulationSpec(phase_shift=0.2)
    a = pk.synthesize_dataset(star, [spec], noise_sigma=0.05, seed=4)
    b = pk.synthesize_dataset(star, [spec], noise_sigma=0.05, seed=4)
    assert np.array_equal(a.segments[0].z, b.segments[0].z)
    c = pk.synthesize_dataset(star, [spec], noise_sigma=0.05, seed=5)
    assert not np.array_equal(a.segments[0].z, c.segments[0].z)


def test_synthesize_rejects_empty_specs(star):
    with pytest.raises(EmptyDataset):
        pk.synthesize_dataset(star, [])


def test_z_bounds_reflect_excitation(train_dataset):
    zb = train_dataset.z_bounds()
    assert zb.shape == (3,)
    assert zb[1] == 200.0 and zb[2] == 200.0
    assert 0.0 < zb[0] < 200.0, f"state bound {zb[0]} should be a realistic current"


def test_dataset_round_trip_is_exact(tmp_path, star):
    specs = pk.draw_modulation_specs(3, seed=7)
    ds = pk.synthesize_dataset(star, specs, noise_sigma=0.02, seed=7)
    pk.save_dataset(ds, tmp_path / "d", seed=7)
    back = pk.load_dataset(tmp_path / "d")
    assert back.role == ds.role
    assert len(back.segments) == 3
    for orig, loaded in zip(ds.segments, back.segments):
        assert np.array_equal(orig.z, loaded.z), "17-digit floats must round-trip"
        assert np.array_equal(orig.targets, loaded.targets)
        assert loaded.spec == orig.spec
        assert loaded.noise_sigma == orig.noise_sigma


def test_save_is_reproducible_bytewise(tmp_path, star):
    specs = pk.draw_modulation_specs(2, seed=3)
    ds = pk.synthesize_dataset(star, specs, seed=3)
    pk.save_dataset(ds, tmp_path / "a", seed=3)
    pk.save_dataset(ds, tmp_path / "b", seed=3)
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), (
            f"{name} differs between identical saves"
        )


def test_stacked_concatenates_all_segments(train_dataset):
    z, x = train_dataset.stacked
    assert z.shape == (3, 500)
    assert x.shape == (1, 500)
    assert train_dataset.n_steps == 500


def csv_writer_reference(path, header, columns):
    """The per-row csv.writer loop that write_csv replaced: integers passed
    through, floats formatted to 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(len(columns[0])):
            writer.writerow(
                [c[k] if isinstance(c[k], int) else "{:.17g}".format(c[k]) for c in columns]
            )


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308]
)
_TABLES = st.integers(0, 12).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n),
        st.lists(st.lists(_FINITE, min_size=n, max_size=n), min_size=1, max_size=4),
    )
)


@settings(max_examples=200, deadline=None)
@given(_TABLES)
def test_write_csv_equals_the_csv_writer_loop(table):
    ints, floats = table
    header = ["k", *(f"x{i}" for i in range(len(floats)))]
    columns = [ints, *(np.array(col) for col in floats)]
    with tempfile.TemporaryDirectory() as tmp:
        want, got = Path(tmp, "want.csv"), Path(tmp, "sub", "got.csv")
        csv_writer_reference(want, header, columns)
        write_csv(got, header, columns)
        assert got.read_bytes() == want.read_bytes()
