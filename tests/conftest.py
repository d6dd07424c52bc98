"""Shared fixtures: the reference converter setup and the seed-0 dataset."""
import numpy as np
import pytest

import pannkit as pk


@pytest.fixture(scope="session")
def model():
    return pk.dab_model()


@pytest.fixture(scope="session")
def star():
    return pk.dab_params()


@pytest.fixture(scope="session")
def dt():
    return pk.DEFAULT_DT


@pytest.fixture(scope="session")
def ranges(star):
    return star.ranges


@pytest.fixture(scope="session")
def train_dataset(star):
    specs = pk.draw_modulation_specs(2, 0, role_index=0)
    return pk.synthesize_dataset(star, specs, seed=0, role="train")


@pytest.fixture(scope="session")
def box_domain(star, train_dataset):
    return pk.DomainSpec(star.lower, star.upper, train_dataset.z_bounds(), star.values)


def quick_dataset(theta_true_values, phase, dt=pk.DEFAULT_DT):
    """Small single-segment dataset: one settled period at the given phase."""
    spec = pk.ModulationSpec(200.0, 200.0, pk.DEFAULT_FS, float(phase), dt, 1)
    return pk.synthesize_dataset(pk.dab_params(theta_true_values), [spec], seed=0)
