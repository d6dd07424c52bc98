"""The package root exports the study's API and nothing else."""
import inspect
import re
from pathlib import Path

import pannkit as pk

ROOT_NAMES = {
    # statespace
    "ContinuousModel", "ParamVector", "dab_model", "dab_params", "dab_transition",
    "transition_values", "neumann_bound", "DEFAULT_DT", "DEFAULT_FS",
    # signals
    "ModulationSpec", "draw_modulation_specs", "synthesize_dataset", "save_dataset",
    "load_dataset",
    # lipschitz, norms
    "DomainSpec", "BoxSampler", "NormKind", "theoretical_L1z", "theoretical_L1theta",
    "theoretical_L2theta", "mc_estimate_lipschitz",
    # training
    "AdamConfig", "adam_train", "loss", "gradient", "lipschitz_aware_rates",
    # errors
    "PannkitError",
}


def test_root_exports_exactly_the_study_api():
    public = {
        name for name, value in vars(pk).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == ROOT_NAMES


def test_readme_lists_the_root_names():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    intro = readme.index("The package root `pannkit` exports")
    bullets = readme[intro:].split("\n\n")[1]
    # dotted module names such as `pannkit.signals` do not match
    assert set(re.findall(r"`(\w+)`", bullets)) == ROOT_NAMES
