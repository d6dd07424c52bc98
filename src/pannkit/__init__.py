"""Recurrent power-converter models whose weights are circuit parameters,
with Lipschitz bounds for stability, identification, and learning rates.

Layers, bottom up:

- statespace: continuous models, parameter boxes, implicit-Euler transitions
- pann: single-step map, free and teacher-forced rollouts, settling
- signals: dual-bridge modulation, dataset synthesis and disk round-trip,
  the CSV and JSON artifact writers
- lipschitz: theoretical constants, MC estimators, in-training monitor
- training: loss/gradient/hessian, bound-derived rates, Adam, regret
- cli: experiment runner (`pannkit` console script)

The root holds the study's API: build the model, synthesize or load data,
certify the three constants, derive rates and train. Every other name is
imported from its defining module.
"""

from .errors import PannkitError
from .lipschitz import (
    BoxSampler,
    DomainSpec,
    mc_estimate_lipschitz,
    theoretical_L1theta,
    theoretical_L1z,
    theoretical_L2theta,
)
from .norms import NormKind
from .signals import (
    ModulationSpec,
    draw_modulation_specs,
    load_dataset,
    save_dataset,
    synthesize_dataset,
)
from .statespace import (
    DEFAULT_DT,
    DEFAULT_FS,
    ContinuousModel,
    ParamVector,
    dab_model,
    dab_params,
    dab_transition,
    neumann_bound,
    transition_values,
)
from .training import AdamConfig, adam_sweep, gradient, lipschitz_aware_rates, loss

__version__ = "0.1.0"
