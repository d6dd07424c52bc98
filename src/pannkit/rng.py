"""Deterministic counter-based random streams.

All randomness in pannkit flows through Philox substreams keyed by
(master seed, domain tag, index). Keying each sample or segment with its own
index makes reductions order-independent: a Monte-Carlo maximum over the
first n samples is the same number whether the samples were evaluated
serially, in reverse, or across threads.
"""
from __future__ import annotations

import numpy as np

# Domain tags. Each independent use of randomness gets its own tag so streams
# never collide across subsystems sharing one master seed.
DOMAIN_PHASES = 1  # phase-shift draws for dataset specs (index = dataset role)
DOMAIN_NOISE = 2  # per-segment measurement noise (index = segment ordinal)
DOMAIN_MC = 3  # Monte-Carlo pair sampling (index = sample ordinal)
DOMAIN_THETA = 4  # theta-domain sampling in the Lipschitz calculators

_INDEX_BITS = 48
_MASK64 = (1 << 64) - 1


def substream(seed: int, domain: int, index: int = 0) -> np.random.Generator:
    """Return the Generator for (seed, domain, index).

    The same triple always yields the same stream, independent of any other
    stream having been consumed.
    """
    if index < 0 or index >= (1 << _INDEX_BITS):
        raise ValueError(f"substream index out of range: {index}")
    key = ((domain << _INDEX_BITS) | index) & _MASK64
    return np.random.Generator(np.random.Philox(key=[seed & _MASK64, key]))
