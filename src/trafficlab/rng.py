"""Seeded random streams.

All randomness in this package flows through numpy's PCG64. Only
:func:`substream` makes a Generator, and every randomized function
takes the ``np.random.Generator`` it is given. Replicated runs derive
independent substreams from a master seed and replication indices, so
results do not depend on the order in which replications execute.
"""
from __future__ import annotations

import numpy as np

__all__ = ["substream"]


def substream(master_seed: int, *indices: int) -> np.random.Generator:
    """Generator for substream ``(master_seed, *indices)``.

    The tuple is fed to ``SeedSequence`` whole, so substream (7, 1) and
    substream (71,) are unrelated streams. ``SeedSequence`` pads its
    entropy with zeros, though, so tuples that differ only in trailing
    zeros, such as (s,), (s, 0) and (s, 0, 0), are one and the same
    stream. Replication i of a run uses (master_seed, i); sweeps add the
    sweep-point index. The CLI draws a generated trace from (seed,), so
    ``sweep-blocks`` with generator flags draws its first permutation,
    (seed, 0, 0), from the same bits as its trace, and ``sweep-samples
    --model poisson`` its first window offset.
    """
    if master_seed < 0:
        raise ValueError("master_seed must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence((master_seed, *indices)))
