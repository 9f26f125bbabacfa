"""Reference snapshot for checkpoint tests: a per-rank value copy.

``CheckpointManager.take`` copies each all-ranks buffer once and hands
every rank a view of its rows; this is what it must be equivalent to —
every array of every rank copied on its own, scalars shared.
"""

import numpy as np


def copy_env(env: dict) -> dict:
    """Value copy of a rank environment (arrays copied, scalars shared)."""
    return {k: v.copy() if isinstance(v, np.ndarray) else v
            for k, v in env.items()}
