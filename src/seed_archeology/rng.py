"""Deterministic random streams shared by every module.

All randomness in this package flows through :class:`RngHandle`, a thin
wrapper around numpy's counter-based Philox bit generator.  A handle is
identified by a master seed and a stream index.  Handles with equal
``(master_seed, stream)`` produce identical draws on every platform, and
handles with distinct stream indices are statistically independent.  That
is what makes parallel experiment runs reproducible: trial ``t`` always
draws from stream ``t``, no matter which worker executes it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

__all__ = ["RngHandle", "DEFAULT_MASTER_SEED", "SEED_ENV_VAR", "master_seed_from_env"]

#: Master seed used when neither the caller nor the environment supplies one.
DEFAULT_MASTER_SEED = 112358

#: Environment variable that overrides the master seed at the CLI surface.
SEED_ENV_VAR = "SEED_ARCHEOLOGY_SEED"


def master_seed_from_env(fallback: int) -> int:
    """Return the master seed, letting ``SEED_ARCHEOLOGY_SEED`` win over `fallback`.

    Only the CLI consults the environment; library calls always take explicit
    seeds so that test outcomes cannot be perturbed from outside.
    """
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


@dataclass
class RngHandle:
    """A single-owner random stream.

    parameters
    ----------
    master_seed : int
        64-bit experiment-level seed.
    stream : int
        Stream index; parallel trials use their trial index here.

    Notes
    -----
    The handle is stateful (draws advance the stream) and must not be shared
    across workers.  Build one handle per trial, ``RngHandle(master_seed,
    trial)``, instead of passing one handle around.
    """

    master_seed: int
    stream: int = 0
    _generator: np.random.Generator | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator, created lazily."""
        if self._generator is None:
            seq = np.random.SeedSequence(
                entropy=self.master_seed, spawn_key=(self.stream,)
            )
            self._generator = np.random.Generator(np.random.Philox(seq))
        return self._generator
