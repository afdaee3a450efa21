"""Reproducibility of the seeded stream handles."""

import numpy as np
import pytest

from seed_archeology.rng import (
    DEFAULT_MASTER_SEED,
    SEED_ENV_VAR,
    RngHandle,
    master_seed_from_env,
)


def test_same_seed_same_stream_same_draws():
    a = RngHandle(1234, 7).generator.integers(0, 1 << 60, size=8)
    b = RngHandle(1234, 7).generator.integers(0, 1 << 60, size=8)
    assert np.array_equal(a, b)


def test_different_streams_differ():
    a = RngHandle(1234, 0).generator.integers(0, 1 << 60, size=8)
    b = RngHandle(1234, 1).generator.integers(0, 1 << 60, size=8)
    assert not np.array_equal(a, b)


def test_different_master_seeds_differ():
    a = RngHandle(1, 0).generator.integers(0, 1 << 60, size=8)
    b = RngHandle(2, 0).generator.integers(0, 1 << 60, size=8)
    assert not np.array_equal(a, b)


def test_generator_is_cached():
    handle = RngHandle(5, 0)
    assert handle.generator is handle.generator


@pytest.mark.parametrize(
    ("master_seed", "stream", "field"),
    [(-5, 0, "master_seed"), (5, -1, "stream")],
    ids=["master_seed", "stream"],
)
def test_negative_seed_or_stream_rejected(master_seed, stream, field):
    # Checked at construction, before any draw, and named.
    with pytest.raises(ValueError, match=f"{field} must be >= 0, got -"):
        RngHandle(master_seed, stream)


def test_env_seed_absent_uses_fallback(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert master_seed_from_env(DEFAULT_MASTER_SEED) == DEFAULT_MASTER_SEED


def test_env_seed_overrides_fallback(monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "424243")
    assert master_seed_from_env(DEFAULT_MASTER_SEED) == 424243


def test_env_seed_must_be_integer(monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    with pytest.raises(ValueError, match=SEED_ENV_VAR):
        master_seed_from_env(0)
