"""Tests for the typed REPRO_* env-var registry in repro.core.config."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core.config import (
    ENV_REGISTRY,
    EnvVar,
    default_shards,
    env_bool,
    env_float,
    env_int,
    env_override,
    env_table_markdown,
    env_var,
    shm_transport_enabled,
    soak_requests,
    stream_default_churn,
    stream_patch_enabled,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

ALL_NAMES = tuple(var.name for var in ENV_REGISTRY)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch: pytest.MonkeyPatch) -> None:
    for name in ALL_NAMES:
        monkeypatch.delenv(name, raising=False)


# ----------------------------------------------------------------------
# Registry shape
# ----------------------------------------------------------------------
def test_registry_names_are_unique_and_prefixed() -> None:
    assert len(set(ALL_NAMES)) == len(ALL_NAMES)
    assert all(name.startswith("REPRO_") for name in ALL_NAMES)


def test_registry_rows_are_self_validating() -> None:
    with pytest.raises(ValueError):
        EnvVar(name="REPRO_X", kind="complex", default=1, description="?")
    with pytest.raises(ValueError):
        EnvVar(name="OTHER_X", kind="int", default=1, description="?")


def test_undeclared_names_fail_loudly() -> None:
    with pytest.raises(KeyError):
        env_var("REPRO_NOT_A_THING")
    with pytest.raises(KeyError):
        env_int("REPRO_NOT_A_THING")


# ----------------------------------------------------------------------
# Parsing, defaults and clamping
# ----------------------------------------------------------------------
def test_defaults_without_environment() -> None:
    assert default_shards() == 4
    assert stream_patch_enabled() is True
    assert shm_transport_enabled() is True
    assert stream_default_churn() == pytest.approx(0.05)
    assert soak_requests() == 600


def test_int_parsing_and_minimum_clamp(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    monkeypatch.setenv("REPRO_SHARDS", "6")
    assert default_shards() == 6
    monkeypatch.setenv("REPRO_SHARDS", "0")
    assert default_shards() == 1  # clamped to minimum
    monkeypatch.setenv("REPRO_SHARDS", "-3")
    assert default_shards() == 1


def test_float_parsing_and_minimum_clamp(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    monkeypatch.setenv("REPRO_STREAM_CHURN", "1.5")
    assert stream_default_churn() == pytest.approx(1.5)
    monkeypatch.setenv("REPRO_STREAM_CHURN", "-0.5")
    assert stream_default_churn() == 0.0


@pytest.mark.parametrize("word", ["1", "true", "YES", " on "])
def test_bool_true_words(
    monkeypatch: pytest.MonkeyPatch, word: str
) -> None:
    monkeypatch.setenv("REPRO_STREAM_PATCH", word)
    assert stream_patch_enabled() is True


@pytest.mark.parametrize("word", ["0", "false", "No", "off", ""])
def test_bool_false_words(
    monkeypatch: pytest.MonkeyPatch, word: str
) -> None:
    monkeypatch.setenv("REPRO_SHM", word)
    assert shm_transport_enabled() is False


def test_garbage_values_raise(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setenv("REPRO_SOAK_REQUESTS", "many")
    with pytest.raises(ValueError, match="REPRO_SOAK_REQUESTS"):
        soak_requests()
    monkeypatch.setenv("REPRO_STREAM_CHURN", "big")
    with pytest.raises(ValueError, match="REPRO_STREAM_CHURN"):
        stream_default_churn()
    monkeypatch.setenv("REPRO_SHM", "maybe")
    with pytest.raises(ValueError, match="REPRO_SHM"):
        shm_transport_enabled()


def test_env_bool_and_friends_accept_any_registered_name() -> None:
    assert env_bool("REPRO_STREAM_PATCH") is True
    assert env_int("REPRO_SHARDS") == 4
    assert env_float("REPRO_STREAM_CHURN") == pytest.approx(0.05)


# ----------------------------------------------------------------------
# env_override
# ----------------------------------------------------------------------
def test_env_override_sets_and_restores_absent_variable() -> None:
    assert "REPRO_SHM" not in os.environ
    with env_override("REPRO_SHM", "0"):
        assert os.environ["REPRO_SHM"] == "0"
        assert shm_transport_enabled() is False
    assert "REPRO_SHM" not in os.environ


def test_env_override_restores_previous_value(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    monkeypatch.setenv("REPRO_SHARDS", "4")
    with env_override("REPRO_SHARDS", 8):
        assert default_shards() == 8
    assert default_shards() == 4


def test_env_override_none_unsets(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    monkeypatch.setenv("REPRO_SOAK_REQUESTS", "5")
    with env_override("REPRO_SOAK_REQUESTS", None):
        assert soak_requests() == 600  # default while unset
    assert soak_requests() == 5


def test_env_override_restores_on_error(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    monkeypatch.setenv("REPRO_STREAM_CHURN", "2.0")
    with pytest.raises(RuntimeError):
        with env_override("REPRO_STREAM_CHURN", "0.5"):
            raise RuntimeError("boom")
    assert os.environ["REPRO_STREAM_CHURN"] == "2.0"


def test_env_override_rejects_undeclared_names() -> None:
    with pytest.raises(KeyError):
        with env_override("REPRO_NOT_A_THING", "1"):
            pass


# ----------------------------------------------------------------------
# The generated documentation table
# ----------------------------------------------------------------------
def test_env_table_lists_every_variable() -> None:
    table = env_table_markdown()
    for name in ALL_NAMES:
        assert f"`{name}`" in table


def test_readme_env_table_is_in_sync() -> None:
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for line in env_table_markdown().splitlines():
        assert line in readme, (
            "README env-var table is stale; regenerate it with "
            "'python -m repro.analysis --env-table'"
        )
