"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from datetime import datetime, timedelta

import pytest
from hypothesis import settings

from repro.core.records import FailureLog, FailureRecord
from repro.synth import generate_log

# Property tests draw the same examples on every run (seeded from each
# test function; no example database), so a tier-1 result repeats run
# to run.  To explore fresh examples, select hypothesis's own default
# profile: ``--hypothesis-profile default [--hypothesis-seed N]``.
settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")

#: A fixed origin for hand-built logs.
T0 = datetime(2020, 1, 1)


def make_record(
    record_id: int = 0,
    hours: float = 0.0,
    node_id: int = 0,
    category: str = "GPU",
    ttr_hours: float = 10.0,
    gpus_involved: tuple[int, ...] = (),
    root_locus: str | None = None,
) -> FailureRecord:
    """Build a record ``hours`` after T0 with compact defaults."""
    return FailureRecord(
        record_id=record_id,
        timestamp=T0 + timedelta(hours=hours),
        node_id=node_id,
        category=category,
        ttr_hours=ttr_hours,
        gpus_involved=gpus_involved,
        root_locus=root_locus,
    )


def make_log(
    records: list[FailureRecord],
    machine: str = "tsubame2",
    span_hours: float = 1000.0,
    strict_taxonomy: bool = True,
) -> FailureLog:
    """Build a log over [T0, T0 + span] from hand-built records."""
    return FailureLog(
        machine=machine,
        records=tuple(records),
        window_start=T0,
        window_end=T0 + timedelta(hours=span_hours),
        _strict_taxonomy=strict_taxonomy,
    )


@pytest.fixture(scope="session")
def t2_log() -> FailureLog:
    """The calibrated Tsubame-2 log used across the suite (seed 42)."""
    return generate_log("tsubame2", seed=42)


@pytest.fixture(scope="session")
def t3_log() -> FailureLog:
    """The calibrated Tsubame-3 log used across the suite (seed 42)."""
    return generate_log("tsubame3", seed=42)
