"""Representative execution windows (Section 3.2).

Full SPEC95fp runs are far too long to simulate in detail, so the paper
simulates a *representative execution window*: a slice of the steady state
containing each phase at least once, with per-phase statistics weighted by
the phase's occurrence count in the full steady state, and the first
(cold) execution of each phase discarded.  This module provides that
windowing plus the variation check used to validate that phases behave
consistently across occurrences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.compiler.ir import Phase, Program


@dataclass(frozen=True)
class PhaseWindow:
    """A steady-state window: warmup pass + weighted measured phases."""

    warmup: tuple[Phase, ...]
    measured: tuple[Phase, ...]
    weights: tuple[int, ...]

    @property
    def total_occurrences(self) -> int:
        return sum(self.weights)

    def weight_of(self, phase: Phase) -> int:
        for candidate, weight in zip(self.measured, self.weights):
            if candidate is phase:
                return weight
        raise KeyError(phase.name)


def representative_window(program: Program) -> PhaseWindow:
    """Window containing each phase once, weighted by its occurrences.

    The warmup pass runs every phase once with statistics discarded,
    eliminating cold misses and other transient effects exactly as the
    paper discards the first phases executed with the detailed simulator.
    """
    phases = program.phases
    return PhaseWindow(
        warmup=tuple(phases),
        measured=tuple(phases),
        weights=tuple(phase.occurrences for phase in phases),
    )


def occurrence_variation(values: Sequence[float]) -> tuple[float, float, float]:
    """Mean, standard deviation and coefficient of variation of a metric.

    Used to validate the representative-window assumption: the paper found
    the per-occurrence instruction counts and miss rates of every phase
    (except one wave5 phase) vary by less than 1% of the mean.
    """
    if not values:
        raise ValueError("need at least one sample")
    mean = sum(values) / len(values)
    if len(values) == 1:
        return mean, 0.0, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    std = math.sqrt(variance)
    cv = std / mean if mean else 0.0
    return mean, std, cv
