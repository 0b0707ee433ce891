"""Scalar hit filter vs the oracle on tomcatv, one case per coherence hazard.

The module name dates from the columnar epoch kernel, which has since been
removed; the scalar filter it was compared against is now the only fast
path.  These cases keep their original test ids and pin that path against
the ``fast_path=False`` oracle on the variants that stress it hardest:
coherence layouts (cdpc), mid-reference TLB fills (prefetch_fills_tlb) and
fault races (fault_race), plus the plain page-coloring baseline.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.machine.config import sgi_base
from repro.sim.engine import EngineOptions, run_benchmark
from repro.sim.tracegen import SimProfile

from tests.test_fast_path_equivalence import VARIANTS

CONFIG = sgi_base(4).scaled(16)


@pytest.mark.parametrize(
    "label", ["page_coloring", "cdpc", "prefetch_fills_tlb", "fault_race"]
)
def test_scalar_filter_still_matches_oracle(label):
    """``fast_path=True`` runs the per-reference scalar filter."""
    base = EngineOptions(profile=SimProfile.fast(), **VARIANTS[label])
    scalar = run_benchmark(
        "tomcatv", CONFIG, replace(base, fast_path=True, trace_cache=True)
    )
    reference = run_benchmark(
        "tomcatv", CONFIG, replace(base, fast_path=False, trace_cache=False)
    )
    assert scalar.to_dict() == reference.to_dict()
