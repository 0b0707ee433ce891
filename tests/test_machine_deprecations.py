"""The ``MachineConfig`` surface after the geometry redesign.

The pre-hierarchy ``cache=`` keyword is gone (``l2=`` or an explicit
``hierarchy=`` replaces it), and everything the repo's own callers use —
presets, ``scaled``, ``with_cpus``, ``replace``, the session facade —
stays warning-free, because CI runs an ``-W error::DeprecationWarning``
leg over them.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import pytest

from repro.api import Session
from repro.machine.config import (
    MACHINE_PRESETS,
    CacheConfig,
    MachineConfig,
)


def test_cache_keyword_is_gone():
    with pytest.raises(TypeError, match="cache"):
        MachineConfig(cache=CacheConfig(1024 * 1024, 128, 1))


class TestModernSurfaceIsWarningFree:
    """The spellings the repo's own callers use must never warn."""

    def assert_silent(self, fn):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            return fn()

    @pytest.mark.parametrize("name", sorted(MACHINE_PRESETS))
    def test_presets_scaled_with_cpus(self, name):
        preset = MACHINE_PRESETS[name]
        config = self.assert_silent(lambda: preset(4).scaled(16))
        self.assert_silent(lambda: config.with_cpus(8))
        self.assert_silent(lambda: MachineConfig.from_dict(config.to_dict()))

    def test_plain_constructions(self):
        self.assert_silent(MachineConfig)
        self.assert_silent(lambda: MachineConfig(num_cpus=8))
        self.assert_silent(
            lambda: MachineConfig(l2=CacheConfig(4 * 1024 * 1024, 128, 1))
        )

    def test_dataclass_replace(self):
        config = self.assert_silent(lambda: MACHINE_PRESETS["sgi_base"](2))
        self.assert_silent(
            lambda: replace(config, l2=CacheConfig(1024 * 1024, 128, 2))
        )
        sliced = self.assert_silent(
            lambda: MACHINE_PRESETS["sliced_llc_8x"](2)
        )
        self.assert_silent(lambda: replace(sliced, num_cpus=4))

    def test_session_machine_selection(self):
        session = self.assert_silent(
            lambda: Session("tomcatv", machine="three_level", cpus=4)
        )
        assert session.config.num_colors == 1024
        self.assert_silent(lambda: Session("tomcatv", cpus=4))
