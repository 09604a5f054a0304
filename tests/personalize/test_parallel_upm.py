"""Tests for the UPM worker-count contract.

Document-parallel sampling is the fast engine's process sharding, whose
bit-identity suite lives in ``test_fast_engine.py``; the reference engine
is the serial executable specification and refuses more than one worker.
"""

import pytest

from repro.personalize.upm import UPMConfig


class TestParallelGibbs:
    def test_n_workers_validated(self):
        with pytest.raises(ValueError):
            UPMConfig(n_workers=0)

    def test_reference_engine_rejects_workers(self):
        with pytest.raises(ValueError, match="engine='fast'"):
            UPMConfig(engine="reference", n_workers=2)
        assert UPMConfig(engine="reference", n_workers=1).n_workers == 1
        assert UPMConfig(engine="fast", n_workers=2).n_workers == 2
