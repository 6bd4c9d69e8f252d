"""Store epochs of the kind stores sealed before every store sealed csf.

A store reads `auxtable.STORE_AUX_BACKEND` at each write, at ingest and
in a merge; `store_seals` patches it for a block, so a test can write the
cuckoo epochs older stores left on a device (filterkv tables with their
Bloom, `pipeline.table_bloom_bits`) and read them beside csf ones.
"""

import contextlib

import pytest

from repro.core import auxtable


@contextlib.contextmanager
def store_seals(backend: str):
    """Every store write inside the block seals ``backend`` aux tables."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(auxtable, "STORE_AUX_BACKEND", backend)
        yield
