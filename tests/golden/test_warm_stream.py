"""Golden warm stream: continental smoke clears made back to back in one process.

Every smoke clear of one topology seed asks the same process-wide
``McfModel`` instances its yes/no feasibility questions, so what the
models remember (memo, certificates, the verdict index) depends on every
clear the process made before.  The answers must not: ``warm_stream.json``
pins the ``canonical_json()`` SHA-256 of each clear in a stream of
consecutive smoke clears (seed 2026, ``mcf``, ``greedy-drop``, pay-as-bid)
for the offer seeds in ``OFFER_SEEDS``.  The stream is checked twice in
one process: first from an empty model cache, then again with every
model warm from the first pass.

Regenerate (only when a change is meant to alter clearing results) with::

    PYTHONPATH=src python -m tests.golden.test_warm_stream > tests/golden/warm_stream.json
"""

import hashlib
import json
import pathlib

from repro.auction.sharded import clear_sharded_spec
from repro.netflow.model import model_cache

GOLDEN = pathlib.Path(__file__).with_name("warm_stream.json")
OFFER_SEEDS = range(1000, 1032)


def stream_digests() -> dict:
    """Offer seed → SHA-256 of its clear's ``canonical_json()``, cleared in order."""
    return {
        str(offer_seed): hashlib.sha256(clear_sharded_spec(
            "smoke", 2026, engine="mcf", method="greedy-drop", offer_seed=offer_seed,
        ).canonical_json().encode()).hexdigest()
        for offer_seed in OFFER_SEEDS
    }


def test_cold_then_warm_stream_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    model_cache().clear()
    assert stream_digests() == golden  # cold: every model built by this stream
    assert stream_digests() == golden  # warm: every model remembers the first pass


if __name__ == "__main__":
    print(json.dumps(stream_digests(), indent=1, sort_keys=True))
