"""Golden clears at tiny-zoo and continental scale.

``golden_clears.json`` pins, byte for byte, what the auction decides on
workloads larger than the micro topology:

- tiny zoo #131704 (``mcf`` oracle, ``add-prune``): the selection and
  payments of the Figure-2 clear under Constraint #1 at loads 0.015,
  0.02 and 0.03, and under Constraint #2 at 0.02;
- the continental smoke preset (seed 2026, pay-as-bid, ``mcf``): the
  ``canonical_json()`` of the sharded clear for offer seeds 0-3 under
  ``greedy-drop`` and ``add-prune``.

Regenerate (only when a change is meant to alter clearing results) with::

    PYTHONPATH=src python -m tests.golden.test_golden_clears > tests/golden/golden_clears.json
"""

import json
import pathlib

import pytest

from repro.auction.sharded import clear_sharded_spec
from repro.experiments.figure2 import Figure2Config, run_figure2

GOLDEN = pathlib.Path(__file__).with_name("golden_clears.json")
TINY_ZOO_SEED = 131704
TINY_CASES = [(1, 0.015), (1, 0.02), (1, 0.03), (2, 0.02)]
SMOKE_CASES = [(method, offer_seed)
               for method in ("greedy-drop", "add-prune") for offer_seed in range(4)]


def tiny_clear(constraint: int, load: float) -> str:
    """Canonical JSON of one tiny-zoo clear's selection and payments."""
    figure = run_figure2(Figure2Config(
        preset="tiny", seed=TINY_ZOO_SEED, constraints=(constraint,),
        engines={constraint: "mcf"}, method="add-prune", load_fraction=load,
    ))
    (result,) = figure.results.values()
    return json.dumps({
        "selected": sorted(result.selected),
        "payments": {p: result.providers[p].payment for p in sorted(result.providers)},
        "external_cost": result.external_cost,
    }, sort_keys=True)


def smoke_clear(method: str, offer_seed: int) -> str:
    """``canonical_json()`` of one continental smoke clear."""
    return clear_sharded_spec(
        "smoke", 2026, engine="mcf", method=method, offer_seed=offer_seed
    ).canonical_json()


def _tiny_key(constraint: int, load: float) -> str:
    return f"tiny/c{constraint}/load={load}"


def _smoke_key(method: str, offer_seed: int) -> str:
    return f"smoke/{method}/offer_seed={offer_seed}"


def golden_clears() -> dict:
    clears = {_tiny_key(c, load): tiny_clear(c, load) for c, load in TINY_CASES}
    clears.update({_smoke_key(m, s): smoke_clear(m, s) for m, s in SMOKE_CASES})
    return clears


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("constraint,load", TINY_CASES)
def test_tiny_zoo_clear_matches_golden(golden, constraint, load):
    assert tiny_clear(constraint, load) == golden[_tiny_key(constraint, load)]


@pytest.mark.parametrize("method,offer_seed", SMOKE_CASES)
def test_continental_smoke_clear_matches_golden(golden, method, offer_seed):
    assert smoke_clear(method, offer_seed) == golden[_smoke_key(method, offer_seed)]


if __name__ == "__main__":
    print(json.dumps(golden_clears(), indent=1, sort_keys=True))
