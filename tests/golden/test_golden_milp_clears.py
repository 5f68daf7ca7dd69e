"""Golden exact clears: what the MILP engine decides on the micro scenario.

``golden_milp_clears.json`` pins two things:

- for each seed in ``SEEDS``, the SHA-256 of the canonical JSON of
  ``run_auction(offers, make_constraint(1, net, tm),
  config=AuctionConfig(method="milp"))`` on ``micro_scenario(seed)``: the
  sorted selected links and each provider's payment, leave-one-out cost
  and the external cost, every float as its ``repr``;
- the SHA-256 of the stdout of
  ``python -m repro.cli chaos --seed 7 --scenarios 6 --json``, whose
  primary engine is the MILP.

A change to how ``exact_selection`` builds or solves its model must leave
every optimum, and the tie-break among optima, as it was.

Regenerate (only when a change is meant to alter clearing results) with::

    PYTHONPATH=src python -m tests.golden.test_golden_milp_clears > tests/golden/golden_milp_clears.json
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.auction.constraints import make_constraint
from repro.auction.vcg import AuctionConfig, run_auction
from repro.resilience.chaos import micro_scenario

GOLDEN = pathlib.Path(__file__).with_name("golden_milp_clears.json")
SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
SEEDS = range(16)
CHAOS_ARGS = ("chaos", "--seed", "7", "--scenarios", "6", "--json")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def milp_clear(seed: int) -> str:
    """Canonical JSON of one exact micro clear under Constraint #1."""
    net, offers, tm = micro_scenario(seed)
    result = run_auction(
        offers, make_constraint(1, net, tm), config=AuctionConfig(method="milp")
    )
    return json.dumps({
        "selected": sorted(result.selected),
        "payments": {p: repr(result.providers[p].payment) for p in sorted(result.providers)},
        "leave_one_out_cost": {
            p: repr(cost) for p, cost in sorted(result.leave_one_out_cost.items())
        },
        "external_cost": repr(result.external_cost),
    }, sort_keys=True)


def chaos_stdout() -> str:
    """Stdout of the chaos CLI campaign, run as its own process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *CHAOS_ARGS],
        env=env, check=True, capture_output=True, text=True,
    )
    return done.stdout


def _seed_key(seed: int) -> str:
    return f"micro/c1/milp/seed={seed}"


CHAOS_KEY = "cli/" + " ".join(CHAOS_ARGS)


def golden_milp_clears() -> dict:
    digests = {_seed_key(seed): _sha256(milp_clear(seed)) for seed in SEEDS}
    digests[CHAOS_KEY] = _sha256(chaos_stdout())
    return digests


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_micro_clear_matches_golden(golden, seed):
    assert _sha256(milp_clear(seed)) == golden[_seed_key(seed)]


def test_chaos_cli_stdout_matches_golden(golden):
    assert _sha256(chaos_stdout()) == golden[CHAOS_KEY]


if __name__ == "__main__":
    from repro.cli import _silence_native_stdout

    with _silence_native_stdout():  # HiGHS writes to fd 1 from C++
        digests = golden_milp_clears()
    print(json.dumps(digests, indent=1, sort_keys=True))
