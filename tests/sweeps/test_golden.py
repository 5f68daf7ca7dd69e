"""Golden Figure-2 aggregate under Constraints #1, #2 and #3.

``figure2_micro_c123.json`` is the stdout of::

    python -m repro.cli sweep --experiment figure2 --preset micro \\
        --set constraints=1,2,3 --set engine=mcf --set method=add-prune \\
        --axis seed=0:12 --json

Every auction in it clears under the primary-path survivability
constraint, so it pins the Constraint #3 scenario generator, the
shortest paths under it and the MCF oracle's answers end to end.  These
tests re-run the sweep serially, once and then twice in one process
(the second run answers from the warm model memo, shared Constraint
#2/#3 verdicts included), and require the same bytes; CI's
``sweep-smoke`` job re-runs it on 2 workers and compares with ``cmp``.
"""

import pathlib

from repro.cli import main
from repro.netflow.model import get_model
from repro.resilience.chaos import micro_scenario

GOLDEN = pathlib.Path(__file__).with_name("figure2_micro_c123.json")
ARGS = [
    "sweep", "--experiment", "figure2", "--preset", "micro",
    "--set", "constraints=1,2,3", "--set", "engine=mcf",
    "--set", "method=add-prune", "--axis", "seed=0:12", "--json",
]


def test_serial_sweep_matches_golden(capsys):
    assert main(ARGS) == 0
    assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")


def test_memo_warm_rerun_matches_golden(capsys):
    network, _offers, tm = micro_scenario(0)
    model = get_model(network, tm)
    for _ in range(2):
        hits = model.survival_hits
        assert main(ARGS) == 0
        assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")
    # The second run reused verdicts the first one decided.
    assert model.survival_hits > hits
