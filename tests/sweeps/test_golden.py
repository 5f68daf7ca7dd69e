"""Golden Figure-2 aggregate under Constraints #1, #2 and #3.

``figure2_micro_c123.json`` is the stdout of::

    python -m repro.cli sweep --experiment figure2 --preset micro \\
        --set constraints=1,2,3 --set engine=mcf --set method=add-prune \\
        --axis seed=0:12 --json

Every auction in it clears under the primary-path survivability
constraint, so it pins the Constraint #3 scenario generator, the
shortest paths under it and the MCF oracle's answers end to end.  This
test re-runs the sweep serially and requires the same bytes; CI's
``sweep-smoke`` job re-runs it on 2 workers and compares with ``cmp``.
"""

import pathlib

from repro.cli import main

GOLDEN = pathlib.Path(__file__).with_name("figure2_micro_c123.json")
ARGS = [
    "sweep", "--experiment", "figure2", "--preset", "micro",
    "--set", "constraints=1,2,3", "--set", "engine=mcf",
    "--set", "method=add-prune", "--axis", "seed=0:12", "--json",
]


def test_serial_sweep_matches_golden(capsys):
    assert main(ARGS) == 0
    assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")
