"""Golden :func:`run_campaign` reports.

A campaign is deterministic under a fixed seed, and every probe it makes
runs ``run_serving``, ``run_faulty`` or the static analyzer, so its
report is an end-to-end fingerprint of all three.  This module pins the
whole :meth:`CampaignResult.to_dict` report of:

* ``run_campaign(2, seed=0)``;
* ``run_campaign(3, seed=s)`` for s = 0..3;
* ``run_campaign(DualCube(3), seed=s, trials=16)`` for s = 0, 1 (the
  calls perfbench's ``campaign_d3`` workload times).

``--write`` only appends the cases ``campaign_golden.json`` lacks; it
never rewrites a recorded one.  To change a report on purpose, delete
its entry by hand, say why in CHANGES.md, and run::

    PYTHONPATH=src python tests/simulator/test_campaign_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.simulator.campaign import run_campaign

GOLDEN = Path(__file__).with_name("campaign_golden.json")

# case -> (n, seed, trials); trials None keeps run_campaign's default.
CASES = {
    "n2-seed0": (2, 0, None),
    **{f"n3-seed{s}": (3, s, None) for s in range(4)},
    **{f"n3-seed{s}-trials16": (3, s, 16) for s in (0, 1)},
}


def _report(case: str) -> dict:
    n, seed, trials = CASES[case]
    kwargs = {} if trials is None else {"trials": trials}
    report = run_campaign(n, seed=seed, **kwargs).to_dict()
    return json.loads(json.dumps(report))


def _load() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_the_cases():
    assert sorted(_load()) == sorted(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_campaign_report_matches_golden(case):
    got = _report(case)
    want = _load()[case]
    for key in want:
        assert got[key] == want[key], f"{case}: {key} differs"
    assert got == want


def _write() -> None:
    """Append the cases ``campaign_golden.json`` lacks; keep the rest."""
    have = _load() if GOLDEN.exists() else {}
    lines = [
        f"{json.dumps(case)}: "
        f"{json.dumps(_report(case), sort_keys=True, separators=(',', ':'))}"
        for case in CASES
        if case not in have
    ]
    if not lines:
        return
    body = GOLDEN.read_text().rstrip() if GOLDEN.exists() else "{}"
    if not body.endswith("}"):
        sys.exit(f"{GOLDEN}: does not end with '}}'; fix it by hand")
    body = body[:-1].rstrip().rstrip(",")
    sep = "\n" if body == "{" else ",\n"
    GOLDEN.write_text(body + sep + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_campaign_golden.py --write")
    _write()
