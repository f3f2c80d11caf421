"""``Report.require``: a check passes when it has no offenders, and a
failing check's witness is its smallest offender as printed, whatever the
hash seed."""

import os
import pathlib
import subprocess
import sys

import pytest

from bruhatcells.report import Report

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("offenders", [[], set(), (x for x in ())])
def test_no_offenders_pass_without_witness(offenders):
    rep = Report("r")
    rep.require("s", "c", "EXACT", offenders)
    (r,) = rep.results
    assert r.passed and r.witness is None
    assert rep.to_dict()["results"] == [
        {"subject": "s", "check": "c", "kind": "EXACT", "passed": True, "witness": None}
    ]


def test_witness_is_smallest_formatted_offender():
    rep = Report("r")
    rep.require("s", "c", "SOUND", {9, 10, 30})
    rep.require("s", "d", "SOUND", (x for x in (3, 1, 2)), lambda x: f"<{10 - x}>")
    assert [(r.passed, r.witness) for r in rep.results] == [
        (False, "10"),  # as printed, "10" < "30" < "9"
        (False, "<7>"),  # the offender 3
    ]
    assert rep.to_text().splitlines()[1:] == [
        "[SOUND] s c: FAIL  witness=10",
        "[SOUND] s d: FAIL  witness=<7>",
        "result: FAIL",
    ]


# Each script breaks one input of a suite, so several elements offend, and
# prints the report.  The witness must not follow the set iteration order.
FORCED_FAILURES = {
    "m-classification": """
from bruhatcells import conjugacy
full = conjugacy.catalog_subsets
conjugacy.catalog_subsets = lambda t: sorted(full(t), key=sorted)[::2]
print(conjugacy.verify_unique_max_classification("E6").to_text())
""",
    "ascent": """
from bruhatcells import conjugacy
classes = conjugacy.conjugacy_classes
conjugacy.conjugacy_classes = lambda rs: [
    conjugacy.ConjugacyClass(
        c.representative, len(c), c.min_length, c.min_length, c.delta
    )
    for c in classes(rs)
]
conjugacy._strong_component = lambda rs, stratum: {stratum[0]}
print(conjugacy.verify_ascent_classes("B3").to_text())
""",
}


@pytest.mark.parametrize("suite", sorted(FORCED_FAILURES))
def test_forced_failure_witness_ignores_hash_seed(suite):
    outputs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", FORCED_FAILURES[suite]],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs
    out = outputs.pop()
    failed = [line for line in out.splitlines() if ": FAIL  witness=" in line]
    assert failed
    if suite == "ascent":
        assert any("ascent-to-maximal" in line for line in failed)
        assert any("maxima-strongly-linked" in line for line in failed)
