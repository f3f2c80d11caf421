"""The four benchmark workloads: task lists, their execution and digests.

Each workload is a list of tasks.  A task calls public bruhatcells
functions and returns its user-visible output as plain JSON data; the
benchmark reduces that output to a digest and compares it with the value
recorded at the seed commit (``expected.json``).  Task ids are stable and
independent of the seed, which only shuffles the task order.

``full`` is the timed size, chosen so that one pass takes about five
seconds on a 2-CPU host and a run can take the median of several passes;
``tiny`` is the self-test:

* classify -- the three Weyl-group suites of the unique-maximal involution
  classification on E6 and D6 (A3, B3 tiny).  Whole-group enumeration and
  generator-step orbit growth dominate.
* verify -- ``bruhatcells verify --type T --format json`` with every
  applicable suite, for each type with |W| <= 384 (A3 tiny).  The
  strong-conjugation scans, i.e. full Weyl-element products, dominate.
* oracle -- ``intersection_table`` then ``validate_class`` for every field
  class at every pair of ``DEFAULT_PAIRS`` (only (2, 3) tiny).
* criteria -- the SL(n+1) Jordan-data criteria for every abstract class of
  degree 2..6, then ``closure_monotonicity`` on all ordered pairs of
  classes of degree 5 (degrees 2..4, pairs of degree 4 tiny).  Mostly cold
  type-A Bruhat queries.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

import bruhatcells as bc
from bruhatcells import cli

CLASSIFY_TYPES = {"full": ("E6", "D6"), "tiny": ("A3", "B3")}
# Suites are looked up by name at call time, so a traced pass sees its spans.
CLASSIFY_SUITES = {
    "classification": "verify_unique_max_classification",
    "twisted_min": "verify_twisted_minimum",
    "coxeter_bound": "verify_coxeter_bound",
}
VERIFY_TYPES = {
    "full": ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2"),
    "tiny": ("A3",),
}
ORACLE_PAIRS = {"full": bc.DEFAULT_PAIRS, "tiny": ((2, 3),)}
# (degrees of the per-class criteria, degree of the closure pairs)
CRITERIA = {"full": ((2, 3, 4, 5, 6), 5), "tiny": ((2, 3, 4), 4)}


class Task:
    """One unit of work: ``run()`` makes the API calls and returns a raw
    result; ``output(raw)`` turns it into JSON data outside the timed region;
    ``problems(raw)`` lists failed checks."""

    def __init__(self, tid, run, output, problems=lambda raw: []):
        self.tid = tid
        self.run = run
        self.output = output
        self.problems = problems


def digest(data) -> str:
    text = data if isinstance(data, str) else json.dumps(
        data, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _report_problems(*reports):
    return [
        f"{r.name}: {c.check}" for r in reports for c in r.results if not c.passed
    ]


# Each builder returns phases that run in order; a phase is a list of units
# whose order the seed shuffles; a unit is a list of tasks run in order.


def _classify_tasks(size):
    units = []
    for t in CLASSIFY_TYPES[size]:
        bc.build_root_system(t)
        units.append([
            Task(
                f"classify:{t}:{suite}",
                lambda fn=fn, t=t: getattr(bc, fn)(t),
                _classification_output(t) if suite == "classification"
                else lambda rep: rep.to_dict(),
                _report_problems,
            )
            for suite, fn in CLASSIFY_SUITES.items()
        ])
    return [units]


def _classification_output(t):
    def output(rep):
        rs = bc.build_root_system(t)
        members = bc.unique_max_involutions(rs).members
        return {
            "report": rep.to_dict(),
            "members": sorted(bc.element_to_word_str(m) for m in members),
            "involutions": sum(len(c) for c in bc.involution_classes(rs)),
        }

    return output


def _verify_tasks(size):
    units = []
    for t in VERIFY_TYPES[size]:
        bc.build_root_system(t)
        units.append([
            Task(f"verify:{t}", lambda t=t: _run_cli(t), lambda raw: raw[1],
                 _cli_problems)
        ])
    return [units]


def _run_cli(t):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--type", t, "--format", "json"])
    return code, buf.getvalue()


def _cli_problems(raw):
    code, text = raw
    out = [f"exit code {code}"] if code != 0 else []
    for rep in json.loads(text)["reports"]:
        out += [f"{rep['name']}: {r['check']}" for r in rep["results"] if not r["passed"]]
    return out


def _oracle_tasks(size):
    units = []
    for n, p in ORACLE_PAIRS[size]:
        bc.PrimeField(p)
        bc.build_root_system(f"A{n - 1}")
        fatal = ("SOUND", "COMPLETE") if (n, p) in bc.COMPLETE_PAIRS else ("SOUND",)
        for c in bc.field_classes(n, p):
            units.append([
                Task(
                    f"oracle:{n},{p}:{c.describe()}",
                    lambda c=c, p=p: _oracle_run(c, p),
                    _oracle_output,
                    lambda raw, fatal=fatal: [
                        f"{raw[1].name}: {r.check}" for r in raw[1].failed(fatal)
                    ],
                )
            ])
    return [units]


def _oracle_run(c, p):
    table = bc.intersection_table(c, p)
    return table, bc.validate_class(c, p, table)


def _oracle_output(raw):
    table, rep = raw
    return {
        "orbit_size": table.orbit_size,
        "cells": [w.cycle_string() for w in table.sorted_cells()],
        "opposite_cells": [w.cycle_string() for w in table.sorted_opposite()],
        "bruhat_max": table.bruhat_max.cycle_string() if table.bruhat_max else None,
        "report": rep.to_dict(),
    }


def _criteria_tasks(size):
    degrees, closure_degree = CRITERIA[size]
    class_units = []
    for d in degrees:
        bc.build_root_system(f"A{d - 1}")
        invs = tuple(bc.involutions(d))
        lams = tuple(bc.partitions_of(d))
        classes = tuple(bc.abstract_jordan_classes(d))
        if d == closure_degree:
            pair_classes = classes
        for c in classes:
            class_units.append([
                Task(
                    f"criteria:{d}:{c.describe()}",
                    lambda c=c, invs=invs, lams=lams: (
                        [bc.involution_cell_meets(c, w) for w in invs],
                        [bc.weyl_class_inside(c, lam) for lam in lams],
                        bc.bruhat_lower_set(c),
                    ),
                    _criteria_output,
                )
            ])
    closure_units = [
        [
            Task(
                f"closure:{closure_degree}:{inner.describe()}",
                lambda inner=inner: [
                    bc.closure_monotonicity(inner, outer) for outer in pair_classes
                ],
                lambda raw: [
                    [r.cap_monotone, r.cells_monotone, r.dense_elements_comparable]
                    for r in raw
                ],
            )
        ]
        for inner in pair_classes
    ]
    return [class_units, closure_units]


def _criteria_output(raw):
    meets, inside, lower = raw
    return {
        "meets": meets,
        "inside": inside,
        "lower_set_size": len(lower),
        "lower_set": digest(sorted(w.images for w in lower)),
    }


_BUILDERS = {
    "classify": _classify_tasks,
    "verify": _verify_tasks,
    "oracle": _oracle_tasks,
    "criteria": _criteria_tasks,
}


def build_tasks(workload: str, size: str, seed: int) -> list[Task]:
    """The workload's tasks in a seed-chosen order."""
    rng = random.Random(seed)
    tasks = []
    for units in _BUILDERS[workload](size):
        rng.shuffle(units)
        tasks += [task for unit in units for task in unit]
    return tasks
