import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

from bruhatcells import conjugacy, coxeter
from bruhatcells.cli import build_parser, main
from bruhatcells.conjugacy import _catalog_guard, catalog_subsets
from bruhatcells.coxeter import (
    CartanType,
    build_root_system,
    bruhat_leq,
)
from bruhatcells.errors import GuardError
from bruhatcells.permutations import bruhat_leq_perm, length_order, permutation_to_weyl
from bruhatcells.sl_criteria import (
    JordanClass,
    abstract_jordan_classes,
    bruhat_lower_set,
    dense_cell_involution,
)

TRANSVECTION4 = {
    "n_plus_1": 4,
    "eigen_data": [{"label": "u", "blocks": [2, 1, 1]}],
    "values": {"u": 1},
}
# eigenvalues 2, 3 and a 2-block at 4 over F_5
REGULAR4_F5 = {
    "n_plus_1": 4,
    "eigen_data": [
        {"label": "a", "blocks": [1]},
        {"label": "b", "blocks": [1]},
        {"label": "c", "blocks": [2]},
    ],
    "values": {"a": 2, "b": 3, "c": 4},
}
SL2_TRANSVECTION = {
    "n_plus_1": 2,
    "eigen_data": [{"label": "u", "blocks": [2]}],
    "values": {"u": 1},
}


@pytest.fixture
def jordan_file(tmp_path):
    def write(payload, name="class.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


class TestCatalog:
    def test_g2_has_four_entries(self, capsys):
        assert main(["catalog", "--type", "G2"]) == 0
        out = capsys.readouterr().out
        assert "4 entries" in out

    def test_json_format(self, capsys):
        assert main(["catalog", "--type", "A3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["type"] == "A3"
        elements = {e["element"] for e in data["entries"]}
        assert elements == {"e", "(1 4)", "(1 4)(2 3)"}

    def test_bad_type_is_usage_error(self, capsys):
        assert main(["catalog", "--type", "H3"]) == 2

    @pytest.mark.parametrize("t", ["A150"])
    def test_large_rank_is_refused_with_its_cost(self, capsys, t):
        assert main(["catalog", "--type", t]) == 2
        err = capsys.readouterr().err
        assert re.search(
            r"about [\d,.]+ s of CPU time, above the 5 s limit: 77 walks of up to "
            r"N = 11,325 steps of rank 150, at [\d.]+ ns per step and rank",
            err,
        )

    @pytest.mark.parametrize(
        "t, walks",
        [("A100000", "at least 3 walks of up to N = 5,000,050,000 steps of rank 100000"),
         ("B5000", "at least 3 walks of up to N = 25,000,000 steps of rank 5000")],
        ids=["A100000", "B5000"],
    )
    def test_huge_rank_is_refused_before_the_subsets(self, capsys, monkeypatch, t, walks):
        # catalog_subsets holds rank^2 integers, so the guard runs first
        def no_subsets(t):
            raise AssertionError(f"built the catalog subsets of {t}")

        monkeypatch.setattr(conjugacy, "catalog_subsets", no_subsets)
        start = time.process_time()
        assert main(["catalog", "--type", t]) == 2
        assert time.process_time() - start < 1
        err = capsys.readouterr().err
        assert re.search(r"about [\d,.]+ s of CPU time, above the 5 s limit", err)
        assert walks in err

    def test_rank_limits(self):
        # A69, B37, C37 and D41 were the largest ranks of the rank^5 fit that
        # this guard replaced; the walk takes 0.4-0.6 s of CPU on each
        for t in ("A69", "B37", "C37", "D41", "E8", "F4", "G2"):
            t = CartanType.from_string(t)
            _catalog_guard(t, len(catalog_subsets(t)))
        with pytest.raises(GuardError, match="A150 would take about"):
            t = CartanType.from_string("A150")
            _catalog_guard(t, len(catalog_subsets(t)))

    # SHA-256 of `catalog --type T --format json` as printed by the CLI that
    # built the root system and walked Weyl elements on it
    @pytest.mark.parametrize(
        "t, digest",
        [
            ("A53", "9d6dd3c294c3bc8d9ab7b53ad7a7736ac7cdf144cf7115e1024a12100c08cbe5"),
            ("A69", "26bd3eee9e88670ec49ae55acb0af6bfdc355127074846c2f09d43c92a69c1a3"),
            ("B37", "4b320c7f42d7c8a4ffac6ce6d34dabf734a47f3a7eb073406fa951c559ac3736"),
            ("C37", "aeb272b768ab6b1feedeab98e1d1dc60c0280487f7964d8703483c31c66e3293"),
            ("D41", "a77b123ebab1d6e43f0523fc258c3f84b5251fe08b11cb275d3ecb0727f90cff"),
        ],
    )
    def test_json_matches_the_root_system_catalog(self, capsys, t, digest):
        assert main(["catalog", "--type", t, "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_builds_no_root_system(self, capsys, monkeypatch):
        def no_build(*args):
            raise AssertionError("built a root system")

        monkeypatch.setattr(coxeter.RootSystem, "__init__", no_build)
        monkeypatch.setattr(coxeter, "_build_cached", no_build)
        for t in ("A3", "B12", "D5", "E8", "F4", "G2"):
            assert main(["catalog", "--type", t]) == 0
            assert main(["catalog", "--type", t, "--format", "json"]) == 0
        assert capsys.readouterr().err == ""


class TestVerify:
    def test_a3_single_check(self, capsys):
        assert main(["verify", "--type", "A3", "--checks", "m-classification"]) == 0
        assert "result: pass" in capsys.readouterr().out

    def test_f4_all(self, capsys):
        assert main(["verify", "--type", "F4"]) == 0

    def test_more_than_256_roots_is_refused(self, capsys):
        # the order guard is lifted, so the root system is what refuses A16
        args = ["verify", "--type", "A16", "--checks", "ascent", "--allow-large"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "check ascent refused: A16 has 272 roots, more than the 256" in err

    def test_e8_guard(self, capsys):
        # E8 is guarded only where W is walked: the ascent suite
        assert main(["verify", "--type", "E8", "--checks", "ascent"]) == 2
        err = capsys.readouterr().err
        assert "check ascent refused: |W(E8)| = 696729600 exceeds 10000" in err

    def test_unknown_check(self, capsys):
        assert main(["verify", "--type", "A3", "--checks", "nonsense"]) == 2

    def test_empty_selection_is_usage_error(self, capsys):
        assert main(["verify", "--type", "A3", "--checks", ","]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert "no checks named" in err

    def test_guarded_check_requires_override(self, capsys):
        assert main(["verify", "--type", "E6", "--checks", "ascent"]) == 2

    def test_override_reaches_guarded_check(self, capsys):
        # conjugate-j is bounded by the rank alone: the flag has nothing to lift
        args = ["verify", "--type", "A7", "--checks", "conjugate-j", "--allow-large"]
        assert main(args) == 0
        assert "subset conjugacy A7" in capsys.readouterr().out

    def test_e8_ascent_refused_by_order_ceiling(self, capsys, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("the enumeration of W(E8) started")

        # every walk in W steps with the root system's generator step
        monkeypatch.setattr(build_root_system("E8"), "_right", no_enumeration)
        args = ["verify", "--type", "E8", "--checks", "ascent", "--allow-large"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "|W(E8)| = 696729600 exceeds 10000000" in err
        # no flag lifts the ceiling, so none is suggested
        assert "allow" not in err

    def test_e7_runs_every_suite_but_ascent(self, capsys):
        assert main(["verify", "--type", "E7", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in data["reports"]] == [
            "unique-max classification E7",
            "twisted minimum E7",
            "subset conjugacy E7",
            "coxeter bound E7",
        ]
        assert data["skipped"] == ["ascent"]
        assert data["passed"]

    def test_all_runs_every_suite_its_own_guard_admits(self, capsys):
        # A9 is within the rank bound of the involution-side suites, but the
        # ascent suite refuses its |W|
        assert main(["verify", "--type", "A9", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in data["reports"]] == [
            "unique-max classification A9",
            "twisted minimum A9",
            "subset conjugacy A9",
            "coxeter bound A9",
        ]
        assert data["skipped"] == ["ascent"]
        assert main(["verify", "--type", "A9"]) == 0
        out = capsys.readouterr().out
        assert "# skipped ascent: |W(A9)| = 3628800 exceeds 10000" in out

    def test_skip_line_names_the_keyword_and_the_flag(self, capsys):
        assert main(["verify", "--type", "E6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        skip = [line for line in lines if line.startswith("# skipped ascent:")]
        assert len(skip) == 1
        assert "allow_large=True (CLI: --checks ascent --allow-large)" in skip[0]

    def test_refused_named_check_names_the_suite(self, capsys, monkeypatch):
        from bruhatcells import cli

        ran = []

        def spy(name):
            suite = cli._VERIFY_CHECKS[name][0]

            def run(t, **kwargs):
                ran.append(name)
                return suite(t, **kwargs)

            monkeypatch.setitem(cli._VERIFY_CHECKS, name, (run,))

        spy("twisted-min")
        spy("ascent")
        args = ["verify", "--type", "A9", "--checks", "twisted-min,ascent"]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert ran == ["twisted-min", "ascent"]
        assert not out
        assert "check ascent refused" in err and "3628800" in err

    def test_refusal_does_not_build_the_root_system(self, capsys, monkeypatch):
        from bruhatcells import conjugacy

        def no_build(t):
            raise AssertionError(f"built the root system of {t}")

        monkeypatch.setattr(conjugacy, "build_root_system", no_build)
        assert main(["verify", "--type", "A10"]) == 2
        assert "no verification suite fits A10: rank 10 > 9" in capsys.readouterr().err
        assert main(["verify", "--type", "A60"]) == 2
        assert "no verification suite fits" in capsys.readouterr().err
        assert main(["verify", "--type", "A60", "--checks", "ascent"]) == 2
        assert "ascent" in capsys.readouterr().err

    def test_nothing_applicable_is_usage_error(self, capsys):
        # even with the flag, 'all' has nothing that fits rank 10: the flag
        # lifts only the |W| limit of a named ascent suite
        assert main(["verify", "--type", "B10", "--allow-large"]) == 2
        err = capsys.readouterr().err
        assert "rank 10 > 9" in err and "|W(B10)| = 3715891200" in err

    def test_json_format(self, capsys):
        assert main(
            ["verify", "--type", "A2", "--checks", "twisted-min", "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True

    def test_repeated_check_runs_once(self, capsys):
        args = ["verify", "--type", "A3", "--checks", "ascent,ascent", "--format", "json"]
        assert main(args) == 0
        data = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in data["reports"]] == ["ascent suite A3"]


class TestQuery:
    def test_involution_nonempty(self, jordan_file, capsys):
        path = jordan_file(TRANSVECTION4)
        assert main(["query", "--jordan", path, "--perm", "(1 2)"]) == 0
        out = capsys.readouterr().out
        assert "nonempty" in out

    def test_involution_empty(self, jordan_file, capsys):
        path = jordan_file(TRANSVECTION4)
        assert main(["query", "--jordan", path, "--perm", "(1 2)(3 4)"]) == 0
        out = capsys.readouterr().out
        assert "is empty" in out

    def test_non_involution_path(self, jordan_file, capsys):
        path = jordan_file(TRANSVECTION4)
        assert main(["query", "--jordan", path, "--perm", "(1 2 3)"]) == 0
        out = capsys.readouterr().out
        assert "necessary corank bound" in out
        assert "undecided" in out

    def test_json_format(self, jordan_file, capsys):
        path = jordan_file(TRANSVECTION4)
        assert main(
            ["query", "--jordan", path, "--perm", "(1 2)", "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["involution"] and data["meets_cell"]

    def test_malformed_class(self, jordan_file, capsys):
        path = jordan_file({"n_plus_1": 4, "eigen_data": []})
        assert main(["query", "--jordan", path, "--perm", "(1 2)"]) == 2

    def test_bad_perm(self, jordan_file, capsys):
        path = jordan_file(TRANSVECTION4)
        assert main(["query", "--jordan", path, "--perm", "(1 9)"]) == 2


# Class files of the wrong shape, each once a traceback from some command
MALFORMED = {
    "blocks-not-a-list": {"n_plus_1": 2, "eigen_data": [{"label": "u", "blocks": 2}]},
    "blocks-not-integers": {
        "n_plus_1": 2,
        "eigen_data": [{"label": "u", "blocks": ["a", "b"]}],
    },
    "top-level-list": [SL2_TRANSVECTION],
    "values-not-a-mapping": {**SL2_TRANSVECTION, "values": [1]},
    "value-not-an-integer": {**SL2_TRANSVECTION, "values": {"u": "1"}},
    "no-eigenvalues": {"n_plus_1": 0, "eigen_data": []},
}


@pytest.mark.parametrize("payload", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_class_file_is_usage_error(jordan_file, capsys, payload):
    path = jordan_file(payload)
    for argv in (["query", "--perm", "e"], ["oracle", "--q", "5"], ["hasse"]):
        assert main([*argv, "--jordan", path]) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv


@pytest.mark.parametrize("key", ["n_plus_1", "eigen_data"])
def test_missing_key_is_named(jordan_file, capsys, key):
    payload = {k: v for k, v in TRANSVECTION4.items() if k != key}
    path = jordan_file(payload)
    for argv in (["query", "--perm", "e"], ["oracle", "--q", "3"], ["hasse"]):
        assert main([*argv, "--jordan", path]) == 2, argv
        assert capsys.readouterr().err == f"error: missing key '{key}'\n", argv


class TestHasse:
    def test_single_node_for_central(self, jordan_file, capsys):
        path = jordan_file(
            {"n_plus_1": 3, "eigen_data": [{"label": "c", "blocks": [1, 1, 1]}]}
        )
        assert main(["hasse", "--jordan", path]) == 0
        out = capsys.readouterr().out
        assert out.count('"e"') == 1
        assert "->" not in out

    def test_regular_sl3_gives_s3_diagram(self, jordan_file, capsys):
        path = jordan_file(
            {
                "n_plus_1": 3,
                "eigen_data": [
                    {"label": "a", "blocks": [1]},
                    {"label": "b", "blocks": [1]},
                    {"label": "c", "blocks": [1]},
                ],
            }
        )
        assert main(["hasse", "--jordan", path]) == 0
        out = capsys.readouterr().out
        assert out.count("->") == 8  # covering relations of the S_3 Bruhat order

    def test_writes_file(self, jordan_file, tmp_path):
        path = jordan_file(TRANSVECTION4)
        out_path = tmp_path / "diagram.dot"
        assert main(["hasse", "--jordan", path, "--out", str(out_path)]) == 0
        text = out_path.read_text()
        assert text.startswith("digraph")
        assert '"(1 4)"' in text

    def test_unwritable_out_is_usage_error(self, jordan_file, tmp_path, capsys):
        path = jordan_file(TRANSVECTION4)
        out_path = tmp_path / "no" / "such" / "dir" / "diagram.dot"
        assert main(["hasse", "--jordan", path, "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert str(out_path) in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("n_plus_1", [2, 3, 4, 5])
    def test_edges_are_matrix_covers(self, jordan_file, capsys, n_plus_1):
        # every edge of every diagram is a cover of the matrix Bruhat order
        rs = build_root_system(f"A{n_plus_1 - 1}")
        for c in abstract_jordan_classes(n_plus_1):
            assert main(["hasse", "--jordan", jordan_file(c.to_json_dict())]) == 0
            out = capsys.readouterr().out
            edges = set(re.findall(r'"([^"]*)" -> "([^"]*)"', out))
            lower = bruhat_lower_set(c)
            weyl = {w: permutation_to_weyl(rs, w) for w in lower}
            covers = {
                (u.cycle_string(), v.cycle_string())
                for u in lower
                for v in lower
                if weyl[v].length == weyl[u].length + 1 and bruhat_leq(weyl[u], weyl[v])
            }
            assert edges == covers, c.describe()

    @staticmethod
    def pair_scan_dot(c):
        """The diagram with every pair of the lower set tested for a cover."""
        lower = sorted(bruhat_lower_set(c), key=length_order)
        lines = [
            "digraph bruhat_lower_set {",
            "  rankdir=BT;",
            f"  label=\"cells below {dense_cell_involution(c).cycle_string()} "
            f"for SL({c.n_plus_1}) {c.describe()}\";",
        ]
        lines += [f'  "{w.cycle_string()}";' for w in lower]
        length = {w: w.inversions() for w in lower}
        lines += [
            f'  "{u.cycle_string()}" -> "{v.cycle_string()}";'
            for u in lower
            for v in lower
            if length[v] == length[u] + 1 and bruhat_leq_perm(u, v)
        ]
        return "\n".join(lines + ["}"]) + "\n"

    @pytest.mark.parametrize("n_plus_1", [2, 3, 4, 5, 6])
    def test_covers_by_transpositions_match_the_pair_scan(
        self, jordan_file, capsys, n_plus_1
    ):
        # every class up to degree 5, and the whole of S_6 below w0
        classes = list(abstract_jordan_classes(n_plus_1))
        if n_plus_1 == 6:
            classes = [JordanClass(6, [(f"c{i}", (1,)) for i in range(6)])]
        for c in classes:
            assert main(["hasse", "--jordan", jordan_file(c.to_json_dict())]) == 0
            assert capsys.readouterr().out == self.pair_scan_dot(c), c.describe()

    def test_size_guard(self, jordan_file):
        path = jordan_file(
            {"n_plus_1": 7, "eigen_data": [{"label": "c", "blocks": [1] * 7}]}
        )
        assert main(["hasse", "--jordan", path]) == 2


class TestOracle:
    def test_sl2_transvection_passes(self, jordan_file, capsys):
        path = jordan_file(SL2_TRANSVECTION)
        assert main(["oracle", "--jordan", path, "--q", "5", "--checks", "all"]) == 0
        out = capsys.readouterr().out
        assert "orbit size: 24" in out
        assert "result: pass" in out

    def test_json_format(self, jordan_file, capsys):
        path = jordan_file(SL2_TRANSVECTION)
        assert main(
            ["oracle", "--jordan", path, "--q", "5", "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["orbit_size"] == 24
        assert data["cells"] == ["e", "(1 2)"]
        assert data["bruhat_max"] == "(1 2)"
        assert data["complete_pair"] is True

    def test_non_prime_field(self, jordan_file, capsys):
        path = jordan_file(SL2_TRANSVECTION)
        assert main(["oracle", "--jordan", path, "--q", "4"]) == 2

    def test_missing_values(self, jordan_file, capsys):
        path = jordan_file(
            {"n_plus_1": 2, "eigen_data": [{"label": "u", "blocks": [2]}]}
        )
        assert main(["oracle", "--jordan", path, "--q", "5"]) == 2

    def test_guard_exceeded(self, jordan_file, capsys):
        path = jordan_file(REGULAR4_F5)
        assert main(["oracle", "--jordan", path, "--q", "5"]) == 2

    def test_guard_message_names_the_keyword_and_the_flag(self, jordan_file, capsys):
        path = jordan_file(REGULAR4_F5)
        assert main(["oracle", "--jordan", path, "--q", "5"]) == 2
        err = capsys.readouterr().err
        assert "has 362,700,000 matrices, about 5,667,187 T-classes" in err
        assert "allow_large=True to force it (CLI: --allow-large)" in err

    def test_complete_pair_4_3_runs_by_default(self, jordan_file, capsys):
        # |SL(4, F_3)| = 12,130,560, but this orbit has 1,040 matrices
        path = jordan_file(TRANSVECTION4)
        args = ["oracle", "--jordan", path, "--q", "3", "--checks", "all"]
        assert main(args + ["--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["orbit_size"] == 1040
        assert data["complete_pair"] is True

    @pytest.mark.parametrize("blocks", [[1] * 9, [2] + [1] * 7])
    def test_degree_guard_refuses_before_the_walk(
        self, jordan_file, capsys, monkeypatch, blocks
    ):
        # The orbit guard admits both classes at q = 2 (1 and 130,305
        # matrices), but the checks need the Bruhat lower set, refused
        # past degree 8.
        from bruhatcells import oracle

        def no_walk(start):
            raise AssertionError("the orbit walk started")

        monkeypatch.setattr(oracle, "_iter_orbit", no_walk)
        eigen_data = [{"label": "u", "blocks": blocks}]
        path = jordan_file({"n_plus_1": 9, "eigen_data": eigen_data, "values": {"u": 1}})
        assert main(["oracle", "--jordan", path, "--q", "2"]) == 2
        describe = "u=" + ".".join(map(str, blocks))
        assert capsys.readouterr().err == (
            "error: degree 9 > 8: the Bruhat lower set below the dense-cell "
            f"involution of {describe} is built only up to degree 8, and "
            "validate_class needs it to check the opposite cells and the cells "
            "below the dense element; its scan would read all 9! = 362,880 "
            "permutations\n"
        )


class TestViolationExitCode:
    """Exit code 1 is unreachable on honest runs (the checks hold), so the
    wiring is exercised with stubbed failing reports."""

    def test_oracle_failure_propagates(self, jordan_file, capsys, monkeypatch):
        from bruhatcells import cli
        from bruhatcells.report import Report

        def fake_validate(c, q, table=None):
            rep = Report("stub")
            rep.add("stub", "stub-check", "SOUND", False, "(1 2)")
            return rep

        monkeypatch.setattr(cli, "validate_class", fake_validate)
        path = jordan_file(SL2_TRANSVECTION)
        assert main(["oracle", "--jordan", path, "--q", "5"]) == 1

    def test_complete_failures_fatal_only_when_requested(
        self, jordan_file, capsys, monkeypatch
    ):
        from bruhatcells import cli
        from bruhatcells.report import Report

        def fake_validate(c, q, table=None):
            rep = Report("stub")
            rep.add("stub", "stub-check", "COMPLETE", False, "(1 2)")
            return rep

        monkeypatch.setattr(cli, "validate_class", fake_validate)
        path = jordan_file(SL2_TRANSVECTION)
        assert main(["oracle", "--jordan", path, "--q", "5", "--checks", "sound"]) == 0
        assert main(["oracle", "--jordan", path, "--q", "5", "--checks", "all"]) == 1

    def test_verify_failure_propagates(self, capsys, monkeypatch):
        from bruhatcells import cli
        from bruhatcells.report import Report

        def fake_verify(t):
            rep = Report("stub")
            rep.add(str(t), "stub-check", "EXACT", False, "w")
            return rep

        monkeypatch.setitem(cli._VERIFY_CHECKS, "m-classification", (fake_verify,))
        assert main(["verify", "--type", "A3", "--checks", "m-classification"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "witness=w" in out


ROOT = pathlib.Path(__file__).resolve().parent.parent
SL3_REGULAR_UNIPOTENT = {
    "n_plus_1": 3,
    "eigen_data": [{"label": "u", "blocks": [3]}],
    "values": {"u": 1},
}


@pytest.mark.parametrize(
    "args",
    [
        ["oracle", "--jordan", "{class}", "--q", "5", "--checks", "all"],
        ["verify", "--type", "F4"],
        ["catalog", "--type", "A53"],
    ],
    ids=["oracle", "verify", "catalog"],
)
def test_output_ignores_hash_seed(jordan_file, args):
    # Sets and dicts keyed by permutations iterate in hash order; the
    # printed reports and catalogs must not.
    path = jordan_file(SL3_REGULAR_UNIPOTENT)
    args = [path if a == "{class}" else a for a in args] + ["--format", "json"]
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "bruhatcells", *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_prints_what_a_fresh_process_prints(capsys, monkeypatch):
    # a usage error and --help exit through the shared parser; the run after
    # them must still print what a fresh process prints.  Help text wraps at
    # COLUMNS, so both sides read the same width.
    monkeypatch.setenv("COLUMNS", "80")
    runs = [
        ["verify", "--type", "F4", "--format", "xml"],
        ["--help"],
        ["verify", "--type", "F4", "--format", "json"],
    ]
    got = []
    for args in runs[:2]:
        with pytest.raises(SystemExit) as exc:
            main(args)
        got.append((exc.value.code, *capsys.readouterr()))
    got.append((main(runs[2]), *capsys.readouterr()))
    assert [code for code, _, _ in got] == [2, 0, 0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "bruhatcells", *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        for args in runs
    ]
    assert got == [(p.returncode, p.stdout, p.stderr) for p in fresh]
