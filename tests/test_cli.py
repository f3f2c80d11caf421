import json
import re

import pytest

from bruhatcells.cli import main
from bruhatcells.coxeter import RootSystem, build_root_system, bruhat_leq
from bruhatcells.permutations import permutation_to_weyl
from bruhatcells.sl_criteria import abstract_jordan_classes, bruhat_lower_set

TRANSVECTION4 = {
    "n_plus_1": 4,
    "eigen_data": [{"label": "u", "blocks": [2, 1, 1]}],
    "values": {"u": 1},
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


class TestVerify:
    def test_a3_single_check(self, capsys):
        assert main(["verify", "--type", "A3", "--checks", "m-classification"]) == 0
        assert "result: pass" in capsys.readouterr().out

    def test_f4_all(self, capsys):
        assert main(["verify", "--type", "F4"]) == 0

    def test_e8_guard(self, capsys):
        assert main(["verify", "--type", "E8"]) == 2

    def test_unknown_check(self, capsys):
        assert main(["verify", "--type", "A3", "--checks", "nonsense"]) == 2

    def test_empty_selection_is_usage_error(self, capsys):
        assert main(["verify", "--type", "A3", "--checks", ","]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert "no checks named" in err

    def test_guarded_check_requires_override(self, capsys):
        assert main(["verify", "--type", "E6", "--checks", "conjugate-j"]) == 2

    def test_override_reaches_guarded_check(self, capsys):
        args = ["verify", "--type", "A7", "--checks", "conjugate-j", "--allow-large"]
        assert main(args) == 0
        assert "subset conjugacy A7" in capsys.readouterr().out

    def test_e8_enumeration_refused_by_memory_guard(self, capsys, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("the enumeration of W(E8) started")

        monkeypatch.setattr(RootSystem, "_mul_gen_right", no_enumeration)
        args = ["verify", "--type", "E8", "--checks", "ascent", "--allow-large"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "696729600 elements" in err
        assert re.search(r"about [\d,]+ MB", err)
        assert "all_elements" not in build_root_system("E8")._memo

    def test_e8_centralizer_refused_by_memory_guard(self, capsys):
        # w0 = -1 in E8, so C_W(w0) is the whole group
        args = ["verify", "--type", "E8", "--checks", "conjugate-j", "--allow-large"]
        assert main(args) == 2
        assert "696729600 elements" in capsys.readouterr().err
        assert "inv_classes" not in build_root_system("E8")._memo

    def test_all_runs_every_suite_its_own_guard_admits(self, capsys):
        # A9 is within the enumeration limit, but classifying subsets and
        # Coxeter elements refuse rank 9 and the strong suites refuse |W|
        assert main(["verify", "--type", "A9", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in data["reports"]] == ["twisted minimum A9"]
        assert data["skipped"] == [
            "m-classification",
            "ascent",
            "conjugate-j",
            "coxeter-bound",
        ]
        assert main(["verify", "--type", "A9"]) == 0
        out = capsys.readouterr().out
        assert "# skipped coxeter-bound: group too large for this check" in out

    def test_refused_named_check_names_the_suite(self, capsys, monkeypatch):
        from bruhatcells import cli

        ran = []

        def spy(name):
            suite = cli._VERIFY_CHECKS[name][0]

            def run(t, allow_large=False):
                ran.append(name)
                return suite(t, allow_large=allow_large)

            monkeypatch.setitem(cli._VERIFY_CHECKS, name, (run,))

        spy("twisted-min")
        spy("coxeter-bound")
        args = ["verify", "--type", "A9", "--checks", "twisted-min,coxeter-bound"]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert ran == ["twisted-min", "coxeter-bound"]
        assert not out
        assert "coxeter-bound" in err and "rank 9 > 8" in err

    def test_refusal_does_not_build_the_root_system(self, capsys, monkeypatch):
        from bruhatcells import conjugacy

        def no_build(t):
            raise AssertionError(f"built the root system of {t}")

        monkeypatch.setattr(conjugacy, "build_root_system", no_build)
        assert main(["verify", "--type", "A60"]) == 2
        assert "no verification suite fits" in capsys.readouterr().err
        assert main(["verify", "--type", "A60", "--checks", "ascent"]) == 2
        assert "ascent" in capsys.readouterr().err

    def test_nothing_applicable_is_usage_error(self, capsys):
        # even with the override, 'all' has nothing that fits E8
        assert main(["verify", "--type", "E8", "--allow-large"]) == 2

    def test_json_format(self, capsys):
        assert main(
            ["verify", "--type", "A2", "--checks", "twisted-min", "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True


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
        path = jordan_file(
            {
                "n_plus_1": 5,
                "eigen_data": [{"label": "u", "blocks": [2, 1, 1, 1]}],
                "values": {"u": 1},
            }
        )
        assert main(["oracle", "--jordan", path, "--q", "11"]) == 2


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

        def fake_verify(t, allow_large=False):
            rep = Report("stub")
            rep.add(str(t), "stub-check", "EXACT", False, "w")
            return rep

        monkeypatch.setitem(cli._VERIFY_CHECKS, "m-classification", (fake_verify,))
        assert main(["verify", "--type", "A3", "--checks", "m-classification"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "witness=w" in out
