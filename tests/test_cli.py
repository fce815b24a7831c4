"""Command-line behavior: output formats, golden lines, exit codes, and the
input validation paths."""

import json

import pytest
from click.testing import CliRunner

from confmine import miner
from confmine.cli import main

from conftest import DATA


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


class TestMineCommand:
    def test_quad_sorted_tsv(self, runner):
        result = invoke(
            runner,
            "mine", "--graph", DATA / "quad.graph", "--edge-mode",
            "--context", DATA / "quad.ctx", "--sorted",
        )
        assert result.exit_code == 0, result.output
        assert result.output.splitlines() == [
            "a\to1 o2 o3\ta\tfalse",
            "a b c\to2 o3\ta\tfalse",
            "a b c d\to3\ta\tfalse",
            "b\to1 o2 o3\tb\tfalse",
        ]

    def test_json_lines(self, runner):
        result = invoke(
            runner,
            "mine", "--graph", DATA / "quad.graph", "--edge-mode",
            "--context", DATA / "quad.ctx", "--sorted", "--format", "json",
        )
        assert result.exit_code == 0
        rows = [json.loads(line) for line in result.output.splitlines()]
        assert rows[0] == {
            "v": 1,
            "intent": ["a"],
            "extent": ["o1", "o2", "o3"],
            "anchor_minimal": ["a"],
            "empty_support": False,
        }
        assert len(rows) == 4

    def test_explicit_wedge_family(self, runner):
        result = invoke(
            runner,
            "mine", "--explicit", DATA / "wedge.family",
            "--context", DATA / "wedge.ctx", "--sorted",
        )
        assert result.exit_code == 0
        intents = [line.split("\t")[0] for line in result.output.splitlines()]
        assert intents == ["a b c d", "a b d", "a c d"]

    def test_abstraction_file(self, runner):
        result = invoke(
            runner,
            "mine", "--graph", DATA / "quad.graph", "--edge-mode",
            "--context", DATA / "quad.ctx", "--abstraction", DATA / "pairgen.abs",
            "--sorted",
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines == [
            "a\to1 o2 o3\ta\tfalse",
            "a b c d\t{}\ta\ttrue",
            "b\to1 o2 o3\tb\tfalse",
        ]

    def test_skip_empty_support_flag(self, runner):
        result = invoke(
            runner,
            "mine", "--graph", DATA / "quad.graph", "--edge-mode",
            "--context", DATA / "quad.ctx", "--abstraction", DATA / "pairgen.abs",
            "--sorted", "--skip-empty-support",
        )
        assert result.exit_code == 0
        assert len(result.output.splitlines()) == 2

    def test_min_support(self, runner):
        result = invoke(
            runner,
            "mine", "--explicit", DATA / "wedge.family",
            "--context", DATA / "wedge.ctx", "--min-support", "2", "--sorted",
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        # the two 2-frequent closures survive; the component top is flagged
        assert [l.split("\t")[0] for l in lines] == ["a b c d", "a b d", "a c d"]
        assert [l.split("\t")[3] for l in lines] == ["true", "false", "false"]

    def test_kgap_smoke(self, runner):
        result = invoke(
            runner, "mine", "--kgap", 3, 1, "--context", DATA / "kgap.ctx", "--sorted"
        )
        assert result.exit_code == 0
        assert result.output.splitlines()

    def test_vertex_mode_with_min_size(self, runner, tmp_path):
        ctx = tmp_path / "path.ctx"
        ctx.write_text("o1: 1 2\no2: 1 2 3\n")
        result = invoke(
            runner,
            "mine", "--graph", DATA / "quad.graph", "--vertex-mode", "--min-size", 2,
            "--context", ctx, "--sorted",
        )
        assert result.exit_code == 0
        intents = [line.split("\t")[0] for line in result.output.splitlines()]
        assert all(len(i.split()) >= 2 for i in intents)
        assert "1 2" in intents

    def test_non_accessible_family_rejected(self, runner):
        result = invoke(
            runner,
            "mine", "--explicit", DATA / "quad.family", "--context", DATA / "quad.ctx",
        )
        assert result.exit_code == 1
        assert "strongly accessible" in result.output

    def test_requires_exactly_one_family_kind(self, runner):
        result = invoke(
            runner,
            "mine", "--graph", DATA / "quad.graph", "--explicit", DATA / "quad.family",
            "--context", DATA / "quad.ctx",
        )
        assert result.exit_code == 1
        assert "exactly one" in result.output

    def test_context_item_outside_graph_universe(self, runner):
        result = invoke(
            runner,
            "mine", "--graph", DATA / "quad.graph", "--edge-mode",
            "--context", DATA / "wedge.ctx",
        )
        assert result.exit_code == 1
        assert "universe" in result.output

    def test_parse_error_names_line(self, runner, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("v x\nnonsense line\n")
        result = invoke(
            runner, "mine", "--graph", bad, "--edge-mode", "--context", DATA / "quad.ctx"
        )
        assert result.exit_code == 2
        assert "line 2" in result.output

    def test_missing_file(self, runner):
        result = invoke(
            runner, "mine", "--graph", DATA / "missing.graph", "--context", DATA / "quad.ctx"
        )
        assert result.exit_code == 2

    def test_negative_min_support_is_a_usage_error(self, runner):
        result = invoke(
            runner,
            "mine", "--explicit", DATA / "wedge.family", "--context", DATA / "wedge.ctx",
            "--min-support", -1,
        )
        assert result.exit_code == 2
        assert "--min-support" in result.output

    @pytest.mark.parametrize(
        "instance",
        [
            ("--kgap", 3, 1, "--context", DATA / "kgap.ctx"),
            ("--graph", DATA / "quad.graph", "--edge-mode", "--context", DATA / "quad.ctx"),
            ("--explicit", DATA / "wedge.family", "--context", DATA / "wedge.ctx"),
        ],
    )
    def test_min_size_outside_vertex_mode_rejected(self, runner, instance):
        base = ("mine", *instance)
        result = invoke(runner, *base, "--min-size", 3)
        assert result.exit_code == 1
        assert "--min-size" in result.output
        assert invoke(runner, *base, "--min-size", 1).exit_code == 0

    def test_sorted_output_stable_across_runs(self, runner):
        args = (
            "mine", "--graph", DATA / "quad.graph", "--edge-mode",
            "--context", DATA / "quad.ctx", "--sorted", "--format", "json",
        )
        assert invoke(runner, *args).output == invoke(runner, *args).output

    def test_streams_lines_before_mining_finishes(self, runner, monkeypatch):
        real_mine = miner.mine

        def mine_then_fail(cfg):
            yield next(real_mine(cfg))
            raise RuntimeError("mining interrupted")

        monkeypatch.setattr(miner, "mine", mine_then_fail)
        result = invoke(
            runner,
            "mine", "--graph", DATA / "quad.graph", "--edge-mode",
            "--context", DATA / "quad.ctx",
        )
        assert isinstance(result.exception, RuntimeError)
        assert result.output.splitlines() == ["a\to1 o2 o3\ta\tfalse"]


class TestBasisCommand:
    def test_quad_family_basis(self, runner):
        result = invoke(
            runner,
            "basis", "--explicit", DATA / "quad.family", "--context", DATA / "quad.ctx",
        )
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "a -> b [external]",
            "a b d -> a b c d [internal]",
            "b -> a [external]",
        ]

    def test_wedge_family_basis(self, runner):
        result = invoke(
            runner,
            "basis", "--explicit", DATA / "wedge.family", "--context", DATA / "wedge.ctx",
        )
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "a b -> a b d [internal]",
            "a b c -> a b c d [internal]",
            "a c -> a c d [internal]",
        ]

    @pytest.mark.parametrize(
        "option", [("--min-support", 2), ("--abstraction", DATA / "pairgen.abs")]
    )
    def test_rejects_abstraction_options(self, runner, option):
        result = invoke(
            runner,
            "basis", "--explicit", DATA / "wedge.family", "--context", DATA / "wedge.ctx",
            *option,
        )
        assert result.exit_code == 2
        assert f"No such option '{option[0]}'" in result.output


class TestCheckCommand:
    def test_bad_family_exits_one_with_witness(self, runner):
        result = invoke(runner, "check", "--explicit", DATA / "bad.family")
        assert result.exit_code == 1
        assert "not a subconfluence" in result.output
        assert "({}, a b, a c)" in result.output

    def test_wedge_family_ok(self, runner):
        result = invoke(runner, "check", "--explicit", DATA / "wedge.family")
        assert result.exit_code == 0
        assert "subconfluence: ok" in result.output
        assert "strongly-accessible: ok" in result.output

    def test_quad_family_reports_inaccessibility(self, runner):
        result = invoke(runner, "check", "--explicit", DATA / "quad.family")
        assert result.exit_code == 0
        assert "strongly-accessible: FAIL" in result.output

    def test_graph_family_check(self, runner):
        result = invoke(runner, "check", "--graph", DATA / "quad.graph", "--edge-mode")
        assert result.exit_code == 0
        assert "strongly-accessible: ok (14 members)" in result.output

    def test_poset_confluence_ok(self, runner):
        result = invoke(runner, "check", "--poset", DATA / "chain.poset")
        assert result.exit_code == 0
        assert "confluence: ok" in result.output

    def test_poset_confluence_failure(self, runner):
        result = invoke(runner, "check", "--poset", DATA / "fork.poset")
        assert result.exit_code == 1
        assert "confluence: FAIL" in result.output

    def test_kgap_family_check(self, runner):
        result = invoke(runner, "check", "--kgap", 4, 2)
        assert result.exit_code == 0
        assert "subconfluence: ok" in result.output
        assert "strongly-accessible: ok" in result.output


class TestOracleCommand:
    def test_wedge_report(self, runner):
        result = invoke(
            runner,
            "oracle", "--explicit", DATA / "wedge.family", "--context", DATA / "wedge.ctx",
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["ok"] is True
        assert sorted(data["closed"]) == ["a b c d", "a b d", "a c d"]

    def test_graph_report(self, runner):
        result = invoke(
            runner,
            "oracle", "--graph", DATA / "quad.graph", "--edge-mode",
            "--context", DATA / "quad.ctx", "--seed", 5,
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["family_size"] == 14
        assert data["checks"]["miner_matches_oracle"]["passed"] is True
