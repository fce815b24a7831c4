"""Command-line behavior: output formats, golden lines, exit codes, and the
input validation paths."""

import hashlib
import json
import sys

import pytest
from click.testing import CliRunner

from confmine import families, miner, oracle
from confmine.cli import main

from conftest import DATA
from randomized import write_vertex_instance


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

    def test_undecodable_file(self, runner, tmp_path):
        ctx = tmp_path / "bad.ctx"
        ctx.write_bytes(b"o1: a\xff b\n")
        result = invoke(runner, "mine", "--explicit", DATA / "wedge.family", "--context", ctx)
        assert result.exit_code == 2
        assert f"cannot read {ctx}" in result.output

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

    def test_names_written_as_given(self, runner, tmp_path):
        # no ANSI escape sequence is stripped off stdout, terminal or not
        red = "\x1b[31ma"
        (tmp_path / "red.family").write_text(f"{red}\n{red} b\n")
        (tmp_path / "red.ctx").write_text(f"o1: {red} b\n")
        result = invoke(
            runner,
            "mine", "--explicit", tmp_path / "red.family", "--context", tmp_path / "red.ctx",
        )
        assert result.exit_code == 0
        assert result.stdout == f"{red} b\to1\t{red}\tfalse\n"

    def test_streams_lines_before_mining_finishes(self, runner, monkeypatch):
        # The first concept's line is written before the miner is asked for
        # the second: a buffered or sorted default output would fail here.
        real_mine = miner.mine
        written_before_failure = []

        def mine_then_fail(cfg):
            yield next(real_mine(cfg))
            sys.stdout.flush()
            written_before_failure.append(sys.stdout.buffer.getvalue())
            raise RuntimeError("mining interrupted")

        monkeypatch.setattr(miner, "mine", mine_then_fail)
        result = invoke(
            runner,
            "mine", "--graph", DATA / "quad.graph", "--edge-mode",
            "--context", DATA / "quad.ctx",
        )
        assert isinstance(result.exception, RuntimeError)
        assert written_before_failure == [b"a\to1 o2 o3\ta\tfalse\n"]
        assert result.stdout.splitlines() == ["a\to1 o2 o3\ta\tfalse"]


class TestBenchScaleOutput:
    """Byte-exact stdout on one seeded 12-vertex, 18-edge, 16-object instance,
    the size of a ``basis-classes`` benchmark instance: 49 concepts and 64
    implications, pinned by their sha256."""

    @pytest.mark.parametrize(
        "command, digest",
        [
            (("mine",), "3333d561fba4b0dfe99dae356abd8e00db618e13223b5f8e82440165b6ad1ee6"),
            (
                ("mine", "--format", "json"),
                "18ede3ccc022f3c8e70d3aec3246b205beb5bc7ba9debc8496bae1bbf67fb12b",
            ),
            (("basis",), "5a03f6da5f87f598765a9022674096a96c19f52c8809ff895ec8c6be8a0b1dfc"),
        ],
    )
    def test_stdout_digest(self, runner, tmp_path, command, digest):
        graph, context = write_vertex_instance(tmp_path, 0, 12, 18, 16)
        result = invoke(runner, *command, "--graph", graph, "--context", context)
        assert result.exit_code == 0, result.output
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


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


@pytest.mark.parametrize(
    "args, output",
    [
        (("mine", "--explicit", DATA / "empty.family", "--context", DATA / "noitems.ctx"),
         "{}\to1 o2\t{}\tfalse\n"),
        (("basis", "--explicit", DATA / "empty.family", "--context", DATA / "noitems.ctx"), ""),
        (("mine", "--kgap", 3, 1, "--context", DATA / "noobjects.ctx"),
         "a1 a2 a3\t{}\ta1\ttrue\n"),
        (("basis", "--kgap", 3, 1, "--context", DATA / "noobjects.ctx"),
         "".join(f"a{i} -> a1 a2 a3 [internal]\n" for i in (1, 2, 3))),
    ],
    ids=["mine-no-items", "basis-no-items", "mine-no-objects", "basis-no-objects"],
)
def test_edge_shapes(runner, args, output):
    # a zero-item universe, whose one member {} is a local top with every object,
    # and a context with no objects, where every member has the empty support
    result = invoke(runner, *args)
    assert result.exit_code == 0, result.output
    assert result.stdout == output


class TestCheckCommand:
    def test_bad_family_exits_one_with_witness(self, runner):
        result = invoke(runner, "check", "--explicit", DATA / "bad.family")
        assert result.exit_code == 1
        assert "not a subconfluence" in result.output
        assert "({}, a b, a c)" in result.output

    def test_wedge_family_ok(self, runner):
        result = invoke(runner, "check", "--explicit", DATA / "wedge.family")
        assert result.exit_code == 0
        assert result.stdout.splitlines() == [
            "subconfluence: ok",
            "strongly-accessible: ok (6 members)",
        ]

    def test_quad_family_reports_inaccessibility(self, runner):
        result = invoke(runner, "check", "--explicit", DATA / "quad.family")
        assert result.exit_code == 1
        assert result.stdout.splitlines() == [
            "subconfluence: ok",
            "strongly-accessible: FAIL no augmentation chain from a to a b c",
        ]

    def test_failing_family_answers_before_listing_members(self, runner, monkeypatch):
        # The FAIL line needs no member list, so a budget of 1 does not hide it.
        def refuse(fam, budget):
            raise AssertionError("materialize called on a failing family")

        monkeypatch.setattr(oracle, "materialize", refuse)
        result = invoke(runner, "check", "--explicit", DATA / "quad.family", "--budget", 1)
        assert result.exit_code == 1
        assert result.stdout.splitlines() == [
            "subconfluence: ok",
            "strongly-accessible: FAIL no augmentation chain from a to a b c",
        ]

    def test_family_over_budget_still_answers(self, runner):
        result = invoke(runner, "check", "--kgap", 14, 2, "--budget", 5)
        assert result.exit_code == 0
        assert result.stdout.splitlines() == [
            "subconfluence: ok",
            "strongly-accessible: ok (more than 5 members)",
        ]

    def test_graph_family_check(self, runner):
        result = invoke(runner, "check", "--graph", DATA / "quad.graph", "--edge-mode")
        assert result.exit_code == 0
        assert "strongly-accessible: ok (14 members)" in result.output

    def test_repeated_default_labels_accepted_in_vertex_mode(self, runner):
        # both edges are labelled a-b-c, but vertex mode's items are the vertices
        result = invoke(runner, "check", "--graph", DATA / "dashes.graph")
        assert result.exit_code == 0
        assert result.stdout.splitlines() == [
            "subconfluence: ok",
            "strongly-accessible: ok (6 members)",
        ]

    def test_graph_family_check_skips_pair_loop(self, runner, monkeypatch):
        # A connected family answers by construction: the pair loop never runs.
        def refuse(members):
            raise AssertionError("is_strongly_accessible called on a connected family")

        monkeypatch.setattr(families, "is_strongly_accessible", refuse)
        result = invoke(runner, "check", "--graph", DATA / "quad.graph", "--edge-mode")
        assert result.exit_code == 0
        assert result.stdout.splitlines() == [
            "subconfluence: ok",
            "strongly-accessible: ok (14 members)",
        ]

    def test_poset_confluence_ok(self, runner):
        result = invoke(runner, "check", "--poset", DATA / "chain.poset")
        assert result.exit_code == 0
        assert result.stdout == "confluence: ok\n"

    def test_poset_confluence_failure(self, runner):
        result = invoke(runner, "check", "--poset", DATA / "fork.poset")
        assert result.exit_code == 1
        assert result.stdout == "confluence: FAIL witness ('a', None)\n"

    @pytest.mark.parametrize(
        "family_option",
        [
            ("--graph", DATA / "quad.graph"),
            ("--explicit", DATA / "bad.family"),
            ("--kgap", 4, 2),
            ("--edge-mode",),
            ("--min-size", 2),
        ],
        ids=["graph", "explicit", "kgap", "edge-mode", "min-size"],
    )
    def test_poset_rejects_family_options(self, runner, family_option):
        result = invoke(runner, "check", "--poset", DATA / "chain.poset", *family_option)
        assert result.exit_code == 1
        assert "error: --poset cannot be combined with family options" in result.output
        assert "confluence" not in result.output

    def test_kgap_family_check(self, runner):
        result = invoke(runner, "check", "--kgap", 4, 2)
        assert result.exit_code == 0
        assert "subconfluence: ok" in result.output
        assert "strongly-accessible: ok" in result.output


RED = "\x1b[31ma"  # item a under an ANSI colour escape


@pytest.fixture
def red_quad(tmp_path):
    """``quad.family``, not strongly accessible, with item ``a`` renamed to
    ``RED``, and a two-object context over it."""
    family = tmp_path / "red.family"
    family.write_text((DATA / "quad.family").read_text().replace("a", RED))
    context = tmp_path / "red.ctx"
    context.write_text(f"o1: {RED} b\no2: {RED} b c\n")
    return family, context


class TestEscapeSequencesKept:
    """No command strips an ANSI escape sequence off a name when its stream
    is not a terminal, so every witness names items as the input gives them."""

    def test_check_witness(self, runner, red_quad):
        result = invoke(runner, "check", "--explicit", red_quad[0])
        assert result.exit_code == 1
        assert result.stdout == (
            "subconfluence: ok\n"
            f"strongly-accessible: FAIL no augmentation chain from {RED} to {RED} b c\n"
        )

    def test_error_message(self, runner, red_quad):
        family, context = red_quad
        result = invoke(runner, "mine", "--explicit", family, "--context", context)
        assert result.exit_code == 1
        # stdout is empty, so the output is the error line alone
        assert result.output == (
            "error: family is not strongly accessible: "
            f"no single-item chain from {RED} to {RED} b c\n"
        )

    def test_oracle_report(self, runner, red_quad):
        family, context = red_quad
        result = invoke(runner, "oracle", "--explicit", family, "--context", context)
        assert result.exit_code == 0
        assert json.loads(result.stdout)["closed"] == [RED, "b", f"{RED} b c", f"{RED} b c d"]


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

    def test_failing_check_exits_one_after_the_report(self, runner, monkeypatch):
        """No correct instance fails a check, so a report with one failure is planted."""

        def failing_report(ctx, fam, abstraction, *, seed, budget):
            failed = oracle.CheckResult(False, "planted")
            return oracle.OracleReport(0, (), (), {"planted_check": failed})

        monkeypatch.setattr(oracle, "verify_all", failing_report)
        result = invoke(runner, "oracle", "--kgap", 3, 1, "--context", DATA / "kgap.ctx")
        assert result.exit_code == 1
        assert result.stderr == ""
        data = json.loads(result.stdout)
        assert data["ok"] is False
        assert data["checks"] == {"planted_check": {"passed": False, "detail": "planted"}}


@pytest.mark.parametrize("budget", [0, -1])
@pytest.mark.parametrize(
    "command",
    [
        ("basis", "--explicit", DATA / "wedge.family", "--context", DATA / "wedge.ctx"),
        ("check", "--explicit", DATA / "wedge.family"),
        ("oracle", "--explicit", DATA / "wedge.family", "--context", DATA / "wedge.ctx"),
    ],
    ids=["basis", "check", "oracle"],
)
def test_nonpositive_budget_is_a_usage_error(runner, command, budget):
    result = invoke(runner, *command, "--budget", budget)
    assert result.exit_code == 2
    assert "--budget" in result.output


@pytest.mark.parametrize("command", ["basis", "oracle"])
def test_family_over_budget_exits_one(runner, command):
    result = invoke(
        runner, command, "--kgap", 14, 2, "--context", DATA / "kgap.ctx", "--budget", 5
    )
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == (
        "error: family exceeds the materialization budget of 5 (found 6+ members)\n"
    )


KGAP = ("--kgap", 3, 1)
NEEDS_CONTEXT = "--context is required for this command"


@pytest.mark.parametrize(
    ("files", "args", "code", "message"),
    [
        (
            {},
            ("mine", *KGAP, "--context", DATA / "kgap.ctx",
             "--abstraction", DATA / "pairgen.abs", "--min-support", 1),
            1,
            "--abstraction and --min-support are mutually exclusive",
        ),
        ({}, ("mine", *KGAP), 1, NEEDS_CONTEXT),
        ({}, ("basis", "--explicit", DATA / "wedge.family"), 1, NEEDS_CONTEXT),
        ({}, ("oracle", *KGAP), 1, NEEDS_CONTEXT),
        (
            {"ctx": "o1: a1 a2\no2 a2 a3\n"},
            ("mine", *KGAP, "--context", "{ctx}"),
            2,
            "{ctx}: line 2: expected 'object: item item ...'",
        ),
        (
            {"abs": "a b\n"},
            ("mine", *KGAP, "--context", DATA / "kgap.ctx", "--abstraction", "{abs}"),
            2,
            "{abs}: line 1: unknown object 'a'",
        ),
        (
            {"graph": "v a\nv a\n"},
            ("check", "--graph", "{graph}"),
            2,
            "family input: invalid graph: duplicate vertex names",
        ),
        (
            {"poset": "x: covers\ny covers x\n"},
            ("check", "--poset", "{poset}"),
            2,
            "{poset}: line 2: expected 'id: covers ...'",
        ),
        (
            {"family": "# only a comment\n"},
            ("mine", "--explicit", "{family}", "--context", DATA / "wedge.ctx"),
            2,
            "family input: explicit family must be nonempty",
        ),
        (
            {"ctx": ": a b\n"},
            ("mine", "--explicit", DATA / "wedge.family", "--context", "{ctx}"),
            2,
            "{ctx}: line 1: empty object name",
        ),
        (
            {"poset": "a: covers\na: covers\n"},
            ("check", "--poset", "{poset}"),
            2,
            "{poset}: line 2: duplicate element 'a'",
        ),
        ({"poset": ": covers\n"}, ("check", "--poset", "{poset}"), 2, "{poset}: line 1: empty element id"),
        (
            {"family": "a\na {}\n"},
            ("mine", "--explicit", "{family}", "--context", DATA / "wedge.ctx"),
            2,
            "family input: line 2: '{{}}' must appear alone on its line",  # braces doubled
        ),
        (
            {"graph": "v a\nv b\nv c\ne a b\ne b c\n", "ctx": "my obj: a b\nother: b c\n"},
            ("mine", "--graph", "{graph}", "--context", "{ctx}"),
            2,
            "{ctx}: line 1: object name 'my obj' is not one token",
        ),
        (
            {"graph": "v a\nv b\ne a b\n", "ctx": "o1: a\n{}: a b\n"},
            ("mine", "--graph", "{graph}", "--context", "{ctx}"),
            2,
            "{ctx}: line 2: '{{}}' cannot name an object",
        ),
        (
            {"ctx": "o1: a\no2: a {}\n"},
            ("mine", "--explicit", DATA / "wedge.family", "--context", "{ctx}"),
            2,
            "{ctx}: line 2: '{{}}' cannot name an item",
        ),
        (
            {"ctx": "o1: a1 z\n"},
            ("mine", *KGAP, "--context", "{ctx}"),
            1,
            "context does not match the family universe: object 'o1': unknown item 'z'",
        ),
        (
            {"graph": "v {}\nv b\ne {} b\n"},
            ("check", "--graph", "{graph}"),
            2,
            "family input: line 1: '{{}}' cannot name a vertex or an edge label",
        ),
        (
            {"graph": "v a\nv b\ne a b {}\n"},
            ("check", "--graph", "{graph}", "--edge-mode"),
            2,
            "family input: line 3: '{{}}' cannot name a vertex or an edge label",
        ),
        (
            {},
            ("check", "--graph", DATA / "dashes.graph", "--edge-mode"),
            2,
            "family input: duplicate edge labels: a-b-c",
        ),
    ],
    ids=[
        "abstraction-and-min-support", "mine-without-context", "basis-without-context",
        "oracle-without-context", "context-line-without-colon", "abstraction-unknown-object",
        "graph-duplicate-vertex", "poset-line-without-colon", "explicit-family-empty",
        "context-empty-object-name", "poset-duplicate-element", "poset-empty-element-id",
        "explicit-family-braces-not-alone", "context-spaced-object", "context-braces-object",
        "context-braces-item", "context-unknown-item", "graph-braces-vertex", "graph-braces-label",
        "graph-duplicate-edge-label",
    ],
)
def test_error_is_one_stderr_line(runner, tmp_path, files, args, code, message):
    """Each failure exits with its code and one ``error:`` line on stderr, and
    writes nothing to stdout; ``{name}`` stands for the file written from ``files``."""
    paths = {name: tmp_path / name for name in files}
    for name, text in files.items():
        paths[name].write_text(text)
    result = invoke(runner, *(str(a).format_map(paths) for a in args))
    assert result.exit_code == code
    assert result.stdout == ""
    assert result.stderr == f"error: {message.format_map(paths)}\n"
