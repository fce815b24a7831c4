"""Tests of the benchmark itself: verifier against the brute-force oracle, traced
event counts against a direct ``mine_trace`` count, wrapper removal, and the
shape of the printed result.

Run from the repository root:  PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import instances
import run
import spans
import verify

from confmine import fca, miner, oracle

TINY = {
    "vertex-support": dict(vertices=8, degree=3, objects=10, row_items=4),
    "edge-augment": dict(vertices=6, degree=3, objects=5, row_items=6),
    "minsize-anchor": dict(vertices=8, degree=3, objects=8, row_items=5, min_size=3, min_support=2),
    "basis-classes": dict(vertices=6, degree=3, objects=6, row_items=3),
}
SEEDS = range(4)


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


def tiny(workload: str, seed: int) -> instances.Instance:
    shape = dataclasses.replace(instances.WORKLOADS[workload], **TINY[workload])
    return instances.generate(shape, f"{workload}:graph:{seed}", seed)


def loaded(inst: instances.Instance, directory: Path):
    argv = inst.write(directory)
    family, context = run.load_instance(argv)
    assert family.universe.names == inst.items
    threshold = inst.shape.min_support or 0
    abstraction = fca.ExtensionalAbstraction.frequency(threshold)
    return argv, family, context, abstraction


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("seed", SEEDS)
def test_verifier_accepts_exactly_the_oracle_closed_set(workload, seed, tmp_path):
    inst = tiny(workload, seed)
    _, family, context, abstraction = loaded(inst, tmp_path)
    members = oracle.materialize(family, budget=1 << 16)
    model = verify.Model(inst)
    accepted = {m for m in members if model.is_closed(m)}
    assert accepted == oracle.oracle_closed_set(context, members, abstraction)
    assert model.known_closed() <= accepted
    assert {m for m in range(1, 1 << len(inst.items)) if model.member(m)} == set(members)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("seed", SEEDS)
def test_cli_output_passes_verification(workload, seed, tmp_path, cli):
    inst = tiny(workload, seed)
    argv = inst.write(tmp_path)
    inv = run.invoke(cli, argv)
    assert inv.ok, inv.error
    check = verify.check_basis if inst.shape.command == "basis" else verify.check_mine
    assert check(verify.Model(inst), inv.capture.lines()) == []
    quiet = run.invoke(cli, argv, keep=False)
    assert quiet.capture.digest() == verify.digest(inv.capture.lines())


def test_verifier_rejects_corrupted_mine_output(tmp_path, cli):
    inst = tiny("vertex-support", 0)
    lines = run.invoke(cli, inst.write(tmp_path)).capture.lines()
    model = verify.Model(inst)
    intent, extent, anchor, flag = lines[0].split("\t")
    wrong_extent = "\t".join([intent, "{}" if extent != "{}" else "o0", anchor, flag])
    assert verify.check_mine(model, [wrong_extent] + lines[1:])
    assert verify.check_mine(model, lines + lines[:1])
    known = {model.mask(line.split("\t")[0].split()) for line in lines} & model.known_closed()
    dropped = [line for line in lines if model.mask(line.split("\t")[0].split()) not in known]
    assert verify.check_mine(model, dropped)


def test_verifier_rejects_corrupted_basis_output(tmp_path, cli):
    inst = tiny("basis-classes", 1)
    lines = run.invoke(cli, inst.write(tmp_path)).capture.lines()
    assert lines
    model = verify.Model(inst)
    premise, rest = lines[0].split(" -> ")
    swapped = f"{rest.rsplit(' [', 1)[0]} -> {premise} [{rest.rsplit(' [', 1)[1]}"
    assert verify.check_basis(model, [swapped] + lines[1:])
    assert verify.check_basis(model, [])


@pytest.mark.parametrize("workload", ["vertex-support", "edge-augment", "minsize-anchor"])
def test_traced_counts_equal_a_direct_mine_trace_count(workload, tmp_path, cli):
    inst = tiny(workload, 2)
    argv, family, context, abstraction = loaded(inst, tmp_path)
    events = list(miner.mine_trace(miner.MinerConfig(family, context, abstraction)))
    kinds = Counter(type(ev).__name__ for ev in events)
    prunes = [ev for ev in events if isinstance(ev, miner.PruneEvent)]

    tracer = spans.Tracer()
    with tracer:
        inv = tracer.call("cli", run.invoke, cli, argv)
    assert inv.ok, inv.error
    counts = tracer.counts
    assert counts["miner.emitted"] == kinds["MineEvent"]
    assert counts["miner.minimals_processed"] == kinds["MinimalEvent"]
    assert counts["miner.prune_root"] == sum(ev.at_root for ev in prunes)
    assert counts["miner.prune_item"] == sum(ev.blocked_by_item is not None for ev in prunes)
    assert counts["miner.prune_minimal"] == sum(
        ev.blocked_by_minimal is not None and not ev.at_root for ev in prunes
    )
    assert tracer.calls["miner.close_pattern"] == kinds["MineEvent"] + kinds["PruneEvent"]
    assert tracer.calls["cli"] == 1 and tracer.calls["fca.extension"] > 0


def _bindings():
    """Every attribute of every confmine module and of the classes they define."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "confmine":
            continue
        for attr, value in vars(mod).items():
            found[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    found[(name, attr, cattr)] = cvalue
    return found


def test_traced_run_leaves_no_wrapper_installed(tmp_path, cli):
    before = _bindings()
    inst = tiny("basis-classes", 0)
    argv = inst.write(tmp_path)
    tracer = spans.Tracer()
    with tracer:
        assert spans.installed_wrappers()
        tracer.call("cli", run.invoke, cli, argv)
    assert tracer.calls["oracle.materialize"] == 1
    assert tracer.calls["implications.equivalence_classes"] == 1
    assert spans.installed_wrappers() == []
    with pytest.raises(ZeroDivisionError):
        with tracer:
            1 / 0
    assert spans.installed_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_carries_every_declared_metric(trace, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)
    for workload, sizes in TINY.items():
        monkeypatch.setitem(
            instances.WORKLOADS, workload,
            dataclasses.replace(instances.WORKLOADS[workload], **sizes, suite_size=2),
        )
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    for workload in ("minsize-anchor", "basis-classes"):
        assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {m["name"]: m["unit"] for m in declared[key]} == {
            name: m["unit"] for name, m in result["metrics"].items()
        }


def test_all_workloads_in_one_command(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)
    for workload, sizes in TINY.items():
        monkeypatch.setitem(
            instances.WORKLOADS, workload,
            dataclasses.replace(instances.WORKLOADS[workload], **sizes, suite_size=1),
        )
    assert run.main(["--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"]
    assert {name.split("/")[0] for name in result["metrics"]} == set(TINY)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert len(result["metrics"]) == len(declared) * len(TINY)
