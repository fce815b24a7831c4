"""Layer tracing from outside the program: wrap the public functions of each
layer at run time, record one span per call, and restore every original.

A span is (name, start, end, parent).  Spans are kept in memory as arrays and
written out by ``Tracer.write``; per-name call counts and self times (span
duration minus the duration of its direct children) are accumulated as spans
close.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Module-level functions, by span name -> (defining module, attribute).  Each
# is replaced in every confmine module namespace that bound it at import time.
FUNCTIONS = {
    "fca.extension": ("confmine.fca", "extension"),
    "fca.intension": ("confmine.fca", "intension"),
    "fca.anchor_minimal": ("confmine.fca", "anchor_minimal"),
    "fca.support_closure": ("confmine.fca", "support_closure"),
    "miner.close_pattern": ("confmine.miner", "close_pattern"),
    "implications.equivalence_classes": ("confmine.implications", "equivalence_classes"),
    "implications.minmax_basis": ("confmine.implications", "minmax_basis"),
    "oracle.materialize": ("confmine.oracle", "materialize"),
}
FAMILY_METHODS = ("contains", "project", "augmentations", "minimals")
WRAPPED = "__bench_wrapped__"


class Tracer:
    """Span recorder plus the miner event counts taken from ``mine_trace``."""

    def __init__(self):
        self._patches: list[tuple[object, str, object, bool]] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and totals; installed wrappers stay."""
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self._next_id = 0
        self._stack = [-1]
        self._child = [0.0]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        sid, parent = self._open()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, sid, parent, start, perf_counter())

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        self._child.append(0.0)
        return sid, parent

    def _close(self, name, sid, parent, start, end):
        self._stack.pop()
        child = self._child.pop()
        duration = end - start
        self._child[-1] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        # Spans are stored in closing order; ``sid`` is the opening order.
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent)
        self.span_id.append(sid)

    def write(self, path: Path) -> None:
        """Spans as TSV in opening order: id, name, start, end, parent id (-1 for roots)."""
        order = sorted(range(len(self.span_id)), key=self.span_id.__getitem__)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for k in order:
                fh.write(
                    f"{self.span_id[k]}\t{self.names[self.span_name[k]]}\t"
                    f"{self.span_start[k]:.9f}\t{self.span_end[k]:.9f}\t{self.span_parent[k]}\n"
                )

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        had_own = attr in vars(owner)
        original = vars(owner).get(attr)
        setattr(wrapper, WRAPPED, True)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, had_own))

    def install(self) -> None:
        """Wrap every layer function and method listed in this module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "confmine"]
        targets = {}
        for name, (mod_name, attr) in FUNCTIONS.items():
            targets[id(getattr(sys.modules[mod_name], attr))] = (name, getattr(sys.modules[mod_name], attr))
        miner = sys.modules["confmine.miner"]
        targets[id(miner.mine_trace)] = ("miner.mine", miner.mine_trace)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and value is hit[1]:
                    self._patch(mod, attr, self._wrap_function(*hit))

        fca = sys.modules["confmine.fca"]
        self._patch(
            fca.ExtensionalAbstraction, "apply",
            self._wrap_method("fca.abstraction_apply", fca.ExtensionalAbstraction.apply),
        )
        families = sys.modules["confmine.families"]
        for cls in vars(families).values():
            if not (isinstance(cls, type) and issubclass(cls, families.PatternFamily)):
                continue
            for method in FAMILY_METHODS:
                if method in vars(cls):
                    self._patch(cls, method, self._wrap_method(f"families.{method}", vars(cls)[method]))

    def uninstall(self) -> None:
        """Restore every original, most recent patch first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap_function(self, name: str, fn):
        if name == "miner.mine":
            return self._wrap_mine_trace(fn)
        call = self.call
        counts = self.counts
        if name == "implications.equivalence_classes":
            def wrapper(*args, **kwargs):
                result = call(name, fn, *args, **kwargs)
                counts["implications.classes"] += len(result)
                return result
        elif name == "oracle.materialize":
            def wrapper(*args, **kwargs):
                result = call(name, fn, *args, **kwargs)
                counts["oracle.materialize.members"] += len(result)
                return result
        else:
            def wrapper(*args, **kwargs):
                return call(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_method(self, name: str, fn):
        call = self.call
        counts = self.counts
        if name == "families.augmentations":
            def wrapper(family, pattern):
                result = call(name, fn, family, pattern)
                counts["augmentations.tested"] += family.universe.size - pattern.bit_count()
                counts["augmentations.returned"] += len(result)
                return result
        else:
            def wrapper(*args, **kwargs):
                return call(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_mine_trace(self, fn):
        """Pass-through over the event stream: each resumption of the traversal is
        a ``miner.mine`` span; events are counted by kind and depth is followed
        through ``parent_intent``."""
        miner = sys.modules["confmine.miner"]
        mine_event, prune_event = miner.MineEvent, miner.PruneEvent
        tracer = self

        def wrapper(cfg):
            events = tracer.call("miner.mine", fn, cfg)
            counts = tracer.counts
            depth: dict[int, int] = {}
            while True:
                sid, parent = tracer._open()
                start = perf_counter()
                try:
                    ev = next(events)
                except StopIteration:
                    return
                finally:
                    tracer._close("miner.mine", sid, parent, start, perf_counter())
                if isinstance(ev, mine_event):
                    counts["miner.emitted"] += 1
                    d = 1 if ev.parent_intent is None else depth[ev.parent_intent] + 1
                    depth[ev.concept.intent] = d
                    if d > counts["miner.max_depth"]:
                        counts["miner.max_depth"] = d
                elif isinstance(ev, prune_event):
                    if ev.at_root:
                        counts["miner.prune_root"] += 1
                    elif ev.blocked_by_minimal is not None:
                        counts["miner.prune_minimal"] += 1
                    else:
                        counts["miner.prune_item"] += 1
                else:
                    counts["miner.minimals_processed"] += 1
                yield ev

        wrapper.__wrapped__ = fn
        return wrapper


def installed_wrappers() -> list[str]:
    """Names of confmine attributes that are still benchmark wrappers."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "confmine":
            continue
        for attr, value in vars(mod).items():
            if getattr(value, WRAPPED, False):
                found.append(f"{mod_name}.{attr}")
            if isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, WRAPPED, False):
                        found.append(f"{mod_name}.{attr}.{cattr}")
    return found
