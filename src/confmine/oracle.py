"""Definition-level brute force: materialize families, compute closures by
exhaustive scan, and check every structural theorem the fast paths rely on.

Nothing here reuses the projection-based closure code; closures are recomputed
from the raw definitions so the two routes can disagree loudly.  Everything is
exponential by design and bounded by an explicit budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from .confluence import (
    ExplicitConfluence,
    closure_from_local_meet_subset,
    is_closed_under_local_meet,
    is_confluence,
)
from .families import PatternFamily
from .fca import (
    ExtensionalAbstraction,
    ObjectContext,
    abstract_support_closure,
    intension,
    verify_extent_decomposition,
)
from .miner import MinerConfig, NotStronglyAccessibleError, mine
from .order import (
    FiniteLattice,
    FinitePoset,
    OperatorMap,
    classify_operator,
    closure_from_subset,
    is_meet_closed,
)
from .patterns import Universe, bit, is_subset, iter_indices, mask_of


class BudgetExceededError(RuntimeError):
    def __init__(self, budget: int, partial: int):
        super().__init__(
            f"family exceeds the materialization budget of {budget} (found {partial}+ members)"
        )
        self.budget = budget
        self.partial = partial


class ClosureUndefinedError(ValueError):
    """No unique maximum shares the support: the family is not a subconfluence."""

    def __init__(self, pattern: int, maximals: tuple[int, ...]):
        super().__init__(
            f"support closure undefined at {pattern}: maximal candidates {maximals!r}"
        )
        self.pattern = pattern
        self.maximals = maximals


def _support(ctx: ObjectContext, pattern: int) -> int:
    """Objects whose description contains the pattern, by scanning every object.

    The definition itself; ``fca.extension`` answers from item tidsets instead.
    """
    return mask_of(o for o, d in enumerate(ctx.descriptions) if is_subset(pattern, d))


def materialize(fam: PatternFamily, budget: int = 4096) -> list[int]:
    """Every family member, sorted by mask, as ``fam.members()`` lists them.

    Raises :class:`BudgetExceededError` as soon as a member beyond the budget
    turns up, so its ``partial`` is always ``budget + 1``.  Explicit and
    connected families list themselves completely; the ``PatternFamily``
    default needs a strongly accessible family.
    """
    found: list[int] = []
    for p in fam.members():
        if len(found) == budget:
            raise BudgetExceededError(budget, budget + 1)
        found.append(p)
    found.sort()
    return found


def oracle_closure(
    ctx: ObjectContext,
    members: Sequence[int],
    abstraction: ExtensionalAbstraction,
    pattern: int,
) -> int:
    """The unique maximum family member above ``pattern`` with its abstract support.

    Computed by full scan; a non-unique maximum (impossible over a
    subconfluence) raises :class:`ClosureUndefinedError`.
    """
    if pattern not in set(members):
        raise ValueError("pattern outside the family")
    target = abstraction.apply(_support(ctx, pattern))
    candidates = [
        t
        for t in members
        if is_subset(pattern, t) and abstraction.apply(_support(ctx, t)) == target
    ]
    maximals = tuple(
        t for t in candidates if not any(u != t and is_subset(t, u) for u in candidates)
    )
    if len(maximals) != 1:
        raise ClosureUndefinedError(pattern, maximals)
    return maximals[0]


def oracle_closed_set(
    ctx: ObjectContext, members: Sequence[int], abstraction: ExtensionalAbstraction
) -> set[int]:
    """Patterns with no strict superset in the family sharing their abstract support."""
    supports = {t: abstraction.apply(_support(ctx, t)) for t in members}
    return {
        t
        for t in members
        if not any(u != t and is_subset(t, u) and supports[u] == supports[t] for u in members)
    }


def family_poset(members: Sequence[int]) -> FinitePoset:
    """The inclusion order on materialized members, with masks as element ids."""
    ordered = sorted(members)
    up = []
    for x in ordered:
        mask = 0
        for j, y in enumerate(ordered):
            if is_subset(x, y):
                mask |= 1 << j
        up.append(mask)
    return FinitePoset(ordered, up, _validate=False)


@dataclass(frozen=True)
class CheckResult:
    passed: bool | None  # None: skipped
    detail: str = ""


@dataclass
class OracleReport:
    """Per-theorem verdicts for one (context, family, abstraction) instance.

    ``concepts`` pairs each closed pattern with its abstract extent, both
    computed by definition-level scan.
    """

    family_size: int
    closed: tuple[int, ...]
    concepts: tuple[tuple[int, int], ...]
    checks: dict[str, CheckResult] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.passed is not False for c in self.checks.values())

    def first_counterexample(self) -> tuple[str, str] | None:
        for name, c in self.checks.items():
            if c.passed is False:
                return name, c.detail
        return None

    def to_dict(self, universe: Universe, objects: Sequence[str] | None = None) -> dict:
        def object_name(i: int) -> str:
            return objects[i] if objects is not None else f"#{i}"

        return {
            "v": 1,
            "family_size": self.family_size,
            "closed": [universe.format(t) for t in self.closed],
            "concepts": [
                {
                    "intent": universe.format(t),
                    "extent": " ".join(object_name(i) for i in iter_indices(e)) or "{}",
                }
                for t, e in self.concepts
            ],
            "ok": self.ok,
            "checks": {
                name: {"passed": c.passed, "detail": c.detail}
                for name, c in self.checks.items()
            },
        }


def verify_all(
    ctx: ObjectContext,
    fam: PatternFamily,
    abstraction: ExtensionalAbstraction | None = None,
    seed: int = 0,
    budget: int = 4096,
) -> OracleReport:
    """Run every structural check against one instance and collect verdicts."""
    abstraction = abstraction or ExtensionalAbstraction.identity()
    rng = random.Random(seed)
    members = materialize(fam, budget)
    closed = sorted(oracle_closed_set(ctx, members, abstraction))
    concepts = tuple((t, abstraction.apply(_support(ctx, t))) for t in closed)
    report = OracleReport(family_size=len(members), closed=tuple(closed), concepts=concepts)
    checks = report.checks

    def run(name, fn, *args):
        # a check that blows up is a failed check, not a crashed report
        try:
            checks[name] = fn(*args)
        except Exception as exc:
            checks[name] = CheckResult(False, f"check raised {type(exc).__name__}: {exc}")

    run("subconfluence", _check_subconfluence, members)
    run("closure_exists_everywhere", _check_closure_total, ctx, members, abstraction)
    poset = family_poset(members)
    conf_verdict = is_confluence(poset)
    checks["confluence_order"] = CheckResult(
        bool(conf_verdict), "" if conf_verdict else f"witness {conf_verdict.witness!r}"
    )
    if conf_verdict:
        conf = ExplicitConfluence(poset)
        run("local_join_is_union", _check_local_join, conf, poset, members)
        run(
            "closed_set_locally_meet_closed",
            _check_theorem_closed_set,
            ctx, fam, conf, poset, members, abstraction, closed,
        )
        run("meet_closed_per_minimal", _check_meet_closed_per_minimal, conf, poset, closed)
    run("projection_coherence", _check_projection_coherence, fam, members, rng)
    run("support_closure_laws", _check_support_closure_laws, ctx, fam, poset, members, abstraction)
    run("oracle_agrees_with_projection", _check_closure_agreement, ctx, fam, members, abstraction)
    run("extent_decomposition", _check_extent_decomposition, ctx, fam, members)
    run("local_closure_laws", _check_local_closures, ctx, fam, rng)
    run("miner_matches_oracle", _check_miner, ctx, fam, abstraction, closed)
    return report


def _check_subconfluence(members: Sequence[int]) -> CheckResult:
    """Any two members above a common member t have their union in the family;
    the witness is the first (t, x, y) in mask order whose union escapes."""
    member_set = set(members)
    ordered = sorted(member_set)
    for t in ordered:
        above = [x for x in ordered if is_subset(t, x)]
        for a, x in enumerate(above):
            for y in above[a + 1 :]:
                if x | y not in member_set:
                    return CheckResult(False, f"witness {(t, x, y)!r}")
    return CheckResult(True)


def _check_closure_total(ctx, members, abstraction) -> CheckResult:
    for t in members:
        try:
            oracle_closure(ctx, members, abstraction, t)
        except ClosureUndefinedError as exc:
            return CheckResult(False, str(exc))
    return CheckResult(True)


def _check_local_join(conf: ExplicitConfluence, poset: FinitePoset, members) -> CheckResult:
    n = poset.n
    for x in range(n):
        for y in range(x, n):
            if poset.down[x] & poset.down[y] == 0:
                continue
            j = conf.local_join(x, y)
            expected = poset.ids[x] | poset.ids[y]
            if j is None or poset.ids[j] != expected:
                return CheckResult(
                    False, f"local join of {poset.ids[x]} and {poset.ids[y]} is not their union"
                )
    return CheckResult(True)


def _check_theorem_closed_set(
    ctx, fam, conf, poset, members, abstraction, closed
) -> CheckResult:
    closed_mask = 0
    for t in closed:
        closed_mask |= 1 << poset.index(t)
    verdict = is_closed_under_local_meet(conf, closed_mask)
    if not verdict:
        return CheckResult(False, f"closed set not locally meet closed: {verdict.witness!r}")
    op = closure_from_local_meet_subset(conf, closed_mask)
    cls = classify_operator(op)
    if cls.kind != "closure":
        return CheckResult(False, f"reconstructed operator is {cls.kind}: {cls.witness!r}")
    if op.range_mask() != closed_mask:
        return CheckResult(False, "reconstructed closure range differs from the closed set")
    for t in members:
        i = poset.index(t)
        if poset.ids[op.table[i]] != abstract_support_closure(ctx, fam, abstraction, t):
            return CheckResult(
                False, f"reconstructed closure disagrees with support closure at {t}"
            )
    sub, _ = poset.restrict(closed_mask)
    sub_verdict = is_confluence(sub)
    if not sub_verdict:
        return CheckResult(False, f"closed set is not a confluence: {sub_verdict.witness!r}")
    return CheckResult(True)


def _check_meet_closed_per_minimal(conf, poset, closed) -> CheckResult:
    closed_set = set(closed)
    for m in conf.minimal_indices:
        up = poset.up[m]
        sub, old = poset.restrict(up)
        lat = FiniteLattice.from_poset(sub)
        c_mask = 0
        for k, o in enumerate(old):
            if poset.ids[o] in closed_set:
                c_mask |= 1 << k
        verdict = is_meet_closed(lat, c_mask)
        op, witness = closure_from_subset(sub, c_mask)
        if bool(verdict) != (op is not None):
            return CheckResult(
                False,
                f"meet-closedness and subset-closure existence disagree above {poset.ids[m]}",
            )
        if op is None:
            return CheckResult(
                False, f"closed set above {poset.ids[m]} not meet closed: {verdict.witness!r}"
            )
    return CheckResult(True)


def _check_projection_coherence(fam, members, rng) -> CheckResult:
    full = fam.universe.full_mask
    member_list = list(members)
    for _ in range(40):
        t = rng.choice(member_list)
        below = [q for q in member_list if is_subset(q, t)]
        q = rng.choice(below)
        extra = rng.randrange(full + 1)
        x = t | extra
        if fam.project(t, x) != fam.project(q, x):
            return CheckResult(False, f"projections at {t} and {q} disagree on {x}")
    return CheckResult(True)


def _check_support_closure_laws(ctx, fam, poset, members, abstraction) -> CheckResult:
    table = [
        poset.index(abstract_support_closure(ctx, fam, abstraction, t))
        for t in poset.ids
    ]
    cls = classify_operator(OperatorMap(poset, table))
    if cls.kind != "closure":
        return CheckResult(
            False, f"support closure violates {cls.failed_law}: {cls.witness!r}"
        )
    return CheckResult(True)


def _check_closure_agreement(ctx, fam, members, abstraction) -> CheckResult:
    for t in members:
        fast = abstract_support_closure(ctx, fam, abstraction, t)
        slow = oracle_closure(ctx, members, abstraction, t)
        if fast != slow:
            return CheckResult(False, f"projection route {fast} != scan route {slow} at {t}")
    return CheckResult(True)


def _check_extent_decomposition(ctx, fam, members) -> CheckResult:
    equal, only_left, only_right = verify_extent_decomposition(ctx, fam, members)
    if equal:
        return CheckResult(True)
    return CheckResult(
        False, f"extent image mismatch: left-only {only_left!r}, right-only {only_right!r}"
    )


def _check_local_closures(ctx, fam, rng) -> CheckResult:
    """Each extension . project_m . intension must be a closure on subsets of ext(m)."""
    for m in fam.minimals():
        ext_m = _support(ctx, m)

        def h(x: int) -> int:
            return _support(ctx, fam.project(m, intension(ctx, x)))

        subsets = _subsets_within(ext_m, rng, cap=64)
        for x in subsets:
            hx = h(x)
            if x & ~hx:
                return CheckResult(False, f"local closure not extensive at {x}")
            if h(hx) != hx:
                return CheckResult(False, f"local closure not idempotent at {x}")
        for _ in range(min(64, len(subsets) ** 2)):
            x, y = rng.choice(subsets), rng.choice(subsets)
            if is_subset(x, y) and h(x) & ~h(y):
                return CheckResult(False, f"local closure not monotone on ({x}, {y})")
    return CheckResult(True)


def _subsets_within(mask: int, rng, cap: int) -> list[int]:
    count = 1 << mask.bit_count()
    if count <= cap:
        out = []
        sub = mask
        while True:
            out.append(sub)
            if sub == 0:
                break
            sub = (sub - 1) & mask
        return out
    bits = list(iter_indices(mask))
    out = {0, mask}
    while len(out) < cap:
        out.add(sum(bit(b) for b in bits if rng.random() < 0.5))
    return sorted(out)


def _check_miner(ctx, fam, abstraction, closed) -> CheckResult:
    cfg = MinerConfig(family=fam, context=ctx, abstraction=abstraction)
    try:
        mined = [ev.concept.intent for ev in mine(cfg)]
    except NotStronglyAccessibleError as exc:
        return CheckResult(None, f"skipped: {exc}")
    if len(mined) != len(set(mined)):
        return CheckResult(False, "miner emitted a duplicate intent")
    if set(mined) != set(closed):
        return CheckResult(
            False,
            f"miner {sorted(mined)!r} != oracle {sorted(closed)!r}",
        )
    return CheckResult(True)
