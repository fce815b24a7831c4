"""Definition-level brute force: materialize families, compute closures by
exhaustive scan, and check every structural theorem the fast paths rely on.

Nothing here reuses the projection-based closure code; closures are recomputed
from the raw definitions so the two routes can disagree loudly.  Everything is
exponential by design and bounded by an explicit budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import islice
from typing import Iterable, Sequence

from .confluence import (
    ExplicitConfluence,
    NotConfluenceError,
    is_closed_under_local_meet,
    is_confluence,
)
from .families import PatternFamily
from .fca import (
    ExtensionalAbstraction,
    ObjectContext,
    closure,
    extension,
    intension,
    verify_extent_decomposition,
)
from .miner import MinerConfig, NotStronglyAccessibleError, mine
from .order import FinitePoset, OperatorMap, classify_operator, closure_from_subset
from .patterns import is_subset, iter_indices, mask_of


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
    turns up, so its ``partial`` is always ``budget + 1``, and ``ValueError``
    for a negative budget.
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    found = list(islice(fam.members(), budget + 1))
    if len(found) > budget:
        raise BudgetExceededError(budget, budget + 1)
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
    poset = family_poset({t for t in members if is_subset(pattern, t)})
    return _scan_closure(poset, _abstract_supports(ctx, poset.ids, abstraction), pattern)


def oracle_closed_set(
    ctx: ObjectContext, members: Sequence[int], abstraction: ExtensionalAbstraction
) -> set[int]:
    """Patterns with no strict superset in the family sharing their abstract support."""
    poset = family_poset(set(members))
    return _scan_closed_set(poset, _abstract_supports(ctx, poset.ids, abstraction))


def _abstract_supports(ctx, members, abstraction) -> dict[int, int]:
    """Each member's abstract support, by object scan, in ``members`` order."""
    return {t: abstraction.apply(_support(ctx, t)) for t in members}


def _scan_closure(poset: FinitePoset, supports: dict[int, int], pattern: int) -> int:
    """:func:`oracle_closure` read off the inclusion order and every member's support."""
    ids, up = poset.ids, poset.up
    same = mask_of(
        j for j in iter_indices(up[poset.index(pattern)]) if supports[ids[j]] == supports[pattern]
    )
    maximals = tuple(ids[j] for j in iter_indices(same) if up[j] & same == 1 << j)
    if len(maximals) != 1:
        raise ClosureUndefinedError(pattern, maximals)
    return maximals[0]


def _scan_closed_set(poset: FinitePoset, supports: dict[int, int]) -> set[int]:
    ids = poset.ids
    return {
        t
        for i, t in enumerate(ids)
        if not any(supports[ids[j]] == supports[t] for j in iter_indices(poset.up[i] & ~(1 << i)))
    }


def family_poset(members: Iterable[int]) -> FinitePoset:
    """The inclusion order on distinct members, sorted by mask, with masks as ids."""
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

    def to_dict(self, context: ObjectContext) -> dict:
        return {
            "v": 1,
            "family_size": self.family_size,
            "closed": [context.universe.format(t) for t in self.closed],
            "concepts": [
                {
                    "intent": context.universe.format(t),
                    "extent": context.objects.format(e),
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
    abstraction: ExtensionalAbstraction = ExtensionalAbstraction(),
    seed: int = 0,
    budget: int = 4096,
) -> OracleReport:
    """Run every structural check against one instance and collect verdicts.

    The members' inclusion order, supports, closures by each route and the closed
    set's local-meet verdict are computed once and shared; a call that raises is
    not cached, so raises again.  Every check reads the members above and below
    a member off the order's ``up`` and ``down`` masks.
    """
    rng = random.Random(seed)
    members = materialize(fam, budget)
    poset = family_poset(members)
    supports = _abstract_supports(ctx, members, abstraction)
    closed = sorted(_scan_closed_set(poset, supports))
    concepts = tuple((t, supports[t]) for t in closed)
    report = OracleReport(family_size=len(members), closed=tuple(closed), concepts=concepts)
    checks = report.checks
    projection = cache(lambda t: closure(ctx, fam, t, abstraction.apply(extension(ctx, t))))
    scan = cache(partial(_scan_closure, poset, supports))

    def run(name, fn, *args):
        # a check that blows up is a failed check, not a crashed report
        try:
            checks[name] = fn(*args)
        except Exception as exc:
            checks[name] = CheckResult(False, f"check raised {type(exc).__name__}: {exc}")

    run("subconfluence", _check_subconfluence, poset)
    run("closure_exists_everywhere", _check_closure_total, members, scan)
    # Building the confluence checks it: the one is_confluence pass on the poset.
    try:
        conf = ExplicitConfluence(poset)
    except NotConfluenceError as exc:
        checks["confluence_order"] = CheckResult(False, f"witness {exc.witness!r}")
    else:
        checks["confluence_order"] = CheckResult(True)
        closed_mask = mask_of(poset.index(t) for t in closed)
        meet_verdict = cache(partial(is_closed_under_local_meet, conf, closed_mask))
        run("local_join_is_union", _check_local_join, conf, poset)
        run(
            "closed_set_locally_meet_closed",
            _check_theorem_closed_set,
            poset, closed_mask, projection, meet_verdict,
        )
        run(
            "meet_closed_per_minimal",
            _check_meet_closed_per_minimal,
            conf, poset, closed_mask, meet_verdict,
        )
    run("projection_coherence", _check_projection_coherence, fam, poset, rng)
    run("support_closure_laws", _check_support_closure_laws, poset, projection)
    run("oracle_agrees_with_projection", _check_closure_agreement, members, projection, scan)
    run("extent_decomposition", _check_extent_decomposition, ctx, fam, members)
    run("local_closure_laws", _check_local_closures, ctx, fam, rng)
    run("miner_matches_oracle", _check_miner, ctx, fam, abstraction, closed)
    return report


def _check_subconfluence(poset: FinitePoset) -> CheckResult:
    """Any two members above a common member t have their union in the family;
    the witness is the first (t, x, y) in mask order whose union escapes."""
    ids = poset.ids
    member_set = set(ids)
    for t, up in zip(ids, poset.up):
        above = [ids[j] for j in iter_indices(up)]
        for a, x in enumerate(above):
            for y in above[a + 1 :]:
                if x | y not in member_set:
                    return CheckResult(False, f"witness {(t, x, y)!r}")
    return CheckResult(True)


def _check_closure_total(members, scan) -> CheckResult:
    for t in members:
        try:
            scan(t)
        except ClosureUndefinedError as exc:
            return CheckResult(False, str(exc))
    return CheckResult(True)


def _check_local_join(conf: ExplicitConfluence, poset: FinitePoset) -> CheckResult:
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


def _check_theorem_closed_set(poset, closed_mask, projection, meet_verdict) -> CheckResult:
    verdict = meet_verdict()
    if not verdict:
        return CheckResult(False, f"closed set not locally meet closed: {verdict.witness!r}")
    op = closure_from_subset(poset, closed_mask)[0]  # total: the verdict holds
    cls = classify_operator(op)
    if cls.kind != "closure":
        return CheckResult(False, f"reconstructed operator is {cls.kind}: {cls.witness!r}")
    if op.range_mask() != closed_mask:
        return CheckResult(False, "reconstructed closure range differs from the closed set")
    for i, t in enumerate(poset.ids):
        if poset.ids[op.table[i]] != projection(t):
            return CheckResult(
                False, f"reconstructed closure disagrees with support closure at {t}"
            )
    sub, _ = poset.restrict(closed_mask)
    sub_verdict = is_confluence(sub)
    if not sub_verdict:
        return CheckResult(False, f"closed set is not a confluence: {sub_verdict.witness!r}")
    return CheckResult(True)


def _check_meet_closed_per_minimal(conf, poset, closed_mask, meet_verdict) -> CheckResult:
    """Above each minimal m, ``closed & up[m]`` is meet closed iff a closure onto it
    exists: iff each x above m has ``closed & up[x]`` equal to a ``closed & up[g]``,
    g closed.  Members above x lie above m, so the full order answers for every m.
    Meet closure is read off the shared verdict: the minimals before its witness
    pass, and the witness fails on its pair or its missing local top."""
    ids, up = poset.ids, poset.up
    least = {closed_mask & up[g] for g in iter_indices(closed_mask)}
    unclosable = mask_of(x for x in range(poset.n) if closed_mask & up[x] not in least)
    verdict = meet_verdict()
    for m in conf.minimal_indices:
        failed = not verdict and verdict.witness[0] == ids[m]
        if failed != bool(up[m] & unclosable):
            return CheckResult(
                False, f"meet-closedness and subset-closure existence disagree above {ids[m]}"
            )
        if failed:
            detail = verdict.witness[1] or ids[conf.local_tops[m]]
            return CheckResult(False, f"closed set above {ids[m]} not meet closed: {detail!r}")
    return CheckResult(True)


def _check_projection_coherence(fam, poset, rng) -> CheckResult:
    full = fam.universe.full_mask
    ids = poset.ids
    for _ in range(40):
        i = rng.choice(range(poset.n))
        t, q = ids[i], ids[rng.choice(list(iter_indices(poset.down[i])))]
        extra = rng.randrange(full + 1)
        x = t | extra
        if fam.project(t, x) != fam.project(q, x):
            return CheckResult(False, f"projections at {t} and {q} disagree on {x}")
    return CheckResult(True)


def _check_support_closure_laws(poset, projection) -> CheckResult:
    table = [poset.index(projection(t)) for t in poset.ids]
    cls = classify_operator(OperatorMap(poset, table))
    if cls.kind != "closure":
        return CheckResult(
            False, f"support closure violates {cls.failed_law}: {cls.witness!r}"
        )
    return CheckResult(True)


def _check_closure_agreement(members, projection, scan) -> CheckResult:
    for t in members:
        fast, slow = projection(t), scan(t)
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
        out.add(sum(1 << b for b in bits if rng.random() < 0.5))
    return sorted(out)


def _check_miner(ctx, fam, abstraction, closed) -> CheckResult:
    cfg = MinerConfig(family=fam, context=ctx, abstraction=abstraction)
    try:
        mined = [c.intent for c in mine(cfg)]
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
