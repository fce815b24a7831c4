"""Confluences, local meets/joins, subconfluences and their interior families.

A confluence is a finite poset in which every principal up set is a lattice;
only the up sets of minimal elements need checking.  A subconfluence of a
lattice is a subset forming a confluence whose local join is the host join,
equivalently a subset closed under join above any common member.
"""

from __future__ import annotations

from functools import partial

from .order import (
    FiniteLattice,
    FinitePoset,
    OperatorMap,
    Verdict,
    classify_operator,
    closure_from_subset,
    meet_closed,
)
from .patterns import iter_indices, mask_of


class NotConfluenceError(ValueError):
    def __init__(self, witness: object):
        super().__init__(f"poset is not a confluence: witness {witness!r}")
        self.witness = witness


class NotSubconfluenceError(ValueError):
    def __init__(self, witness: object, message: str | None = None):
        super().__init__(
            message or f"family is not a subconfluence: join of {witness!r} escapes it"
        )
        self.witness = witness


class NotLocallyMeetClosedError(ValueError):
    def __init__(self, witness: object):
        super().__init__(f"subset is not closed under local meet: witness {witness!r}")
        self.witness = witness


def _local_bounds(poset: FinitePoset) -> tuple[dict[int, dict[int, int]], Verdict]:
    """The confluence test, keeping each minimal m's table ``{down[g] & up[m]: g}``.

    A down set S inside the up set U has a greatest element g exactly when
    ``S == down[g] & U``, so every bound inside ``up[m]`` is one lookup.
    """
    down, ids = poset.down, poset.ids
    bounds = {}
    for m in iter_indices(poset.minimal_mask()):
        up = poset.up[m]
        elems = list(iter_indices(up))
        table = {down[g] & up: g for g in elems}
        if up not in table:
            return bounds, Verdict(False, (ids[m], None))
        for a, x in enumerate(elems):
            for y in elems[a + 1 :]:
                if down[x] & down[y] & up not in table:
                    return bounds, Verdict(False, (ids[m], (ids[x], ids[y])))
        bounds[m] = table
    return bounds, Verdict(True)


def is_confluence(poset: FinitePoset) -> Verdict:
    """Check that every minimal element's up set is a lattice.

    The witness is ``(m, None)`` when the up set of m lacks a greatest
    element, or ``(m, (x, y))`` when x and y lack a meet inside it.
    """
    return _local_bounds(poset)[1]


class ExplicitConfluence:
    """A materialized confluence: carrier poset, minimal elements, local tops,
    and the bound table of each minimal's up set that the confluence test built."""

    def __init__(self, carrier: FinitePoset):
        self._bounds, verdict = _local_bounds(carrier)
        if not verdict:
            raise NotConfluenceError(verdict.witness)
        self.carrier = carrier
        self.minimal_indices = tuple(self._bounds)
        self._minimal_mask = mask_of(self._bounds)
        self.local_tops = {m: table[carrier.up[m]] for m, table in self._bounds.items()}
        self._least_by_up = {u: g for g, u in enumerate(carrier.up)}

    def _minimal_below(self, t: int) -> int:
        below = self.carrier.down[t] & self._minimal_mask
        if not below:
            raise ValueError("element below no minimal; poset is corrupt")
        return (below & -below).bit_length() - 1

    def local_top_of(self, t: int) -> int:
        """The greatest element of the up set of t (equal for every minimal below t)."""
        return self.local_tops[self._minimal_below(t)]

    def local_meet(self, t: int, x: int, y: int) -> int:
        """Greatest lower bound of {x, y} within the up set of t.

        Their meet in the up set of a minimal m below t lies above t, so it is
        this bound: one lookup in m's table.
        """
        c = self.carrier
        up = c.up[t]
        if not ((up >> x) & 1 and (up >> y) & 1):
            raise ValueError("local meet arguments must lie above the base element")
        m = self._minimal_below(t)
        return self._bounds[m][c.down[x] & c.down[y] & c.up[m]]

    def local_join(self, x: int, y: int) -> int | None:
        """Least common upper bound, the g with ``up[g] == up[x] & up[y]``, or None."""
        return self._least_by_up.get(self.carrier.up[x] & self.carrier.up[y])


def is_closed_under_local_meet(conf: ExplicitConfluence, members: int) -> Verdict:
    """Check a subset is closed under every local meet, including the empty one.

    Each local meet above t is one above a minimal m below t, so only the up
    sets of the minimals are tried.  The witness is ``(m, None)`` when the
    local top above the first failing minimal m is missing from the subset,
    ``(m, (x, y))`` for an escaping pairwise local meet; when the index order
    extends the order, m is also the first failing element in index order.
    """
    p = conf.carrier
    for m in conf.minimal_indices:
        top = conf.local_tops[m]
        verdict = meet_closed(p.ids, members & p.up[m], top, partial(conf.local_meet, m))
        if not verdict:
            return Verdict(False, (p.ids[m], verdict.witness if (members >> top) & 1 else None))
    return Verdict(True)


def closure_from_local_meet_subset(conf: ExplicitConfluence, members: int) -> OperatorMap:
    """The closure operator whose range is a locally meet-closed subset.

    Maps each t to the local meet of all subset members above t, i.e. their
    least one.  Raises :class:`NotLocallyMeetClosedError` with the witness when
    the precondition fails.
    """
    verdict = is_closed_under_local_meet(conf, members)
    if not verdict:
        raise NotLocallyMeetClosedError(verdict.witness)
    return closure_from_subset(conf.carrier, members)[0]  # total: local tops are members


def is_subconfluence(host: FiniteLattice, members: int) -> Verdict:
    """Check that x join y stays in ``members`` whenever x, y share a member below.

    Witness is the offending triple ``(t, x, y)``.
    """
    p = host.poset
    for t in iter_indices(members):
        above = list(iter_indices(members & p.up[t]))
        for a, x in enumerate(above):
            for y in above[a + 1 :]:
                if not (members >> host.join(x, y)) & 1:
                    return Verdict(False, (p.ids[t], p.ids[x], p.ids[y]))
    return Verdict(True)


class InteriorFamily:
    """A subconfluence of a host lattice with its per-member interior projections.

    ``project(t, x)`` returns the greatest family member below x that contains
    t; by coherence the value only depends on x and any family member below t,
    so projections anchored at different members below t agree.
    """

    def __init__(self, host: FiniteLattice, members: int):
        verdict = is_subconfluence(host, members)
        if not verdict:
            raise NotSubconfluenceError(verdict.witness)
        if members == 0:
            raise ValueError("empty family")
        self.host = host
        self.members = members

    def project(self, t: int, x: int) -> int:
        if not (self.members >> t) & 1:
            raise ValueError("projection base must belong to the family")
        p = self.host.poset
        if not p.leq(t, x):
            raise ValueError("projection argument must contain the base")
        # the family is join-closed above t, so this join is its greatest member below x
        return self.host.join_all(self.members & p.up[t] & p.down[x])


def lift_closure(fam: InteriorFamily, f: OperatorMap) -> OperatorMap:
    """Turn a closure on the host lattice into one on the family.

    Each family member t maps to the projection at t of its host closure.  The
    result lives on the induced subposet of the family.
    """
    host_poset = fam.host.poset
    if f.domain != host_poset:
        raise ValueError("closure must live on the family's host lattice")
    if not classify_operator(f).is_closure:
        raise ValueError("operator is not a closure on the host lattice")
    sub, old = host_poset.restrict(fam.members)
    pos = {o: k for k, o in enumerate(old)}
    table = [pos[fam.project(t, f.table[t])] for t in old]
    return OperatorMap(sub, table)
