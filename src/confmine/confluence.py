"""Confluences, local meets/joins, locally meet-closed subsets and subconfluences.

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
    closure_from_subset,
    meet_closed,
)
from .patterns import iter_indices, mask_of


class NotConfluenceError(ValueError):
    def __init__(self, witness: object):
        super().__init__(f"poset is not a confluence: witness {witness!r}")
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
    """Check that x join y stays in ``members`` whenever x, y share a member below:
    the members above each member t are join-closed, t being their empty join.

    Witness is the offending triple ``(t, x, y)``.
    """
    p = host.poset
    for t in iter_indices(members):
        verdict = meet_closed(p.ids, members & p.up[t], t, host.join)
        if not verdict:
            return Verdict(False, (p.ids[t], *verdict.witness))
    return Verdict(True)
