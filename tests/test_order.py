"""Poset/lattice construction, operator classification, and the meet/join
closed-subset characterizations, including their randomized law suites."""

import random

import pytest

import confmine as cm
from confmine.order import (
    FiniteLattice,
    FinitePoset,
    LatticeError,
    OperatorMap,
    PosetError,
    load_poset,
    powerset_lattice,
)
from confmine.patterns import iter_indices, mask_of

from randomized import random_lattice, random_subset


def subset_mask(lat: FiniteLattice, *element_ids) -> int:
    return mask_of(lat.poset.index(e) for e in element_ids)


@pytest.fixture(scope="module")
def p4() -> FiniteLattice:
    # powerset of {a, b, c, d}; element ids are the subset masks, a = bit 0
    return powerset_lattice(4)


def m(*letters: str) -> int:
    return mask_of("abcd".index(ch) for ch in "".join(letters))


class TestFinitePoset:
    def test_reflexivity_enforced(self):
        with pytest.raises(PosetError, match="reflexive"):
            FinitePoset(["x", "y"], [0b10, 0b10])

    def test_antisymmetry_enforced(self):
        with pytest.raises(PosetError, match="antisymmetric"):
            FinitePoset(["x", "y"], [0b11, 0b11])

    def test_transitivity_enforced(self):
        # x <= y, y <= z but x !<= z
        with pytest.raises(PosetError, match="transitive"):
            FinitePoset(["x", "y", "z"], [0b011, 0b110, 0b100])

    @pytest.mark.parametrize(
        ("ids", "up", "message"),
        [
            (["a", "a"], [1, 2], "duplicate element ids"),
            (["a", "b"], [1], "up-set table size does not match element count"),
            (["a"], [3], "up-set mask references out-of-range element"),
        ],
        ids=["duplicate-id", "short-table", "out-of-range-mask"],
    )
    def test_rejects_malformed_table(self, ids, up, message):
        with pytest.raises(PosetError) as exc:
            FinitePoset(ids, up)
        assert str(exc.value) == message

    def test_dual_reverses_order(self, p4):
        dual = p4.poset.dual()
        assert dual.ids == p4.poset.ids
        assert dual.up == p4.poset.down and dual.down == p4.poset.up

    def test_dual_shares_tables(self, p4):
        # built in O(1) on each call: no table is recomputed
        poset = p4.poset
        assert poset.dual().up is poset.down and poset.dual().down is poset.up

    def test_restrict_preserves_order(self, p4):
        poset = p4.poset
        sub, old = poset.restrict(mask_of([m("a"), m("ab"), m("abc")]))
        assert sub.ids == (m("a"), m("ab"), m("abc"))
        assert sub.leq(0, 2) and not sub.leq(2, 0)
        assert old == [m("a"), m("ab"), m("abc")]


class TestPowersetLattice:
    def test_bounds_and_tables(self, p4):
        assert p4.top == m("abcd")
        assert p4.bottom == 0
        assert p4.meet(m("ab"), m("ac")) == m("a")
        assert p4.join(m("a"), m("c")) == m("ac")

    def test_from_poset_derives_same_tables(self):
        direct = powerset_lattice(3)
        derived = FiniteLattice(direct.poset)
        for x in range(direct.n):
            for y in range(direct.n):
                assert derived.meet(x, y) == direct.meet(x, y) == x & y
                assert derived.join(x, y) == direct.join(x, y) == x | y

    def test_from_poset_rejects_non_lattice(self):
        # two incomparable elements with no bounds at all
        poset = FinitePoset(["x", "y"], [0b01, 0b10])
        with pytest.raises(LatticeError):
            FiniteLattice(poset)


class TestClassifyOperator:
    def test_identity_is_closure_and_interior(self, p4):
        cls = cm.classify_operator(OperatorMap(p4.poset, range(p4.poset.n)))
        assert cls.kind == "closure"
        assert cls.is_closure and cls.is_interior

    def test_constant_to_top_is_closure(self, p4):
        cls = cm.classify_operator(OperatorMap(p4.poset, [p4.top] * p4.n))
        assert cls.kind == "closure" and not cls.is_interior

    def test_least_superset_operator(self, p4):
        members = mask_of([m("a"), m("ab"), m("ac"), m("abcd")])
        op, witness = cm.closure_from_subset(p4.poset, members)
        assert witness is None
        assert op.table[m("abc")] == m("abcd")
        assert op.table[m("ab")] == m("ab")
        assert cm.classify_operator(op).kind == "closure"

    def test_non_monotone_witness(self, p4):
        # send bottom to top and everything else to itself
        table = list(range(p4.n))
        table[0] = p4.top
        cls = cm.classify_operator(OperatorMap(p4.poset, table))
        assert cls.kind == "neither"
        assert cls.failed_law == "monotone"
        assert cls.witness is not None

    def test_non_idempotent_witness(self):
        chain = FinitePoset(["0", "1", "2"], [0b111, 0b110, 0b100])
        cls = cm.classify_operator(OperatorMap(chain, [1, 2, 2]))
        assert cls.kind == "neither" and cls.failed_law == "idempotent"


class TestClosureFromSubset:
    def test_singleton_top(self, p4):
        op, witness = cm.closure_from_subset(p4.poset, 1 << p4.top)
        assert witness is None
        assert op == OperatorMap(p4.poset, [p4.top] * p4.n)

    def test_counterexample_when_no_least_member(self, p4):
        members = mask_of([m("ab"), m("ac")])
        op, witness = cm.closure_from_subset(p4.poset, members)
        assert op is None
        # the witness must be an element whose up set meets the subset without
        # a least member; the fixed scan returns the first such element
        cand = members & p4.poset.up[p4.poset.index(witness)]
        assert all(cand & ~p4.poset.up[g] for g in iter_indices(cand))

    def test_range_equals_members(self, p4):
        members = mask_of([m("a"), m("ab"), m("ac"), m("abcd")])
        op, _ = cm.closure_from_subset(p4.poset, members)
        assert op.range_mask() == members

    def test_interior_dual(self, p4):
        members = mask_of([0, m("ab"), m("ac"), m("abc")])
        op, witness = cm.interior_from_subset(p4.poset, members)
        assert witness is None
        assert op.table[m("a")] == 0
        assert op.table[m("abcd")] == m("abc")
        assert cm.classify_operator(op).is_interior

    def test_interior_counterexample_when_no_greatest_member(self, p4):
        op, witness = cm.interior_from_subset(p4.poset, mask_of([0, m("ab"), m("ac")]))
        assert op is None
        assert witness == m("abc")

    def test_interior_counterexample_without_bottom(self, p4):
        op, witness = cm.interior_from_subset(p4.poset, mask_of([m("ab"), m("ac")]))
        assert op is None
        assert witness == 0


class TestMeetJoinClosed:
    def test_meet_closed_family(self, p4):
        assert cm.is_meet_closed(p4, mask_of([m("a"), m("ab"), m("ac"), m("abcd")]))

    def test_missing_top_witness(self, p4):
        verdict = cm.is_meet_closed(p4, mask_of([0, m("a"), m("c"), m("abc")]))
        assert not verdict
        assert verdict.witness == m("abcd")

    def test_full_lattice_meet_closed(self, p4):
        assert cm.is_meet_closed(p4, p4.poset.full_mask)

    def test_join_closed_family(self, p4):
        assert cm.is_join_closed(p4, mask_of([0, m("ab"), m("ac"), m("abc")]))

    def test_join_violation_witness(self, p4):
        verdict = cm.is_join_closed(p4, mask_of([0, m("a"), m("c"), m("abc")]))
        assert not verdict
        assert verdict.witness == (m("a"), m("c"))

    def test_missing_bottom_witness(self, p4):
        verdict = cm.is_join_closed(p4, mask_of([m("a"), m("c"), m("ac")]))
        assert not verdict
        assert verdict.witness == p4.bottom == 0

    def test_bottom_alone_join_closed(self, p4):
        assert cm.is_join_closed(p4, 1 << p4.bottom)


class TestOperatorMap:
    @pytest.mark.parametrize(
        ("table", "message"),
        [
            ([0, 1], "operator table size does not match poset"),
            ([0, 1, 2, 4], "operator image outside poset"),
        ],
        ids=["short-table", "image-out-of-range"],
    )
    def test_rejects_malformed_table(self, table, message):
        with pytest.raises(ValueError) as exc:
            OperatorMap(powerset_lattice(2).poset, table)
        assert str(exc.value) == message


class TestPosetFormat:
    def test_round_trip_order(self):
        poset = load_poset(
            ["bot: covers", "x: covers bot", "y: covers bot", "top: covers x y"]
        )
        assert poset.leq(poset.index("bot"), poset.index("top"))
        assert not poset.leq(poset.index("x"), poset.index("y"))
        lat = FiniteLattice(poset)
        assert lat.poset.ids[lat.top] == "top"

    def test_comments_and_blank_lines(self):
        poset = load_poset(["# a chain", "", "lo: covers", "hi: covers lo  # top"])
        assert poset.n == 2

    def test_missing_keyword(self):
        with pytest.raises(PosetError, match="covers"):
            load_poset(["x: y"])

    def test_unknown_element(self):
        with pytest.raises(PosetError, match="unknown"):
            load_poset(["x: covers ghost"])

    def test_from_covers_unknown_covered_element(self):
        with pytest.raises(PosetError, match="^element 'a' covers unknown element 'z'$"):
            FinitePoset.from_covers(["a"], {"a": ["z"]})

    def test_from_covers_unknown_key(self):
        with pytest.raises(PosetError, match="^unknown element 'q'$"):
            FinitePoset.from_covers(["a"], {"q": ["a"]})

    @pytest.mark.parametrize("n_items", [-1, 11])
    def test_powerset_size_out_of_range(self, n_items):
        with pytest.raises(LatticeError, match="0 to 10 items"):
            powerset_lattice(n_items)

    def test_cycle_detected(self):
        with pytest.raises(PosetError, match="antisymmetric"):
            load_poset(["x: covers y", "y: covers x"])

    def test_from_covers_matches_warshall_closure(self):
        # random cover dicts, some with cycles, against the reflexive-transitive
        # closure by Warshall's algorithm: same up table or same PosetError text
        rng = random.Random(101)
        outcomes = {"poset": 0, "cycle": 0}
        for _ in range(1500):
            n = rng.randint(1, 9)
            ids = [f"e{k}" for k in rng.sample(range(20), n)]
            rank = rng.sample(range(n), n)
            cyclic = rng.random() < 0.3
            covers = {ids[i]: [] for i in rng.sample(range(n), rng.randint(0, n))}
            for parent in covers:
                p = ids.index(parent)
                for c in rng.sample(range(n), rng.randint(0, min(n, 3))):
                    if cyclic or rank[c] < rank[p]:
                        covers[parent].append(ids[c])
            below = [[i == j or ids[i] in covers.get(ids[j], ()) for j in range(n)] for i in range(n)]
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        below[i][j] = below[i][j] or (below[i][k] and below[k][j])
            reference_up = [mask_of(j for j in range(n) if below[i][j]) for i in range(n)]
            try:
                expected = FinitePoset(ids, reference_up).up
            except PosetError as exc:
                expected = str(exc)
            try:
                got = FinitePoset.from_covers(ids, covers).up
            except PosetError as exc:
                got = str(exc)
            assert got == expected, (ids, covers)
            outcomes["cycle" if isinstance(expected, str) else "poset"] += 1
        assert outcomes["poset"] > 1000 and outcomes["cycle"] > 50, outcomes


# --- randomized law suites -------------------------------------------------


@pytest.mark.parametrize("seed", range(200))
def test_meet_closed_iff_closure_exists(seed):
    rng = random.Random(seed)
    lat = random_lattice(rng)
    members = random_subset(rng, lat.n, force=lat.top if rng.random() < 0.5 else None)
    verdict = cm.is_meet_closed(lat, members)
    op, witness = cm.closure_from_subset(lat.poset, members)
    assert bool(verdict) == (op is not None)
    if op is not None:
        assert op.range_mask() == members
        assert cm.classify_operator(op).kind == "closure"
    else:
        assert witness is not None


@pytest.mark.parametrize("seed", range(200))
def test_join_closed_iff_interior_exists(seed):
    rng = random.Random(seed)
    lat = random_lattice(rng)
    members = random_subset(rng, lat.n, force=lat.bottom if rng.random() < 0.5 else None)
    verdict = cm.is_join_closed(lat, members)
    op, _ = cm.interior_from_subset(lat.poset, members)
    assert bool(verdict) == (op is not None)
    if op is not None:
        assert op.range_mask() == members
        assert cm.classify_operator(op).is_interior
