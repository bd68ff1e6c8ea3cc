"""Walk classification, polygon areas and oracle-vs-series agreement."""

from __future__ import annotations

import sys
from itertools import product

import pytest

from prudentpoly import oracle
from prudentpoly.enumeration import pa2_series, pa3_series, pa4_series
from prudentpoly.oracle import (
    LatticeWalk,
    classify_walk,
    enumerate_prudent_polygons,
    polygon_area,
)


class TestClassify:
    def test_remark_walk_excluded_from_three_sided(self):
        c = classify_walk("ESW")
        assert c.is_prudent
        assert c.excluded_3sided
        assert c.sidedness[4]
        assert not c.sidedness[3]

    def test_two_sided_unit_cell(self):
        c = classify_walk("ENW")
        assert c.is_prudent
        assert c.sidedness[2] and c.sidedness[3] and c.sidedness[4]

    def test_clockwise_column_is_three_sided_only(self):
        c = classify_walk("SWN")
        assert c.is_prudent
        assert c.sidedness[3] and not c.sidedness[2]

    def test_imprudent_walk_flagged(self):
        # E,N,N,W,S steps toward the occupied origin on the last step's ray
        c = classify_walk("ENNWS")
        assert not c.is_prudent
        assert c.sidedness == {}

    def test_self_intersection_flagged(self):
        assert not classify_walk("ENWS").is_prudent
        with pytest.raises(ValueError, match="revisits a vertex"):
            LatticeWalk("NS")

    def test_empty_walk_rejected(self):
        with pytest.raises(ValueError):
            classify_walk("")
        with pytest.raises(ValueError, match="unknown step"):
            classify_walk("X")

    def test_unknown_step_rejected_by_the_walk(self):
        # every replay reads a step through one lookup
        with pytest.raises(ValueError, match="unknown step 'X'"):
            LatticeWalk("EX")
        with pytest.raises(ValueError, match="unknown step 'X'"):
            polygon_area("ENX")


class TestArea:
    def test_unit_cell(self):
        assert polygon_area("ENW") == 1

    def test_domino(self):
        assert polygon_area("EENWW") == 2

    def test_reversal_invariance(self):
        flip = {"N": "S", "S": "N", "E": "W", "W": "E"}
        for walk in ("ENW", "EENWW", "NNWSS", "SENNWWS"):
            reverse = "".join(flip[s] for s in reversed(walk))
            assert polygon_area(walk) == polygon_area(reverse)

    def test_non_adjacent_endpoint_rejected(self):
        with pytest.raises(ValueError):
            polygon_area("EN")


class TestEnumeration:
    def test_area_one_calibration(self):
        assert enumerate_prudent_polygons(2, 1).count(1) == 4
        assert enumerate_prudent_polygons(3, 1).count(1) == 6
        assert enumerate_prudent_polygons(4, 1).count(1) == 8

    def test_exclusion_removes_exactly_two_unit_walks(self):
        # the prudent 3-step walks that end beside the origin close a unit
        # cell; the exclusion rule marks exactly two of them
        unit = {}
        for steps in map("".join, product("NSEW", repeat=3)):
            c = classify_walk(steps)
            x = steps.count("E") - steps.count("W")
            y = steps.count("N") - steps.count("S")
            if c.is_prudent and abs(x) + abs(y) == 1:
                unit[steps] = c
        assert len(unit) == 8
        assert all(polygon_area(s) == 1 for s in unit)
        assert {s for s, c in unit.items() if c.excluded_3sided} == {"ESW", "WSE"}

    def test_three_sided_counts_even(self):
        t = enumerate_prudent_polygons(3, 5)
        assert all(c % 2 == 0 for c in t.counts)

    def test_matches_series_small(self):
        n = 6
        assert enumerate_prudent_polygons(2, n).counts == pa2_series(n).counts
        assert enumerate_prudent_polygons(3, n).counts == \
            pa3_series(n, "theorem").counts
        assert enumerate_prudent_polygons(4, n).counts == pa4_series(n).counts

    def test_boundary_class_matches_published_series(self):
        # every-prefix-on-box-boundary walks, no ray condition: this is the
        # class behind the published 4-sided numbers (see README)
        t = enumerate_prudent_polygons(4, 6, walk_class="boundary")
        assert t.counts == (8, 24, 80, 248, 736, 2120)

    def test_endpoint_off_the_box_boundary_raises(self, monkeypatch):
        # a diagonal south step lets a prudent walk end inside its box,
        # which the search's invariant check reports
        monkeypatch.setitem(oracle._STEPS, "S", (1, -1))
        with pytest.raises(AssertionError, match="left the box boundary"):
            enumerate_prudent_polygons(4, 4)

    @pytest.mark.parametrize("walk_class, nodes", [
        ("prudent", (11063, 19293, 33069)),
        ("boundary", (13473, 25167, 47189))], ids=["prudent", "boundary"])
    def test_search_work_at_area_six(self, walk_class, nodes):
        # the nodes the search enters for k = 2, 3, 4, counted as calls of
        # its recursion: a weaker pruning rule gives the same counts from
        # more nodes, and this fails
        entered = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "rec" and \
                    frame.f_code.co_filename == oracle.__file__:
                entered[-1] += 1

        for k in (2, 3, 4):
            entered.append(0)
            sys.setprofile(profile)
            try:
                enumerate_prudent_polygons(k, 6, walk_class=walk_class)
            finally:
                sys.setprofile(None)
        assert tuple(entered) == nodes

    def test_resource_guard(self):
        with pytest.raises(ValueError):
            enumerate_prudent_polygons(2, 13)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            enumerate_prudent_polygons(1, 3)
        # and the other arguments, checked before any search
        with pytest.raises(ValueError, match="walk_class must be"):
            enumerate_prudent_polygons(3, 3, walk_class="spiral")
        with pytest.raises(ValueError, match="max_area must be >= 1"):
            enumerate_prudent_polygons(3, 0)


class TestClassifierAgainstSearch:
    def test_classify_walk_consistent_with_dfs(self):
        # classify_walk and the DFS pruning are independent paths through the
        # side/exclusion/prudence logic; exhaustively tally closed walks of
        # length <= 9 via the classifier, which covers every polygon of area
        # <= 4, and compare with the search counts.
        from itertools import product

        tallies = {2: [0] * 5, 3: [0] * 5, 4: [0] * 5}
        for length in (3, 5, 7, 9):
            for steps in product("NESW", repeat=length):
                walk = "".join(steps)
                x = walk.count("E") - walk.count("W")
                y = walk.count("N") - walk.count("S")
                if abs(x) + abs(y) != 1:
                    continue
                c = classify_walk(walk)
                if not c.is_prudent:
                    continue
                area = polygon_area(walk)
                if area > 4:
                    continue
                for k in (2, 3, 4):
                    if c.sidedness[k]:
                        tallies[k][area] += 1
        for k in (2, 3, 4):
            expected = enumerate_prudent_polygons(k, 4).counts
            assert tuple(tallies[k][1:]) == expected, k
