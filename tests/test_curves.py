import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ackirby.curves import (
    DEFAULT_LABELING,
    POINTS,
    CurveError,
    PunctureLabeling,
    Slope,
    enumerate_candidates,
    is_candidate,
    partition,
    z3_class,
)

LABELS = ("L1", "L2", "R1", "R2")


def side_value(slope, point):
    # which side of the line of direction (a, b) the half-unit point lies on,
    # mod 2 so that translates of the curve act the same way
    a, b = slope.direction
    p, q = point
    return (b * p - a * q) % 2


def oracle_partition(slope, labeling=None):
    labeling = labeling or PunctureLabeling()
    zero = tuple(sorted(l for l in LABELS
                        if side_value(slope, labeling.point(l)) == 0))
    one = tuple(sorted(l for l in LABELS
                       if side_value(slope, labeling.point(l)) == 1))
    return zero, one


def oracle_is_candidate(slope, labeling=None):
    labeling = labeling or PunctureLabeling()
    return (side_value(slope, labeling.point("L1"))
            != side_value(slope, labeling.point("L2")))


def primitive_directions(height):
    out = set()
    for a in range(-height, height + 1):
        for b in range(-height, height + 1):
            if (a, b) == (0, 0) or math.gcd(a, b) != 1:
                continue
            out.add((a, b) if (a, b) > (0, 0) else (-a, -b))
    return sorted(out)


class TestSlope:
    def test_normalization(self):
        assert Slope(-1, -2).direction == (1, 2)
        assert Slope(0, -1).direction == (0, 1)
        assert Slope(-3, 1).direction == (3, -1)

    def test_equality_and_hash(self):
        assert Slope(-1, -2) == Slope(1, 2)
        assert hash(Slope(-1, -2)) == hash(Slope(1, 2))
        assert Slope(1, 2) != Slope(2, 1)

    def test_parity(self):
        assert Slope(1, 2).parity == (1, 0)
        assert Slope(2, -1).parity == (0, 1)
        assert Slope(3, -5).parity == (1, 1)

    def test_repr(self):
        assert repr(Slope(-1, -2)) == "Slope(1, 2)"

    def test_zero_rejected(self):
        with pytest.raises(CurveError):
            Slope(0, 0)

    @pytest.mark.parametrize("a,b", ((1.0, 2), (1, 2.0), (True, 0), (0, True), ("1", 2)))
    def test_non_int_direction_rejected(self, a, b):
        with pytest.raises(CurveError, match="must be integers"):
            Slope(a, b)

    def test_non_primitive_rejected(self):
        with pytest.raises(CurveError):
            Slope(2, 4)

    def test_ordering(self):
        slopes = [Slope(1, 0), Slope(0, 1), Slope(1, -2)]
        assert [s.direction for s in sorted(slopes)] == \
            [(0, 1), (1, -2), (1, 0)]

    @pytest.mark.parametrize("other", [3, (1, 0), None])
    def test_ordering_with_non_slope_is_type_error(self, other):
        """Comparing a Slope with anything else is Python's TypeError, as
        for other unorderable types, in either operand order."""
        with pytest.raises(TypeError, match="not supported"):
            Slope(1, 0) < other
        with pytest.raises(TypeError, match="not supported"):
            other > Slope(1, 0)


class TestLabeling:
    def test_default(self):
        lab = PunctureLabeling()
        assert lab.point("L1") == (0, 0)
        assert lab.point("L2") == (1, 1)
        assert lab.point("R1") == (1, 0)
        assert lab.point("R2") == (0, 1)
        assert lab.label((1, 1)) == "L2"

    def test_default_constant_matches(self):
        assert DEFAULT_LABELING == {"L1": (0, 0), "L2": (1, 1),
                                    "R1": (1, 0), "R2": (0, 1)}

    def test_points_constant(self):
        assert set(POINTS) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_wrong_label_set_rejected(self):
        with pytest.raises(CurveError):
            PunctureLabeling({"A": (0, 0), "B": (1, 0),
                              "C": (0, 1), "D": (1, 1)})

    def test_missing_label_rejected(self):
        with pytest.raises(CurveError):
            PunctureLabeling({"L1": (0, 0), "L2": (1, 1), "R1": (1, 0)})

    def test_non_bijective_rejected(self):
        with pytest.raises(CurveError):
            PunctureLabeling({"L1": (0, 0), "L2": (0, 0),
                              "R1": (1, 0), "R2": (0, 1)})

    @pytest.mark.parametrize("label", ["X1", "l1", 1])
    def test_unknown_label_rejected(self, label):
        """point() rejects a label it does not have with CurveError, as
        label() does for a point."""
        with pytest.raises(CurveError, match="no point labeled"):
            PunctureLabeling().point(label)

    def test_foreign_point_rejected(self):
        with pytest.raises(CurveError):
            PunctureLabeling({"L1": (2, 0), "L2": (1, 1),
                              "R1": (1, 0), "R2": (0, 1)})

    def test_bool_and_float_coordinates_rejected(self):
        """True and 0.0 equal the integer coordinates, so only a type
        check keeps them out."""
        with pytest.raises(CurveError, match="coordinates must be ints"):
            PunctureLabeling({"L1": (True, False), "L2": (0.0, 1.0),
                              "R1": (0, 0), "R2": (1, 1)})

    def test_non_pair_coordinate_rejected(self):
        with pytest.raises(CurveError, match="coordinates must be pairs"):
            PunctureLabeling({"L1": 5, "L2": (0, 1), "R1": (0, 0), "R2": (1, 1)})


class TestPartition:
    def test_horizontal(self):
        assert partition(Slope(1, 0)) == (("L1", "R1"), ("L2", "R2"))

    def test_vertical(self):
        assert partition(Slope(0, 1)) == (("L1", "R2"), ("L2", "R1"))

    def test_diagonal(self):
        assert partition(Slope(1, 1)) == (("L1", "L2"), ("R1", "R2"))

    def test_depends_only_on_parity(self):
        for H in (5, 10):
            for d in primitive_directions(H):
                s = Slope(*d)
                t = Slope(*s.parity) if s.parity != (0, 0) else None
                assert t is not None
                assert partition(s) == partition(t)

    def test_matches_oracle_everywhere(self):
        for d in primitive_directions(20):
            assert partition(Slope(*d)) == oracle_partition(Slope(*d))

    def test_labeling_override_changes_sides(self):
        lab = PunctureLabeling({"L1": (0, 0), "L2": (1, 0),
                                "R1": (1, 1), "R2": (0, 1)})
        assert partition(Slope(1, 1), lab) == (("L1", "R1"), ("L2", "R2"))
        assert partition(Slope(1, 1)) == (("L1", "L2"), ("R1", "R2"))


class TestZ3AndCandidates:
    def test_z3_pins(self):
        assert z3_class(Slope(1, 0)) == 0
        assert z3_class(Slope(0, 1)) == 0
        assert z3_class(Slope(1, 1)) == 2

    def test_z3_nonzero_reachable_with_other_labelings(self):
        lab = PunctureLabeling({"R1": (0, 0), "R2": (1, 1),
                                "L1": (1, 0), "L2": (0, 1)})
        assert z3_class(Slope(1, 1), lab) == 1

    def test_candidate_pins(self):
        assert is_candidate(Slope(1, 0))
        assert is_candidate(Slope(0, 1))
        assert is_candidate(Slope(1, 2))
        assert not is_candidate(Slope(1, 1))
        assert not is_candidate(Slope(1, -1))

    def test_candidate_iff_z3_zero_for_every_labeling(self):
        """Candidacy, the trivial Z3 class and one L label on a side agree
        for every labeling and slopes of every parity class."""
        for points in itertools.permutations(POINTS):
            lab = PunctureLabeling(dict(zip(LABELS, points)))
            for d in primitive_directions(3):
                s = Slope(*d)
                side = oracle_partition(s, lab)[0]
                one_l = sum(1 for name in side if name in ("L1", "L2")) == 1
                assert is_candidate(s, lab) == (z3_class(s, lab) == 0) == one_l

    def test_candidate_matches_oracle(self):
        for d in primitive_directions(20):
            s = Slope(*d)
            assert is_candidate(s) == oracle_is_candidate(s)


class TestEnumerate:
    def test_height_one(self):
        assert [s.direction for s in enumerate_candidates(1)] == \
            [(0, 1), (1, 0)]

    def test_height_two(self):
        assert [s.direction for s in enumerate_candidates(2)] == \
            [(0, 1), (1, -2), (1, 0), (1, 2), (2, -1), (2, 1)]

    def test_diagonals_always_excluded(self):
        for H in range(1, 13):
            dirs = {s.direction for s in enumerate_candidates(H)}
            assert (1, 1) not in dirs
            assert (1, -1) not in dirs

    def test_agrees_with_oracle_up_to_twenty(self):
        for H in (1, 2, 3, 5, 20):
            want = [d for d in primitive_directions(H)
                    if oracle_is_candidate(Slope(*d))]
            assert [s.direction for s in enumerate_candidates(H)] == want

    def test_agrees_with_oracle_for_every_labeling(self):
        for points in itertools.permutations(POINTS):
            lab = PunctureLabeling(dict(zip(LABELS, points)))
            want = [d for d in primitive_directions(6)
                    if oracle_is_candidate(Slope(*d), lab)]
            assert [s.direction for s in enumerate_candidates(6, lab)] == want

    def test_candidacy_decided_once_per_parity_class(self, monkeypatch):
        import ackirby.curves
        calls = []
        real = ackirby.curves.partition

        def counting(slope, labeling=None):
            calls.append(slope)
            return real(slope, labeling)

        monkeypatch.setattr(ackirby.curves, "partition", counting)
        assert len(enumerate_candidates(40)) > 1000
        assert len(calls) <= 3

    def test_entries_are_primitive_and_in_range(self):
        for s in enumerate_candidates(7):
            a, b = s.direction
            assert math.gcd(a, b) == 1
            assert max(abs(a), abs(b)) <= 7

    def test_bad_height(self):
        with pytest.raises(CurveError):
            enumerate_candidates(0)

    @pytest.mark.parametrize("height", (2.0, True), ids=("float", "bool"))
    def test_non_int_height_rejected(self, height):
        with pytest.raises(CurveError, match="height must be >= 1"):
            enumerate_candidates(height)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=-40, max_value=40),
           st.integers(min_value=-40, max_value=40))
    def test_parity_classes_cover_everything(self, a, b):
        if (a, b) == (0, 0) or math.gcd(a, b) != 1:
            return
        s = Slope(a, b)
        assert s.parity in {(0, 1), (1, 0), (1, 1)}
        assert is_candidate(s) == (s.parity != (1, 1))
