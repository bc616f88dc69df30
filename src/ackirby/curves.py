"""Essential simple closed curves on the 4-punctured sphere, via the
torus double cover.

The sphere is modeled as the quotient of the torus R^2/Z^2 by the
elliptic involution, with punctures at the four half-integer points.
Curves correspond to primitive direction vectors (slopes) on the torus;
the curve of slope (a, b) separates the punctures into two pairs, v
being paired with v + (a/2, b/2) mod 1 — a rule depending only on the
parities of a and b.

Puncture points are written in half-unit coordinates: (p, q) with p, q
in {0, 1} stands for (p/2, q/2).  A labeling assigns the four points the
labels L1, L2 (weight +1) and R1, R2 (weight -1); the default labeling
puts the L-points at (0,0) and (1,1).
"""

from math import gcd

POINTS = ((0, 0), (1, 0), (0, 1), (1, 1))
WEIGHTS = {"L1": 1, "L2": 1, "R1": -1, "R2": -1}

DEFAULT_LABELING = {"L1": (0, 0), "L2": (1, 1), "R1": (1, 0), "R2": (0, 1)}


class CurveError(ValueError):
    pass


class Slope:
    """A primitive direction (a, b), normalized so the first nonzero
    coordinate is positive."""

    __slots__ = ("_a", "_b")

    def __init__(self, a, b):
        # `type`, not isinstance: True is not the coordinate 1
        if type(a) is not int or type(b) is not int:
            raise CurveError("slope direction must be integers, got (%r, %r)" % (a, b))
        if a == 0 and b == 0:
            raise CurveError("slope direction cannot be (0, 0)")
        if gcd(abs(a), abs(b)) != 1:
            raise CurveError("slope direction must be primitive, got (%d, %d)" % (a, b))
        if a < 0 or (a == 0 and b < 0):
            a, b = -a, -b
        self._a, self._b = a, b

    @property
    def direction(self):
        return (self._a, self._b)

    @property
    def parity(self):
        return (self._a % 2, self._b % 2)

    def __eq__(self, other):
        if isinstance(other, Slope):
            return self.direction == other.direction
        return NotImplemented

    def __hash__(self):
        return hash(self.direction)

    def __lt__(self, other):
        if isinstance(other, Slope):
            return self.direction < other.direction
        return NotImplemented

    def __repr__(self):
        return "Slope(%d, %d)" % self.direction


class PunctureLabeling:
    """Bijective assignment of labels L1, L2, R1, R2 to the four
    half-integer points."""

    __slots__ = ("_points", "_labels")

    def __init__(self, assignment=None):
        assignment = dict(DEFAULT_LABELING if assignment is None else assignment)
        if sorted(assignment) != sorted(WEIGHTS):
            raise CurveError("labeling needs exactly the labels L1, L2, R1, R2")
        try:
            self._points = {lab: tuple(assignment[lab]) for lab in WEIGHTS}
        except TypeError:
            raise CurveError("labeling coordinates must be pairs, got %r"
                             % (assignment,)) from None
        # `type`: True and 0.0 compare equal to the integer coordinates
        if any(type(v) is not int for pt in self._points.values() for v in pt):
            raise CurveError("labeling coordinates must be ints, got %r" % (assignment,))
        if sorted(self._points.values()) != sorted(POINTS):
            raise CurveError("labeling must assign the four half-integer points"
                             " (0,0), (1,0), (0,1), (1,1) bijectively")
        self._labels = {pt: lab for lab, pt in self._points.items()}

    def point(self, label):
        try:
            return self._points[label]
        except KeyError:
            raise CurveError("no point labeled %r" % (label,)) from None

    def label(self, point):
        try:
            return self._labels[tuple(point)]
        except KeyError:
            raise CurveError("no label at point %r" % (point,)) from None

    def __eq__(self, other):
        if isinstance(other, PunctureLabeling):
            return self._points == other._points
        return NotImplemented

    def __repr__(self):
        return "PunctureLabeling(%r)" % (self._points,)


def partition(slope, labeling=None):
    """The two label pairs separated by the curve of the given slope:
    the point v is paired with v + (a/2, b/2) mod 1.

    Returns a pair of sorted label pairs; the pair containing the label
    at (0, 0) comes first.

    >>> partition(Slope(1, 0))
    (('L1', 'R1'), ('L2', 'R2'))
    >>> partition(Slope(1, 1))
    (('L1', 'L2'), ('R1', 'R2'))
    """
    lab = labeling or PunctureLabeling()
    # (0, 0) + (a/2, b/2) is the parity point itself
    mate = slope.parity
    rest = [pt for pt in POINTS if pt not in ((0, 0), mate)]
    return (tuple(sorted((lab.label((0, 0)), lab.label(mate)))),
            tuple(sorted(lab.label(pt) for pt in rest)))


def z3_class(slope, labeling=None):
    """Weight sum (mod 3) of the side of the partition containing the
    point (0, 0): L-labels weigh +1, R-labels -1.

    Only triviality (value 0) versus non-triviality is independent of
    which side is summed; choosing the other side inverts the class.
    """
    lab = labeling or PunctureLabeling()
    side = partition(slope, lab)[0]
    return sum(WEIGHTS[name] for name in side) % 3


def is_candidate(slope, labeling=None):
    """True iff the Z3 class is trivial, that is iff each side of the
    partition holds exactly one L label (equivalently, one R label).

    A side holds two labels, each weighing +1 or -1, so its sum is 2, 0
    or -2 = 1 (mod 3); the sum is 0 exactly when the side holds one L
    label and one R label.
    """
    return z3_class(slope, labeling) == 0


def enumerate_candidates(height, labeling=None):
    """All candidate slopes with max(|a|, |b|) <= height, sorted by
    direction.

    >>> [s.direction for s in enumerate_candidates(1)]
    [(0, 1), (1, 0)]
    """
    if type(height) is not int or height < 1:
        raise CurveError("height must be >= 1, got %r" % (height,))
    lab = labeling or PunctureLabeling()
    # the partition, hence candidacy, depends only on the parity class
    cand = {p: is_candidate(Slope(*p), lab) for p in ((1, 0), (0, 1), (1, 1))}
    found = [Slope(0, 1)] if cand[(0, 1)] else []
    for a in range(1, height + 1):
        for b in range(-height, height + 1):
            if gcd(a, abs(b)) == 1 and cand[(a % 2, b % 2)]:
                found.append(Slope(a, b))
    return found
