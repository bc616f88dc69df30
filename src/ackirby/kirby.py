"""Linking-matrix model of framed-link handle calculus.

A framed link with m components is abstracted to a symmetric m x m
integer matrix (framings on the diagonal, linking numbers off it) plus a
per-component kind: a 2-handle ("h") or a dotted circle ("d").  Dotted
components always carry diagonal entry 0.  Handle slides act as
unimodular congruences, so the determinant is invariant; blow-downs
delete a +-1-framed 2-handle and correct what it linked.

Text form: first line the size, then the rows, then one line of kinds
(`h` or `d` per component).
"""

from ackirby._intdet import integer_determinant

TWO_HANDLE = "h"
DOTTED = "d"


class KirbyError(ValueError):
    pass


class FramedLinkMatrix:
    """Immutable symmetric integer matrix with per-component kinds."""

    __slots__ = ("_entries", "_kinds")

    def __init__(self, entries, kinds=None):
        entries = tuple(tuple(row) for row in entries)
        m = len(entries)
        for row in entries:
            if len(row) != m:
                raise KirbyError("matrix must be square")
            for v in row:
                # `type`, not isinstance: True is not the entry 1
                if type(v) is not int:
                    raise KirbyError("matrix entries must be integers, got %r" % (v,))
        for a in range(m):
            for b in range(m):
                if entries[a][b] != entries[b][a]:
                    raise KirbyError(
                        "matrix must be symmetric; entries (%d,%d) and (%d,%d) differ"
                        % (a + 1, b + 1, b + 1, a + 1))
        if kinds is None:
            kinds = (TWO_HANDLE,) * m
        kinds = tuple(kinds)
        if len(kinds) != m:
            raise KirbyError("need one kind per component")
        for k in kinds:
            if k not in (TWO_HANDLE, DOTTED):
                raise KirbyError("component kind must be %r or %r, got %r"
                                 % (TWO_HANDLE, DOTTED, k))
        for a in range(m):
            if kinds[a] == DOTTED and entries[a][a] != 0:
                raise KirbyError(
                    "dotted component %d must have framing 0, got %d"
                    % (a + 1, entries[a][a]))
        self._entries = entries
        self._kinds = kinds

    @property
    def size(self):
        return len(self._entries)

    @property
    def entries(self):
        return self._entries

    @property
    def kinds(self):
        return self._kinds

    def determinant(self):
        return integer_determinant(self._entries)

    def __eq__(self, other):
        if isinstance(other, FramedLinkMatrix):
            return self._entries == other._entries and self._kinds == other._kinds
        return NotImplemented

    def __hash__(self):
        return hash((self._entries, self._kinds))

    def __repr__(self):
        return "FramedLinkMatrix(%r, kinds=%r)" % (
            [list(r) for r in self._entries], "".join(self._kinds))

    def __str__(self):
        return matrix_to_text(self)


def _check_component(M, idx, name="component"):
    if type(idx) is not int or not 1 <= idx <= M.size:
        raise KirbyError("%s %r out of range 1..%d" % (name, idx, M.size))


def slide(M, i, j, sign):
    """Slide component i over component j with the chosen orientation
    sign: the framing of i becomes a_ii + a_jj + 2*sign*a_ij and its
    linking numbers gain sign times row j.

    Dotted components cannot slide over 2-handles, and a dotted-over-
    dotted slide is only legal when the two are unlinked (otherwise the
    dotted diagonal would become nonzero).

    >>> M = parse_matrix("2\\n0 1\\n1 0\\nh d")
    >>> slide(M, 1, 2, +1).entries
    ((2, 1), (1, 0))
    >>> slide(M, 1, 2, +1).determinant() == M.determinant()
    True
    """
    _check_component(M, i)
    _check_component(M, j)
    if i == j:
        raise KirbyError("cannot slide a component over itself")
    if type(sign) is not int or sign not in (1, -1):
        raise KirbyError("slide sign must be +1 or -1, got %r" % (sign,))
    if M.kinds[i - 1] == DOTTED and M.kinds[j - 1] == TWO_HANDLE:
        raise KirbyError("dotted component %d cannot slide over 2-handle %d" % (i, j))
    a, b = i - 1, j - 1
    if M.kinds[a] == DOTTED and M.kinds[b] == DOTTED and M.entries[a][b] != 0:
        raise KirbyError(
            "sliding dotted component %d over dotted component %d with linking %d"
            " would give it a nonzero framing" % (i, j, M.entries[a][b]))
    e = [list(r) for r in M.entries]
    new_ii = e[a][a] + e[b][b] + 2 * sign * e[a][b]
    for k in range(M.size):
        if k != a:
            e[a][k] += sign * e[b][k]
            e[k][a] = e[a][k]
    e[a][a] = new_ii
    return FramedLinkMatrix(e, M.kinds)


def blow_down(M, i):
    """Delete a +-1-framed 2-handle, correcting the rest:
    a'_jk = a_jk - a_ii * a_ij * a_ik.

    >>> blow_down(FramedLinkMatrix(((-1, 1), (1, 0))), 1).entries
    ((1,),)
    >>> blow_down(FramedLinkMatrix(((1,),)), 1).size
    0
    """
    _check_component(M, i)
    a = i - 1
    if M.kinds[a] == DOTTED:
        raise KirbyError("cannot blow down dotted component %d" % i)
    f = M.entries[a][a]
    if f not in (1, -1):
        raise KirbyError("blow-down needs framing +1 or -1 on component %d, got %d"
                         % (i, f))
    for k in range(M.size):
        if k != a and M.kinds[k] == DOTTED and M.entries[a][k] != 0:
            raise KirbyError(
                "cannot blow down component %d: it links dotted component %d, "
                "which would acquire a nonzero framing" % (i, k + 1))
    keep = [k for k in range(M.size) if k != a]
    e = [[M.entries[r][c] - f * M.entries[r][a] * M.entries[a][c] for c in keep]
         for r in keep]
    return FramedLinkMatrix(e, tuple(M.kinds[k] for k in keep))


def add_unlink(M, r):
    """Block-extend by a distant r-component 0-framed unlink."""
    if type(r) is not int or r < 0:
        raise KirbyError("unlink component count must be >= 0, got %r" % (r,))
    m = M.size
    e = [list(row) + [0] * r for row in M.entries]
    for _ in range(r):
        e.append([0] * (m + r))
    return FramedLinkMatrix(e, M.kinds + (TWO_HANDLE,) * r)


def add_hopf_pair(M):
    """Block-extend by a canceling Hopf pair: a 0-framed 2-handle and a
    dotted circle linking it once."""
    m = M.size
    e = [list(row) + [0, 0] for row in M.entries]
    e.append([0] * m + [0, 1])
    e.append([0] * m + [1, 0])
    return FramedLinkMatrix(e, M.kinds + (TWO_HANDLE, DOTTED))


def gpr_necessary_condition(M):
    """Homological necessary condition for surgering to a connected sum
    of S^1 x S^2's: every framing and every linking number is zero.
    Only defined for all-2-handle links."""
    for k, kind in enumerate(M.kinds):
        if kind != TWO_HANDLE:
            raise KirbyError("condition is only defined for 2-handle links;"
                             " component %d is dotted" % (k + 1))
    return all(v == 0 for row in M.entries for v in row)


def is_weak_trivial_form(M):
    """True iff, up to simultaneous permutation, M is a distant union of
    0-framed unknot 2-handles and canceling Hopf pairs (one 2-handle and
    one dotted circle linking once)."""
    m = M.size
    used = [False] * m
    for a in range(m):
        if used[a]:
            continue
        partners = [b for b in range(m) if b != a and M.entries[a][b] != 0]
        if not partners:
            if M.entries[a][a] != 0 or M.kinds[a] != TWO_HANDLE:
                return False
            used[a] = True
            continue
        if len(partners) != 1:
            return False
        b = partners[0]
        if used[b] or M.entries[a][b] != 1:
            return False
        if M.entries[a][a] != 0 or M.entries[b][b] != 0:
            return False
        if sorted((M.kinds[a], M.kinds[b])) != sorted((TWO_HANDLE, DOTTED)):
            return False
        if any(c not in (a, b) and M.entries[b][c] != 0 for c in range(m)):
            return False
        used[a] = used[b] = True
    return True


# ---------------------------------------------------------------------------
# Text form

def matrix_to_text(M):
    lines = [str(M.size)]
    for row in M.entries:
        lines.append(" ".join(str(v) for v in row))
    if M.size:
        lines.append(" ".join(M.kinds))
    return "\n".join(lines)


def parse_matrix(text):
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise KirbyError("empty matrix text")
    try:
        m = int(lines[0])
    except ValueError:
        raise KirbyError("first line must be the size, got %r" % (lines[0],))
    if m < 0:
        raise KirbyError("matrix size must be >= 0, got %d" % m)
    if m == 0 and len(lines) == 1:
        return FramedLinkMatrix((), ())
    if len(lines) != m + 2:
        raise KirbyError("expected %d rows plus a kinds line after the size" % m)
    entries = []
    for ln in lines[1:m + 1]:
        row = [int(v) for v in ln.split()]
        if len(row) != m:
            raise KirbyError("row %r does not have %d entries" % (ln, m))
        entries.append(row)
    kinds = tuple(lines[m + 1].split())
    return FramedLinkMatrix(entries, kinds)
