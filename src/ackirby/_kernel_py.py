"""Pure-Python word kernel.

Letters are nonzero signed integers: +k is the k-th generator, -k its
inverse.  Words are tuples of letters.  This module is the one statement
of what the kernel computes; `_kernel` lists which of its functions the
compiled twin (`_kernel_c`) also implements, and picks a module for
those at import time.  Keep the two implementations in lockstep.

The canonicalizing functions work in key space.  `_letter_key` maps the
letters one-to-one onto the nonnegative integers, so that the canonical
letter order is integer order and the inverse of key k is k ^ 1.  A word
is encoded once into a tuple of keys by `_encode`, the one letter
loader; seam cancellation, the cyclic split and the comparison of
rotations then run on key tuples with native tuple order, and only the
result is decoded back into letters by `_decode`, the one key decoder.
`expand_multiply` drops a product longer than its `max_len` budget right
after the cyclic split, before any rotation is built or compared, and
most such products right after the seam, before they are built.

`sort_relators` is the one definition of the canonical relator order:
by length, then letter by letter in key order (x < X < y < Y < ...).

A search class is keyed by its packed state, an immutable `bytes`
string whose format `pack_state` and `unpack_state` alone define: for
each relator in canonical order, one byte per letter equal to its key
plus one (g_k -> 2k - 1, g_k^-1 -> 2k), then a 0 byte.  So a byte holds
the generators up to MAX_PACKED_GENERATOR = 127 and their inverses.
Byte order is key order, so comparing two relators' bytes compares
their keys.  `_state_parts`, the one state reader here, checks a packed
state as the compiled `state_rank` does, and splits it into relators for
`unpack_state` and `_expand_class`, which refuses a class it cannot
expand before its first child, then yields its packed children: the
strict-move children, then, in the extended regime, those of the
generator basis changes.  `expand_level`, the one way into either
kernel's enumeration of a class's children, runs it on each class of a
search level and puts each new child straight into the visited table.

The functions that take a length bound or a capacity read it through
`operator.index`, as the compiled twin does through `PyNumber_Index`, so
a bound that is not an integer fails alike in both kernels.
"""

import operator

MAX_PACKED_GENERATOR = 127


def _letter_key(v):
    """Total order on letters: g1 < g1^-1 < g2 < g2^-1 < ...

    >>> sorted([2, -1, 1, -2], key=_letter_key)
    [1, -1, 2, -2]
    """
    return 2 * (v - 1) if v > 0 else 2 * (-v - 1) + 1


def _encode(w):
    """Key tuple of a word: _letter_key applied letter by letter."""
    return tuple(map(_letter_key, w))


def _decode(keys):
    """Word of a key tuple; inverse of _encode."""
    return tuple([(k >> 1) + 1 if not k & 1 else -(k >> 1) - 1 for k in keys])


def _least_rotation(keys):
    """Least rotation of a nonempty key tuple or of its inverse.

    Only rotations that start at the least key can win, so only those are
    built and compared.
    """
    inv = tuple([k ^ 1 for k in reversed(keys)])
    lo = min(min(keys), min(inv))
    best = None
    for cand in (keys, inv):
        s = -1
        for _ in range(cand.count(lo)):
            s = cand.index(lo, s + 1)
            rot = cand[s:] + cand[:s]
            if best is None or rot < best:
                best = rot
    return best


def reduce_word(letters):
    """Freely reduce a raw letter sequence by a single stack pass."""
    out = []
    for v in letters:
        if out and out[-1] == -v:
            out.pop()
        else:
            out.append(v)
    return tuple(out)


def invert_word(w):
    """Inverse of a reduced word (reverse and negate)."""
    return tuple(map(operator.neg, reversed(w)))


def _canonical(keys):
    """Canonical key tuple of a reduced key sequence: the least rotation
    of its cyclically reduced core or of the core's inverse, () if the
    core is empty."""
    i, j = 0, len(keys) - 1
    while i < j and keys[i] == keys[j] ^ 1:
        i += 1
        j -= 1
    return _least_rotation(tuple(keys[i:j + 1])) if i <= j else ()


def canonical_relator(w):
    """Canonical form of a relator up to conjugation and inversion: the
    least rotation, in key order, of its cyclically reduced core or of
    the core's inverse."""
    return _decode(_canonical(_encode(w)))


def _relator_key(w):
    return len(w), _encode(w)


def sort_relators(rels):
    """The given relators as a tuple in canonical order: by length, then
    letter by letter in key order.  The sort is stable.

    >>> sort_relators([(2,), (1, 2), (-1,), (1,)])
    ((1,), (-1,), (2,), (1, 2))
    """
    return tuple(sorted(rels, key=_relator_key))


def _products(a, b, limit):
    """The canonical products of expand_multiply on the key tuples a and
    b, each as a key tuple mapped to its first witness."""
    ni, nj = len(a), len(b)
    m = ni if ni < nj else nj
    b_inv = tuple([k ^ 1 for k in reversed(b)])
    rots_a = [a[p:] + a[:p] for p in range(ni or 1)]
    rots_b = [(eps, [base[q:] + base[:q] for q in range(nj or 1)])
              for eps, base in ((1, b), (-1, b_inv))]
    res = {}
    for p, u in enumerate(rots_a):
        for eps, rots in rots_b:
            for q, v in enumerate(rots):
                t = 0
                while t < m and u[ni - 1 - t] == v[t] ^ 1:
                    t += 1
                if t < m and ni + nj - 2 * t > limit and u[0] != v[nj - 1] ^ 1:
                    continue    # over the budget, and the ends cannot cancel
                w = u[:ni - t] + v[t:]
                i, j = 0, len(w) - 1
                while i < j and w[i] == w[j] ^ 1:
                    i += 1
                    j -= 1
                if j - i + 1 > limit:
                    continue
                child = _least_rotation(w[i:j + 1]) if i <= j else ()
                if child not in res:
                    res[child] = (p, eps, q)
    return res


def expand_multiply(ci, cj, max_len=None):
    """All canonical products of a rotation of ci with a rotation of
    cj or of cj^-1, up to max_len letters (None: no limit).

    Both inputs must be canonical relators.  Returns a dict mapping each
    distinct child canonical relator to its first witness (p, eps, q):
    rotate ci left by p, take cj (eps=+1) or cj^-1 (eps=-1) rotated left
    by q, multiply on the right.  Witness order: p, then eps (+1 first),
    then q.

    Every product is cancelled at the seam and cyclically split on key
    tuples.  A product whose core is longer than max_len is dropped there,
    before it is canonicalized; since a child's length is its own, this
    is the unbounded dict filtered to children of at most max_len letters.
    The rest are canonicalized on key tuples; each distinct child is
    decoded once.

    Most products are dropped before they are built.  When the seam
    cancels t letters and t is less than both lengths, the product starts
    with the first letter of the rotation of ci and ends with the last
    letter of the rotation of cj^eps.  If those two are not inverse, the
    ends do not cancel cyclically, so the core is exactly
    len(ci) + len(cj) - 2t letters long; when that exceeds max_len, the
    cyclic split would drop the product anyway.  So the early skip changes
    no child, witness or order, on any words, reduced or not.
    """
    a, b = _encode(ci), _encode(cj)
    limit = len(a) + len(b) if max_len is None else operator.index(max_len)
    return {_decode(child): witness for child, witness in _products(a, b, limit).items()}


def pack_state(rels):
    """Packed state of relators given in canonical order; it does not
    sort them.  OverflowError for a generator above MAX_PACKED_GENERATOR.

    >>> pack_state(((1,), (-2, 1)))
    b'\\x01\\x00\\x04\\x01\\x00'
    """
    out = []
    for r in rels:
        for v in r:
            if not -MAX_PACKED_GENERATOR <= v <= MAX_PACKED_GENERATOR:
                raise OverflowError("generator index of letter %d exceeds %d"
                                    % (v, MAX_PACKED_GENERATOR))
            out.append(_letter_key(v) + 1)
        out.append(0)
    return bytes(out)


def _state_parts(state):
    """The packed relators of a packed state, without their 0 bytes.
    TypeError unless the state is bytes; ValueError unless it is empty or
    ends with a 0 byte, or if a byte names a generator above
    MAX_PACKED_GENERATOR, whose keys plus one would not fit in a byte."""
    if not isinstance(state, bytes):
        raise TypeError("a packed state must be bytes, got %r" % (state,))
    if state[-1:] not in (b"", b"\0"):
        raise ValueError("a packed state must end with a 0 byte")
    top = max(state, default=0)
    if top > 2 * MAX_PACKED_GENERATOR:
        raise ValueError("packed state byte %d names a generator above %d"
                         % (top, MAX_PACKED_GENERATOR))
    return state.split(b"\0")[:-1]


def unpack_state(state):
    """Relators of a packed state, as letter tuples; inverse of pack_state.
    ValueError unless the state is empty or ends with a 0 byte, or if it
    names a generator above MAX_PACKED_GENERATOR.

    >>> unpack_state(b'\\x01\\x00\\x04\\x01\\x00')
    ((1,), (-2, 1))
    """
    return tuple([_decode([b - 1 for b in part]) for part in _state_parts(state)])


def _insert(rest, child):
    """Packed state of the packed relators `rest`, in canonical order,
    with the packed relator `child` inserted in canonical order."""
    n = len(child)
    pos = 0
    for part in rest:
        if len(part) > n or (len(part) == n and part > child):
            break
        pos += 1
    return b"\0".join(rest[:pos] + [child] + rest[pos:]) + b"\0"


def _basis_changes(rank):
    """The generator basis changes at a rank, in the order of
    search._basis_changes, each as a dict from the key of a generator it
    moves to the key tuple of that generator's image."""
    gens = range(0, 2 * rank, 2)
    for a in gens:
        for c in range(2 * rank):    # g_j, then g_j^-1, for each j
            if c >> 1 != a >> 1:
                yield {a: (a, c)}
    for a in gens:
        yield {a: (a + 1,)}
    for a in gens:
        for b in gens:
            if a < b:
                yield {a: (b,), b: (a,)}


def _expand_class(state, max_len, extended):
    """Packed child classes of the packed class `state` under the strict
    moves, and with `extended` true also under the generator basis
    changes, within total length max_len, yielded in this order (a child
    may come twice).  Its one caller, expand_level, has read `extended`
    and max_len already.  Before the first child, OverflowError refuses
    stabilizing past generator 127, then basis changes above rank 127.

    First the multiplications: for each relator i, then each nonempty
    relator j != i, the children of expand_multiply(ci, cj, budget) in
    witness order, where the budget is max_len less the other relators'
    length.  Then the stabilization, if it fits.  Then the legal
    destabilizations: a single-letter relator whose generator occurs in
    no other relator is dropped, and the generators above it move down
    one index.  Renumbering keeps canonical relators canonical and
    sorted.

    Then, if `extended`, the basis changes of the class's rank r, in the
    order of search._basis_changes: g_i -> g_i g_j and g_i -> g_i g_j^-1
    for each i, then each j != i; g_i -> g_i^-1 for each i; g_i <-> g_j
    for each i < j.  Each one replaces every letter of every relator by
    its image, freely reduces and canonicalizes each relator and sorts
    the relators; the child is kept if its total length fits.
    """
    parts = _state_parts(state)
    rank = len(parts)
    total = len(state) - rank
    if total + 1 <= max_len and rank >= MAX_PACKED_GENERATOR:
        raise OverflowError("stabilizing adds generator %d, above %d"
                            % (rank + 1, MAX_PACKED_GENERATOR))
    if extended and rank > MAX_PACKED_GENERATOR:
        raise OverflowError("basis changes at rank %d name generators above %d"
                            % (rank, MAX_PACKED_GENERATOR))
    keys = [tuple([b - 1 for b in part]) for part in parts]
    for i, ci in enumerate(keys):
        rest = parts[:i] + parts[i + 1:]
        budget = max_len - (total - len(ci))
        for j, cj in enumerate(keys):
            if j != i and cj:
                for child in _products(ci, cj, budget):
                    yield _insert(rest, bytes([k + 1 for k in child]))
    if total + 1 <= max_len:
        yield _insert(parts, bytes([2 * rank + 1]))    # generator rank + 1
    if rank > 1:
        for i, part in enumerate(parts):
            if len(part) != 1:
                continue
            hi = part[0] + (part[0] & 1)    # the bytes of the generator: hi - 1, hi
            rest = parts[:i] + parts[i + 1:]
            if any(hi in r or hi - 1 in r for r in rest):
                continue
            yield b"".join(bytes([b - 2 if b > hi else b for b in r]) + b"\0"
                           for r in rest)
    for change in _basis_changes(rank) if extended else ():
        table = {}
        for a, image in change.items():
            table[a] = image
            table[a + 1] = tuple([k ^ 1 for k in reversed(image)])
        child = []
        for r in keys:
            w = []
            for k in r:
                for y in table.get(k, (k,)):
                    if w and w[-1] == y ^ 1:
                        w.pop()
                    else:
                        w.append(y)
            child.append(bytes([k + 1 for k in _canonical(w)]))
        if sum(map(len, child)) <= max_len:
            child.sort(key=lambda part: (len(part), part))
            yield b"".join(part + b"\0" for part in child)


def expand_level(frontier, visited, max_len, extended, capacity, /):
    """Expand one search level into the visited table: the children of
    each packed class of the list `frontier`, in turn, by
    _expand_class(parent, max_len, extended), that the dict `visited` does
    not hold yet.  Each is set there as it comes, with its parent as
    value, and appended to `fresh`, unless `visited` already holds
    `capacity` keys; then the level stops.  Returns (fresh, full), full
    true if the level stopped there.  So a child keeps the parent that
    first produced it, and a duplicate needs no room in the table.

    `extended` is read by truth value, then max_len and capacity by
    operator.index, then the types of frontier and visited, which is the
    compiled kernel's order; each parent is read by _state_parts when its
    turn comes, so the children of the parents before a malformed one
    stay in `visited`.
    """
    extended, max_len = bool(extended), operator.index(max_len)
    capacity = operator.index(capacity)
    if type(frontier) is not list:
        raise TypeError("a frontier must be a list, got %r" % (frontier,))
    if type(visited) is not dict:
        raise TypeError("a visited table must be a dict, got %r" % (visited,))
    fresh = []
    for parent in frontier:
        for child in _expand_class(parent, max_len, extended):
            if child in visited:
                continue
            if len(visited) >= capacity:
                return fresh, True
            visited[child] = parent
            fresh.append(child)
    return fresh, False
