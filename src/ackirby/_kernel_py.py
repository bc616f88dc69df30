"""Pure-Python word kernel.

Letters are nonzero signed integers: +k is the k-th generator, -k its
inverse.  Words are tuples of letters.  The compiled twin of this module
(`_kernel_c`) implements the same five functions: `reduce_word`,
`invert_word`, `canonical_relator`, `sort_relators` and
`expand_multiply`, the ones the library calls on its hot paths; `_kernel`
picks one module at import time.  Keep the two implementations in
lockstep.

The canonicalizing functions work in key space.  `_letter_key` maps the
letters one-to-one onto the nonnegative integers, so that the canonical
letter order is integer order and the inverse of key k is k ^ 1.  A word
is encoded once into a tuple of keys; seam cancellation, the cyclic split
and the comparison of rotations then run on key tuples with native tuple
order, and only the result is decoded back into letters.
`expand_multiply` drops a product longer than its `max_len` budget right
after the cyclic split, before any rotation is built or compared.

`sort_relators` is the one definition of the canonical relator order:
by length, then letter by letter in key order (x < X < y < Y < ...).
"""


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
    return tuple(-v for v in reversed(w))


def canonical_relator(w):
    """Canonical form of a relator up to conjugation and inversion: the
    least rotation, in key order, of its cyclically reduced core or of
    the core's inverse."""
    i, j = 0, len(w) - 1
    while i < j and w[i] == -w[j]:
        i += 1
        j -= 1
    if i > j:
        return ()
    return _decode(_least_rotation(_encode(w[i:j + 1])))


def _relator_key(w):
    return len(w), _encode(w)


def sort_relators(rels):
    """The given relators as a tuple in canonical order: by length, then
    letter by letter in key order.  The sort is stable.

    >>> sort_relators([(2,), (1, 2), (-1,), (1,)])
    ((1,), (-1,), (2,), (1, 2))
    """
    return tuple(sorted(rels, key=_relator_key))


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
    """
    a, b = _encode(ci), _encode(cj)
    ni, nj = len(a), len(b)
    limit = ni + nj if max_len is None else max_len
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
    return {_decode(child): witness for child, witness in res.items()}
