"""Independent brute-force class enumerator used as a search oracle.

Deliberately shares no code with the package: its own repeated-scan
reducer, its own brute-force canonicalization (minimum over every
rotation of the cyclic core and of its inverse), its own successor
loops, and a plain queue-based breadth-first walk.  The strict regime
has multiplications, stabilization and destabilization; the extended
regime adds the generator basis changes g_i -> g_i g_j^(+-1),
g_i -> g_i^-1 and g_i <-> g_j, applied by its own substitution.

States are classes of balanced presentations up to relator order,
inversion and conjugation; a child is admissible when its canonical
total length fits the bound.  Counting agreement with the fast engine
is what the tests check, so keep this file slow and obvious.
"""

from collections import deque


def scan_reduce(seq):
    """Free reduction by repeated full scans (quadratic on purpose)."""
    word = list(seq)
    changed = True
    while changed:
        changed = False
        for k in range(len(word) - 1):
            if word[k] == -word[k + 1]:
                del word[k:k + 2]
                changed = True
                break
    return tuple(word)


def naive_invert(seq):
    return tuple(-v for v in reversed(seq))


def naive_cyclic_core(seq):
    word = list(scan_reduce(seq))
    while len(word) >= 2 and word[0] == -word[-1]:
        word = word[1:-1]
    return tuple(word)


def order_key(v):
    # g1 < g1^-1 < g2 < g2^-1 < ...
    return 2 * abs(v) - (2 if v > 0 else 1)


def word_key(seq):
    return [order_key(v) for v in seq]


def naive_canonical_relator(seq):
    """Minimum over all rotations of the cyclic core and of its inverse."""
    core = naive_cyclic_core(seq)
    if not core:
        return ()
    best = None
    for base in (core, naive_invert(core)):
        for p in range(len(base)):
            rot = base[p:] + base[:p]
            if best is None or word_key(rot) < word_key(best):
                best = rot
    return best


def relator_key(seq):
    return (len(seq), word_key(seq))


def naive_state(rank, relators):
    rels = sorted((naive_canonical_relator(r) for r in relators), key=relator_key)
    return (rank, tuple(rels))


def is_trivial_state(state):
    rank, rels = state
    return list(rels) == [(k,) for k in range(1, rank + 1)]


def naive_substitute(seq, images):
    """Replace each letter by the image of its generator (the inverse
    image for an inverse letter), then reduce.  Generators missing from
    `images` are fixed."""
    out = []
    for v in seq:
        image = images.get(abs(v), (abs(v),))
        out.extend(image if v > 0 else naive_invert(image))
    return scan_reduce(out)


def generator_maps(rank):
    """Every generator basis change of the extended regime, as images."""
    maps = []
    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            if j != i:
                maps.append({i: (i, j)})
                maps.append({i: (i, -j)})
    for i in range(1, rank + 1):
        maps.append({i: (-i,)})
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            maps.append({i: (j,), j: (i,)})
    return maps


def naive_successors(state, max_len, regime="strict"):
    rank, rels = state
    total = sum(len(r) for r in rels)
    children = []

    # replace relator i by a rotation of it times a rotated copy of
    # relator j or of its inverse
    for i in range(rank):
        others = total - len(rels[i])
        for j in range(rank):
            if j == i or not rels[j]:
                continue
            left_words = [rels[i]] if not rels[i] else [
                rels[i][p:] + rels[i][:p] for p in range(len(rels[i]))]
            right_words = []
            for base in (rels[j], naive_invert(rels[j])):
                for q in range(len(base)):
                    right_words.append(base[q:] + base[:q])
            for u in left_words:
                for v in right_words:
                    child_rel = naive_canonical_relator(scan_reduce(u + v))
                    if others + len(child_rel) > max_len:
                        continue
                    new_rels = list(rels)
                    new_rels[i] = child_rel
                    children.append(naive_state(rank, new_rels))

    # stabilize
    if total + 1 <= max_len:
        children.append(naive_state(rank + 1, list(rels) + [(rank + 1,)]))

    # destabilize
    if rank >= 2:
        for i in range(rank):
            if len(rels[i]) != 1:
                continue
            gen = abs(rels[i][0])
            used_elsewhere = any(
                any(abs(v) == gen for v in rels[j])
                for j in range(rank) if j != i)
            if used_elsewhere:
                continue
            renumbered = []
            for j in range(rank):
                if j == i:
                    continue
                renumbered.append(tuple(
                    (1 if v > 0 else -1) * (abs(v) - (1 if abs(v) > gen else 0))
                    for v in rels[j]))
            children.append(naive_state(rank - 1, renumbered))

    if regime == "extended":
        for images in generator_maps(rank):
            child = naive_state(rank, [naive_substitute(r, images) for r in rels])
            if sum(len(r) for r in child[1]) <= max_len:
                children.append(child)

    return children


def naive_search(rank, relators, max_len, max_depth, regime="strict"):
    """Plain breadth-first walk in the "strict" or "extended" regime;
    returns (status, visited_count).

    status is "found" as soon as a trivial class is generated anywhere
    in a level, after that whole level has been added to the visited
    set — mirroring the level-completion contract of the fast engine —
    and "exhausted" when the frontier empties within the depth bound.
    """
    start = naive_state(rank, relators)
    if sum(len(r) for r in start[1]) > max_len:
        raise ValueError("start exceeds the length bound")
    seen = {start}
    if is_trivial_state(start):
        return "found", 1
    frontier = deque([start])
    depth = 0
    while frontier and depth < max_depth:
        depth += 1
        next_frontier = deque()
        hit = False
        for state in frontier:
            for child in naive_successors(state, max_len, regime):
                if child in seen:
                    continue
                seen.add(child)
                next_frontier.append(child)
                if is_trivial_state(child):
                    hit = True
        if hit:
            return "found", len(seen)
        frontier = next_frontier
    return "exhausted", len(seen)
