"""Certificate verification and bounded trivialization search.

The search is breadth-first, in the style of the Andrews–Curtis
searches of Havas–Ramsay (2003) and Bowman–McCaul (2006), and works on
canonical classes (presentations up to relator permutation, inversion
and conjugation).  One search step is an
essential move: replacing a relator by its product with a rotated copy
(or inverted rotated copy) of another, stabilizing, destabilizing, or —
in the extended regime — a generator basis change.  Bookkeeping moves
(relator inversion, conjugation, swap) do not change the class and are
implicit; when a certificate is extracted, every class step is expanded
into a legal sequence of atomic moves, so certificates always replay
move by move.

A class is keyed by its packed state: the `bytes` string that
`_kernel.pack_state` makes of its sorted canonical relators
(presentations.canonical_form); the search packs only its start and the
trivial classes.  The visited table maps each key to its parent's key,
and the search expands a whole level by one kernel call in either
regime, `_kernel.expand_level`, which enumerates the children of each
class of the frontier, as `_kernel_py.expand_class` states them, and
inserts the new ones, packed, into the visited table; `_kernel` says
which kernel functions are compiled and `_kernel_py` what they compute.
A start of rank r searched within total length L reaches no generator
above r + L, so `_validate_config` requires r + L <= 127, the most a
packed key holds.

Only the path to a trivial class needs its edges.  Certificate
expansion unpacks the classes on that path and re-derives each edge from
the parent's successors (`_successors`).  The multiplication edges are
built there, the products by `_kernel.expand_multiply`.  Every other
edge is ("move", m): the stabilization, the destabilization of each
single-letter relator and, in the extended regime, the basis changes,
each applied by presentations.atomic_move, the one definition of each
atomic move that apply_move replays, skipped where atomic_move rejects
it, and kept if its canonical child fits max_len.  So a class edge and
its atomic moves cannot drift apart.  A class's children in the
kernel's enumeration are those of `_successors` in the same order, each
once, in both regimes; tests check `expand_level` on one class at a
time against `_successors` and against the naive oracle.

Bounds: max_total_length applies to the canonical (minimal) total
length of every class on a path; max_depth counts essential moves.
"""

from dataclasses import asdict, dataclass
from typing import Optional

from ackirby import _kernel
from ackirby.presentations import (
    ConjugateRelator,
    Destabilize,
    InvertGenerator,
    InvertRelator,
    MoveError,
    MultiplyRelator,
    NielsenGenerator,
    Presentation,
    Stabilize,
    SwapGenerators,
    SwapRelators,
    apply_move,
    atomic_move,
    canonical_form,
    is_trivial_presentation,
    move_from_dict,
    move_to_dict,
    presentation_from_dict,
    presentation_to_dict,
)


@dataclass(frozen=True)
class MoveCertificate:
    """A claimed trivialization: a start presentation and a move sequence."""
    start: Presentation
    moves: tuple


@dataclass
class VerificationReport:
    ok: bool
    steps_applied: int
    failed_step: Optional[int]  # index of the offending move, if replay broke
    reason: Optional[str]
    final: Optional[Presentation]
    trace: Optional[tuple] = None  # (move, presentation-after) pairs when requested

    def __bool__(self):
        return self.ok


@dataclass
class SearchConfig:
    max_total_length: int
    max_depth: int
    move_regime: str = "strict"          # "strict" | "extended"
    dedup_capacity: int = 1_000_000


@dataclass
class SearchStats:
    visited: int
    frontier_peak: int
    max_total_length: int
    max_depth: int
    depth_reached: int


@dataclass
class SearchOutcome:
    # "found" | "exhausted" | "inconclusive"; "exhausted" also at the
    # depth cap, whose last level was never expanded
    status: str
    certificate: Optional[MoveCertificate]
    stats: SearchStats

    @property
    def found(self):
        return self.status == "found"


def verify(cert, trace=False):
    """Replay a certificate and check the final presentation is trivial.

    Failures are reported, not raised: the report carries the index of
    the first illegal move, or a reason if the replay ends non-trivially.
    With trace=True the report also carries every intermediate
    presentation as (move, presentation-after) pairs.
    """
    P = cert.start
    log = [] if trace else None
    for idx, move in enumerate(cert.moves):
        try:
            P = apply_move(P, move)
        except (MoveError, ValueError) as exc:
            return VerificationReport(False, idx, idx, str(exc), None,
                                      tuple(log) if trace else None)
        if trace:
            log.append((move, P))
    result = tuple(log) if trace else None
    if is_trivial_presentation(P):
        return VerificationReport(True, len(cert.moves), None, None, P, result)
    return VerificationReport(False, len(cert.moves), None,
                              "final presentation is not trivial", P, result)


# ---------------------------------------------------------------------------
# Class states

def _basis_changes(rank):
    """The extended regime's generator basis changes at a rank, in
    enumeration order, which the kernel's class enumeration follows too."""
    gens = range(1, rank + 1)
    moves = [NielsenGenerator(i, j, s) for i in gens for j in gens if j != i for s in (1, -1)]
    moves += [InvertGenerator(i) for i in gens]
    moves += [SwapGenerators(i, j) for i in gens for j in gens if i < j]
    return moves


def _successors(rels, max_len, regime):
    """Child classes of a class with their edges, in the fixed
    deterministic enumeration order: ("mul", i, j, p, eps, q) for a
    multiplication, ("move", m) for any other atomic move m."""
    rank = len(rels)
    total = sum(map(len, rels))
    sort_relators = _kernel.sort_relators
    out = []

    # multiplications: replace relator i by a product with a rotated
    # (possibly inverted) copy of relator j; the kernel keeps only the
    # products within relator i's share of the length budget
    for i in range(1, rank + 1):
        ci = rels[i - 1]
        head, tail = rels[:i - 1], rels[i:]
        budget = max_len - (total - len(ci))
        for j in range(1, rank + 1):
            if j == i or not rels[j - 1]:
                continue
            for child_rel, (p, eps, q) in _kernel.expand_multiply(ci, rels[j - 1], budget).items():
                out.append((("mul", i, j, p, eps, q),
                            sort_relators(head + (child_rel,) + tail)))

    # stabilize, then destabilize each single-letter relator whose
    # generator occurs in no other relator (atomic_move rejects the rest),
    # then the basis changes; keep each child within max_len
    moves = [Stabilize()] + [Destabilize(i) for i in range(1, rank + 1) if len(rels[i - 1]) == 1]
    if regime == "extended":
        moves += _basis_changes(rank)
    for move in moves:
        try:
            child = atomic_move(rels, move)
        except MoveError:
            continue
        child = sort_relators(map(_kernel.canonical_relator, child))
        if sum(map(len, child)) <= max_len:
            out.append((("move", move), child))
    return out


# ---------------------------------------------------------------------------
# Certificate expansion: class path -> atomic moves

def _expand_certificate(start, visited, goal, max_len, regime):
    """Turn the class path from `start` to `goal` into a replayable
    atomic certificate.

    The path follows the parent links of `visited` between packed
    classes, which are unpacked.  Each step's edge is the first edge of
    the parent's successors that yields the child, which is the edge that
    inserted the child.  The moves are simulated
    by atomic_move on the relator letter tuples: bookkeeping
    moves bring each presentation on the path to its canonical
    representative, from which the next class edge is realized.
    """
    path = [goal]
    while visited[path[-1]] is not None:
        path.append(visited[path[-1]])
    path = [_kernel.unpack_state(state) for state in reversed(path)]
    moves = []
    rels = tuple(r.letters for r in start.relators)

    def emit(move):
        nonlocal rels
        moves.append(move)
        rels = atomic_move(rels, move)

    def canonicalize():
        for i in range(1, len(rels) + 1):
            # cyclically reduce relator i
            while len(rels[i - 1]) >= 2 and rels[i - 1][0] == -rels[i - 1][-1]:
                emit(ConjugateRelator(i, -rels[i - 1][0]))
            r = rels[i - 1]
            if not r:
                continue
            target = _kernel.canonical_relator(r)
            if target not in {r[s:] + r[:s] for s in range(len(r))}:
                emit(InvertRelator(i))
            while rels[i - 1] != target:
                emit(ConjugateRelator(i, -rels[i - 1][0]))
        # sort relators by the canonical order; relators pos.. always hold
        # target[pos - 1:], so the first match is the first least relator
        target = _kernel.sort_relators(rels)
        for pos in range(1, len(rels) + 1):
            best = next(t for t in range(pos, len(rels) + 1) if rels[t - 1] == target[pos - 1])
            if best != pos:
                emit(SwapRelators(pos, best))

    canonicalize()
    for parent, child in zip(path, path[1:]):
        edge = next(e for e, c in _successors(parent, max_len, regime) if c == child)
        if edge[0] == "mul":
            _, i, j, p, eps, q = edge
            for _ in range(p):
                emit(ConjugateRelator(i, -rels[i - 1][0]))
            if eps == -1:
                emit(InvertRelator(j))
            for _ in range(q):
                emit(ConjugateRelator(j, -rels[j - 1][0]))
            emit(MultiplyRelator(i, j, "right"))
        else:
            emit(edge[1])
        canonicalize()
        if rels != child:
            raise RuntimeError("certificate expansion diverged from the class path")
    return MoveCertificate(start, tuple(moves))


# ---------------------------------------------------------------------------
# Search driver

def _validate_config(start, cfg):
    for name in ("max_total_length", "max_depth", "dedup_capacity"):
        value = getattr(cfg, name)
        # `type`, not isinstance: True is not the budget 1
        if type(value) is not int:
            raise ValueError("%s must be an int, got %r" % (name, value))
    if cfg.move_regime not in ("strict", "extended"):
        raise ValueError("move_regime must be 'strict' or 'extended', got %r"
                         % (cfg.move_regime,))
    if cfg.max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if cfg.dedup_capacity < 1:
        raise ValueError("dedup_capacity must be >= 1, got %r" % (cfg.dedup_capacity,))
    if start.total_length() > cfg.max_total_length:
        raise ValueError(
            "max_total_length %d is below the start presentation's total length %d"
            % (cfg.max_total_length, start.total_length()))
    # moves preserve the group, so a reachable class has at most
    # max_total_length nonempty relators and at most b1 <= rank empty
    # ones: its generators stay within rank + max_total_length
    if start.rank + cfg.max_total_length > _kernel.MAX_PACKED_GENERATOR:
        raise ValueError(
            "the start rank %d plus max_total_length %d exceeds %d, the most"
            " generators a packed class holds"
            % (start.rank, cfg.max_total_length, _kernel.MAX_PACKED_GENERATOR))


def search(start, cfg, progress=None):
    """Bounded-exhaustive breadth-first search for a trivialization of
    `start`.

    The search expands the class graph level by level, in one process,
    by one `_kernel.expand_level` call per level, which deduplicates
    each state's successors against the visited table before it expands
    the next state.

    Returns a SearchOutcome: "found" with a verified certificate,
    "exhausted" when the frontier runs out or the search stops at
    `max_depth`, or "inconclusive" when a new class found the visited
    table full.  At the depth cap the classes of the last level are
    never expanded, so "exhausted" does not mean that the
    length-bounded class graph ran out: at max_total_length 17 the
    family member n = 3 has 5858 classes within depth 6, and 42450 with
    no depth cap.  The table holds at most `dedup_capacity` classes; a
    duplicate needs no room.  A full table stops the level at once, and
    a trivial class inserted before that still gives "found".  Outcome,
    visited counts and certificate are deterministic for a fixed config.

    `progress`, if given, is called as progress(depth, visited, frontier)
    at each depth boundary; it must not influence the search.

    >>> from ackirby.presentations import parse_presentation
    >>> out = search(parse_presentation("2; xY; y"),
    ...              SearchConfig(max_total_length=8, max_depth=4))
    >>> out.status
    'found'
    >>> verify(out.certificate).ok
    True
    """
    _validate_config(start, cfg)
    L, D = cfg.max_total_length, cfg.max_depth
    pack_state, expand_level = _kernel.pack_state, _kernel.expand_level
    extended = cfg.move_regime == "extended"
    start_state = pack_state(canonical_form(start))
    visited = {start_state: None}    # packed class -> packed parent class
    generators = [(k,) for k in range(1, start.rank + L + 1)]
    trivial = {pack_state(generators[:rank]) for rank in range(1, len(generators) + 1)}
    stats = SearchStats(visited=1, frontier_peak=1,
                        max_total_length=L, max_depth=D, depth_reached=0)
    if start_state in trivial:
        return SearchOutcome("found", MoveCertificate(start, ()), stats)

    frontier = [start_state]
    depth = 0
    while frontier and depth < D:
        depth += 1
        new_states, full = expand_level(frontier, visited, L, extended, cfg.dedup_capacity)
        found = None
        if not trivial.isdisjoint(new_states):
            found = next(state for state in new_states if state in trivial)

        stats.visited = len(visited)
        stats.frontier_peak = max(stats.frontier_peak, len(new_states))
        stats.depth_reached = depth
        if progress is not None:
            progress(depth, len(visited), len(new_states))
        if found is not None:
            cert = _expand_certificate(start, visited, found, L, cfg.move_regime)
            report = verify(cert)
            if not report.ok:
                raise RuntimeError("internal error: found certificate failed to verify: %s"
                                   % (report.reason,))
            return SearchOutcome("found", cert, stats)
        if full:
            return SearchOutcome("inconclusive", None, stats)
        frontier = new_states
    return SearchOutcome("exhausted", None, stats)


def hybrid_trivialize(start, prefix, cfg, progress=None):
    """Replay a certificate prefix, then search from its endpoint.

    A Found outcome carries the concatenated, end-to-end certificate.
    It is not replayed again: the prefix replayed legally here, and
    `search` verified the suffix from the prefix's endpoint.  Raises
    MoveError if the prefix does not replay legally from start.
    """
    if prefix.start != start:
        raise MoveError("prefix certificate starts at a different presentation")
    P = start
    for move in prefix.moves:
        P = apply_move(P, move)
    out = search(P, cfg, progress)
    if out.found:
        cert = MoveCertificate(start, tuple(prefix.moves) + out.certificate.moves)
        return SearchOutcome("found", cert, out.stats)
    return out


# ---------------------------------------------------------------------------
# Serialization

def certificate_to_dict(cert):
    return {"start": presentation_to_dict(cert.start),
            "moves": [move_to_dict(m) for m in cert.moves]}


def certificate_from_dict(doc):
    if not isinstance(doc, dict) or set(doc) != {"start", "moves"} \
            or not isinstance(doc["moves"], list):
        raise ValueError("malformed certificate record %r: it needs exactly "
                         "\"start\" and a list \"moves\"" % (doc,))
    return MoveCertificate(presentation_from_dict(doc["start"]),
                           tuple(move_from_dict(m) for m in doc["moves"]))


def outcome_to_dict(outcome):
    doc = {"status": outcome.status, "stats": asdict(outcome.stats)}
    doc["certificate"] = (certificate_to_dict(outcome.certificate)
                          if outcome.certificate is not None else None)
    return doc
