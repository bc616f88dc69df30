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

The multiplication and stabilization edges are built here (the
products by `_kernel.expand_multiply`, which also drops every product
longer than the relator's share of max_total_length before it
canonicalizes it); destabilization and the
generator basis changes are presentations.generator_move, the same
definition apply_move replays, so a class edge and its atomic moves
cannot drift apart.

Bounds: max_total_length applies to the canonical (minimal) total
length of every class on a path; max_depth counts essential moves.
"""

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
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
    canonical_form,
    generator_move,
    is_trivial_presentation,
    move_from_dict,
    move_to_dict,
    presentation_from_dict,
    presentation_to_dict,
    _is_trivial_state,
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
    workers: int = 1


@dataclass
class SearchStats:
    visited: int
    frontier_peak: int
    max_total_length: int
    max_depth: int
    depth_reached: int


@dataclass
class SearchOutcome:
    status: str                          # "found" | "exhausted" | "inconclusive"
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

def _state_total(state):
    return sum(len(r) for r in state[1])


# edge kind -> the generator-level move it stands for; the edge's
# remaining fields are the move's arguments
_GENERATOR_EDGES = {"destab": Destabilize, "nielsen": NielsenGenerator,
                    "invgen": InvertGenerator, "swapgen": SwapGenerators}


@functools.lru_cache(maxsize=None)
def _basis_change_edges(rank):
    """(edge, move) pairs of the extended regime's generator basis
    changes at a rank, in enumeration order."""
    gens = range(1, rank + 1)
    edges = [("nielsen", i, j, s) for i in gens for j in gens if j != i for s in (1, -1)]
    edges += [("invgen", i) for i in gens]
    edges += [("swapgen", i, j) for i in gens for j in gens if i < j]
    return tuple((edge, _GENERATOR_EDGES[edge[0]](*edge[1:])) for edge in edges)


def _successors(state, max_len, regime):
    """Child classes of a state with their edge descriptors, in the fixed
    deterministic enumeration order."""
    rank, rels = state
    total = _state_total(state)
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
                            (rank, sort_relators(head + (child_rel,) + tail))))

    # stabilize
    if total + 1 <= max_len:
        out.append((("stab",), (rank + 1, sort_relators(rels + ((rank + 1,),)))))

    # destabilize relator i when it is a single letter; generator_move
    # rejects the move when that generator occurs in another relator.
    # Renumbering keeps canonical relators canonical and sorted.
    for i in range(1, rank + 1):
        if len(rels[i - 1]) == 1:
            try:
                child = generator_move(rank, rels, Destabilize(i))
            except MoveError:
                continue
            out.append((("destab", i), child))

    if regime == "extended":
        for edge, move in _basis_change_edges(rank):
            _, mapped = generator_move(rank, rels, move)
            child = (rank, sort_relators(map(_kernel.canonical_relator, mapped)))
            # only a Nielsen move can lengthen the presentation
            if _state_total(child) <= max_len:
                out.append((edge, child))

    return out


# ---------------------------------------------------------------------------
# Certificate expansion: class path -> atomic moves

def _canonicalization_moves(P):
    """Bookkeeping moves bringing P to its canonical representative."""
    moves = []

    def emit(mv, Q):
        moves.append(mv)
        return apply_move(Q, mv)

    for i in range(1, P.rank + 1):
        # cyclically reduce relator i
        r = P.relators[i - 1].letters
        while len(r) >= 2 and r[0] == -r[-1]:
            P = emit(ConjugateRelator(i, -r[0]), P)
            r = P.relators[i - 1].letters
        if not r:
            continue
        target = _kernel.canonical_relator(r)
        rotations = {r[s:] + r[:s] for s in range(len(r))}
        if target not in rotations:
            P = emit(InvertRelator(i), P)
            r = P.relators[i - 1].letters
        while P.relators[i - 1].letters != target:
            P = emit(ConjugateRelator(i, -P.relators[i - 1].letters[0]), P)
    # sort relators by the canonical order; relators pos.. always hold
    # target[pos - 1:], so the first match is the first least relator
    target = _kernel.sort_relators([r.letters for r in P.relators])
    for pos in range(1, P.rank + 1):
        best = next(t for t in range(pos, P.rank + 1)
                    if P.relators[t - 1].letters == target[pos - 1])
        if best != pos:
            P = emit(SwapRelators(pos, best), P)
    return moves, P


def _edge_moves(P, edge):
    """Atomic moves realizing a class edge from the canonical
    representative P; returns (moves, presentation after them)."""
    moves = []

    def emit(mv, Q):
        moves.append(mv)
        return apply_move(Q, mv)

    kind = edge[0]
    if kind == "mul":
        _, i, j, p, eps, q = edge
        for _ in range(p):
            P = emit(ConjugateRelator(i, -P.relators[i - 1].letters[0]), P)
        if eps == -1:
            P = emit(InvertRelator(j), P)
        for _ in range(q):
            P = emit(ConjugateRelator(j, -P.relators[j - 1].letters[0]), P)
        P = emit(MultiplyRelator(i, j, "right"), P)
    elif kind == "stab":
        P = emit(Stabilize(), P)
    elif kind in _GENERATOR_EDGES:
        P = emit(_GENERATOR_EDGES[kind](*edge[1:]), P)
    else:
        raise RuntimeError("unknown edge %r" % (kind,))
    return moves, P


def _expand_certificate(start, path):
    """Turn a class-edge path into a replayable atomic certificate."""
    moves, P = _canonicalization_moves(start)
    for edge, child_state in path:
        ms, P = _edge_moves(P, edge)
        moves.extend(ms)
        ms, P = _canonicalization_moves(P)
        moves.extend(ms)
        if canonical_form(P) != child_state:
            raise RuntimeError("certificate expansion diverged from the class path")
    return MoveCertificate(start, tuple(moves))


def _reconstruct_path(visited, goal):
    path = []
    state = goal
    while True:
        parent, edge = visited[state]
        if parent is None:
            break
        path.append((edge, state))
        state = parent
    path.reverse()
    return path


# ---------------------------------------------------------------------------
# Search driver

def _validate_config(start, cfg):
    if cfg.move_regime not in ("strict", "extended"):
        raise ValueError("move_regime must be 'strict' or 'extended', got %r"
                         % (cfg.move_regime,))
    if cfg.max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if cfg.workers < 1:
        raise ValueError("workers must be >= 1, got %r" % (cfg.workers,))
    if start.total_length() > cfg.max_total_length:
        raise ValueError(
            "max_total_length %d is below the start presentation's total length %d"
            % (cfg.max_total_length, start.total_length()))


def search(start, cfg, progress=None):
    """Bounded-exhaustive breadth-first search for a trivialization of
    `start`.

    The search expands the class graph level by level.  Each frontier
    state's successors are deduplicated against the visited table before
    the next state is expanded, so a level's duplicate children are never
    held at once; with more than one worker and a frontier of more than
    64 states, the level is expanded in a process pool instead and its
    results are merged in the same frontier order.

    Returns a SearchOutcome: "found" with a verified certificate,
    "exhausted" when every class within the bounds was explored, or
    "inconclusive" when the dedup table exceeded its capacity.  Outcome,
    visited counts and certificate are deterministic for a fixed config,
    independent of the worker count.

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
    start_state = canonical_form(start)
    visited = {start_state: (None, None)}
    stats = SearchStats(visited=1, frontier_peak=1,
                        max_total_length=L, max_depth=D, depth_reached=0)
    if _is_trivial_state(start_state):
        return SearchOutcome("found", MoveCertificate(start, ()), stats)

    frontier = [start_state]
    depth = 0
    workers = min(cfg.workers, os.cpu_count() or 1)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        while frontier and depth < D:
            depth += 1
            if pool is not None and len(frontier) > 64:
                # about four chunks per worker; results come back in order
                expand = functools.partial(pool.map,
                                           chunksize=-(-len(frontier) // (4 * workers)))
            else:
                expand = map  # lazy: one state's successors at a time
            expansion = expand(_successors, frontier, repeat(L), repeat(cfg.move_regime))

            found = None
            new_states = []
            for parent, successors in zip(frontier, expansion):
                for edge, child in successors:
                    if child in visited:
                        continue
                    visited[child] = (parent, edge)
                    new_states.append(child)
                    if found is None and _is_trivial_state(child):
                        found = child

            stats.visited = len(visited)
            stats.frontier_peak = max(stats.frontier_peak, len(new_states))
            stats.depth_reached = depth
            if progress is not None:
                progress(depth, len(visited), len(new_states))
            if found is not None:
                cert = _expand_certificate(start, _reconstruct_path(visited, found))
                report = verify(cert)
                if not report.ok:
                    raise RuntimeError("internal error: found certificate failed to verify: %s"
                                       % (report.reason,))
                return SearchOutcome("found", cert, stats)
            # capacity is a soft ceiling checked at level boundaries so the
            # outcome stays deterministic across worker counts
            if len(visited) > cfg.dedup_capacity:
                return SearchOutcome("inconclusive", None, stats)
            frontier = new_states
        return SearchOutcome("exhausted", None, stats)
    finally:
        if pool is not None:
            pool.shutdown()


def hybrid_trivialize(start, prefix, cfg, progress=None):
    """Replay a certificate prefix, then search from its endpoint.

    A Found outcome carries the concatenated, end-to-end certificate.
    Raises MoveError if the prefix does not replay legally from start.
    """
    if prefix.start != start:
        raise MoveError("prefix certificate starts at a different presentation")
    P = start
    for move in prefix.moves:
        P = apply_move(P, move)
    out = search(P, cfg, progress)
    if out.found:
        cert = MoveCertificate(start, tuple(prefix.moves) + tuple(out.certificate.moves))
        report = verify(cert)
        if not report.ok:
            raise RuntimeError("internal error: hybrid certificate failed to verify: %s"
                               % (report.reason,))
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
    doc = {"status": outcome.status,
           "stats": {"visited": outcome.stats.visited,
                     "frontier_peak": outcome.stats.frontier_peak,
                     "max_total_length": outcome.stats.max_total_length,
                     "max_depth": outcome.stats.max_depth,
                     "depth_reached": outcome.stats.depth_reached}}
    doc["certificate"] = (certificate_to_dict(outcome.certificate)
                          if outcome.certificate is not None else None)
    return doc
