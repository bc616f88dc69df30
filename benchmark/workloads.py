"""The four benchmark workloads, their pinned outputs and their checks.

The three search workloads are fixed paper instances run through the
CLI; the seed is passed on as `--seed`, which the CLI only records.  The
`calculus` workload runs seeded rounds of the move calculus with no
search at all.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


@dataclass(frozen=True)
class SearchWorkload:
    name: str
    n: int                      # family member presentation_Ln1(n)
    argv: tuple                 # CLI argv after `ackirby`
    status: str
    exit_code: int
    visited: int
    frontier_peak: int
    depth_reached: int
    moves: Optional[int]        # certificate length; None when exhausted
    outcome_sha256: str         # hash of the JSON `outcome` block
    workers: int = 1

    def argv_at(self, workers):
        """The same search at another worker count."""
        argv = list(self.argv)
        if "--workers" in argv:
            k = argv.index("--workers")
            del argv[k:k + 2]
        return tuple(argv) + ("--workers", str(workers))


SEARCHES = {
    w.name: w for w in (
        SearchWorkload(
            name="found-n1", n=1,
            argv=("search", "--family", "n=1", "--max-len", "13", "--max-depth", "24"),
            status="found", exit_code=0, visited=7784, frontier_peak=6736,
            depth_reached=4, moves=22,
            outcome_sha256="a867088d61278196b4482a733cdf5d882afe72da35d5c205d9e2e72dbb844c3c"),
        SearchWorkload(
            name="exhaust-n3", n=3,
            argv=("search", "--family", "n=3", "--max-len", "16", "--max-depth", "8",
                  "--workers", "2"),
            status="exhausted", exit_code=1, visited=487, frontier_peak=410,
            depth_reached=8, moves=None,
            outcome_sha256="bb1f253c4fa450e9f472e6cd93b1e278f33946226f021134ae4fc09c517d0e2e", workers=2),
        SearchWorkload(
            name="extended-n2", n=2,
            argv=("search", "--family", "n=2", "--regime", "extended",
                  "--max-len", "12", "--max-depth", "6"),
            status="found", exit_code=0, visited=2676, frontier_peak=1964,
            depth_reached=6, moves=51,
            outcome_sha256="4cea89cff24759af572435305d0c600eb030922072454e42a84d72093667fb05"),
    )
}

CALCULUS = "calculus"
NAMES = tuple(SEARCHES) + (CALCULUS,)


def outcome_digest(outcome):
    return hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()


def check_search(wl, code, stdout):
    """Problems with one CLI search result (empty when it is correct).
    Returns (problems, outcome block or None)."""
    from ackirby.family import presentation_Ln1
    from ackirby.search import certificate_from_dict, verify

    problems = []
    if code != wl.exit_code:
        problems.append("exit code %r, expected %d" % (code, wl.exit_code))
    try:
        outcome = json.loads(stdout)["outcome"]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + ["unreadable JSON output: %s" % exc], None
    stats = outcome.get("stats", {})
    if outcome.get("status") != wl.status:
        problems.append("status %r, expected %r" % (outcome.get("status"), wl.status))
    for key in ("visited", "frontier_peak", "depth_reached"):
        if stats.get(key) != getattr(wl, key):
            problems.append("%s %r, expected %r" % (key, stats.get(key), getattr(wl, key)))
    cert = outcome.get("certificate")
    moves = None if cert is None else len(cert.get("moves", ()))
    if moves != wl.moves:
        problems.append("certificate moves %r, expected %r" % (moves, wl.moves))
    if outcome_digest(outcome) != wl.outcome_sha256:
        problems.append("outcome block hash %s, expected %s"
                        % (outcome_digest(outcome), wl.outcome_sha256))
    if cert is not None:
        certificate = certificate_from_dict(cert)
        if certificate.start != presentation_Ln1(wl.n):
            problems.append("certificate starts elsewhere")
        report = verify(certificate)
        if not report.ok:
            problems.append("certificate replay failed: %s" % (report.reason,))
    return problems, outcome


# ---------------------------------------------------------------------------
# calculus: seeded rounds of the move calculus

WALKS = 8             # random move walks per round
WALK_MOVES = 60       # candidate moves per walk
WALK_SLACK = 10       # a walk may grow the total length by this much
MATRIX_SIZE = 5
SLIDES = 40
CURVE_HEIGHT = 40
GERSTEN_MOVES = 62


@dataclass(frozen=True)
class CalculusInputs:
    walks: tuple          # ((n, moves), ...) on presentation_Ln1(n)
    entries: tuple        # symmetric linking matrix
    kinds: tuple
    slides: tuple         # ((i, j, sign), ...), legal for `kinds`
    labeling: dict
    height: int
    determinant: int      # of `entries`, by an independent oracle
    candidates: tuple     # slope directions, by brute force


def calculus_inputs(seed, round_no):
    """The inputs of one calculus round, with the oracle answers its
    checks compare against; the same (seed, round) gives the same inputs."""
    from ackirby.presentations import (
        ConjugateRelator, InvertGenerator, InvertRelator, MultiplyByConjugate,
        MultiplyRelator, NielsenGenerator, SwapGenerators, SwapRelators)
    from ackirby.words import Word

    rng = random.Random("calculus/%d/%d" % (seed, round_no))

    def random_move():
        i = rng.randrange(1, 3)
        j = 3 - i
        kind = rng.randrange(8)
        if kind == 0:
            return InvertRelator(i)
        if kind == 1:
            return MultiplyRelator(i, j, rng.choice(("left", "right")))
        if kind == 2:
            return ConjugateRelator(i, rng.choice((1, -1)) * rng.randrange(1, 3))
        if kind == 3:
            return SwapRelators(1, 2)
        if kind == 4:
            return NielsenGenerator(i, j, rng.choice((1, -1)))
        if kind == 5:
            return InvertGenerator(i)
        if kind == 6:
            return SwapGenerators(1, 2)
        conj = Word(tuple(rng.choice((1, -1)) * rng.randrange(1, 3)
                          for _ in range(rng.randrange(0, 3))))
        return MultiplyByConjugate(i, j, conj, rng.choice((1, -1)))

    walks = tuple((rng.randrange(1, 4), tuple(random_move() for _ in range(WALK_MOVES)))
                  for _ in range(WALKS))

    dotted = rng.randrange(MATRIX_SIZE)
    kinds = tuple("d" if k == dotted else "h" for k in range(MATRIX_SIZE))
    entries = [[0] * MATRIX_SIZE for _ in range(MATRIX_SIZE)]
    for a in range(MATRIX_SIZE):
        for b in range(a, MATRIX_SIZE):
            v = 0 if a == b == dotted else rng.randint(-3, 3)
            entries[a][b] = entries[b][a] = v
    slides = []
    while len(slides) < SLIDES:
        i, j = rng.sample(range(1, MATRIX_SIZE + 1), 2)
        if i - 1 != dotted:          # a dotted circle never slides over a 2-handle
            slides.append((i, j, rng.choice((1, -1))))

    points = [(0, 0), (1, 0), (0, 1), (1, 1)]
    rng.shuffle(points)
    labeling = dict(zip(("L1", "L2", "R1", "R2"), points))
    return CalculusInputs(walks, tuple(map(tuple, entries)), kinds, tuple(slides),
                          labeling, CURVE_HEIGHT, _oracle_determinant(entries),
                          _oracle_candidates(labeling, CURVE_HEIGHT))


def _oracle_determinant(rows):
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    n, det = len(m), Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            for c in range(k, n):
                m[r][c] -= f * m[k][c]
    return int(det)


def _oracle_candidates(labeling, height):
    """Candidate directions by brute force: the puncture at (0, 0) is
    paired with the one at (a mod 2, b mod 2), and a candidate pairs an
    L label with an R label."""
    from math import gcd
    label_at = {tuple(pt): label for label, pt in labeling.items()}
    first = label_at[(0, 0)].startswith("L")
    out = []
    for a in range(0, height + 1):
        for b in range(-height, height + 1):
            if (a == 0 and b != 1) or gcd(a, abs(b)) != 1:
                continue
            if label_at[(a % 2, b % 2)].startswith("L") != first:
                out.append((a, b))
    return tuple(sorted(out))


def _abel_det(P):
    (a, b), (c, d) = ([sum(1 if v == g else -1 if v == -g else 0 for v in r.letters)
                       for g in (1, 2)] for r in P.relators)
    return a * d - b * c


def calculus_round(inp):
    """Run one round; returns the list of invariants that failed."""
    from ackirby.curves import PunctureLabeling, enumerate_candidates
    from ackirby.family import gersten_certificate, presentation_Ln1
    from ackirby.kirby import FramedLinkMatrix, slide
    from ackirby.presentations import (
        ConjugateRelator, InvertRelator, SwapRelators, apply_move, canonical_form,
        inverse_move, is_trivial_presentation)
    from ackirby.search import verify

    problems = []
    report = verify(gersten_certificate(), trace=True)
    if not (report.ok and len(report.trace) == GERSTEN_MOVES
            and is_trivial_presentation(report.final)):
        problems.append("gersten certificate replay: %s" % (report.reason,))

    class_moves = (InvertRelator, ConjugateRelator, SwapRelators)
    for n, moves in inp.walks:
        start = presentation_Ln1(n)
        cap = start.total_length() + WALK_SLACK
        P, undo = start, []
        for move in moves:
            Q = apply_move(P, move)
            if Q.total_length() > cap:
                continue
            if abs(_abel_det(Q)) != 1:
                problems.append("walk n=%d: |det| changed by %r" % (n, move))
            if isinstance(move, class_moves) and canonical_form(Q) != canonical_form(P):
                problems.append("walk n=%d: %r changed the class" % (n, move))
            undo.append(inverse_move(move, P))
            P = Q
        for move in reversed(undo):
            P = apply_move(P, move)
        if P != start or canonical_form(P) != canonical_form(start):
            problems.append("walk n=%d: inverse walk did not return to the start" % n)

    M0 = FramedLinkMatrix(inp.entries, inp.kinds)
    det0 = inp.determinant
    if M0.determinant() != det0:
        problems.append("determinant %d, oracle %d" % (M0.determinant(), det0))
    M = M0
    for i, j, sign in inp.slides:
        M = slide(M, i, j, sign)
        if M.determinant() != det0:
            problems.append("slide (%d, %d, %d) changed the determinant" % (i, j, sign))
    for i, j, sign in reversed(inp.slides):
        M = slide(M, i, j, -sign)
    if M != M0:
        problems.append("reversed slides did not return to the start matrix")

    got = tuple(s.direction
                for s in enumerate_candidates(inp.height, PunctureLabeling(inp.labeling)))
    if got != inp.candidates:
        problems.append("enumerate_candidates(%d): %d slopes, brute force %d"
                        % (inp.height, len(got), len(inp.candidates)))
    return problems
