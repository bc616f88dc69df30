"""Top-level acceptance checks, one per shipped guarantee.

Each test prints a single summary line (collected in the terminal
summary) of the form "criterion N: PASS/FAIL — name: detail"; timed
criteria include the measured runtime against the stated ceiling.
"""

import contextlib
import functools
import io
import json
import math
import random
import time

import pytest

import _acceptance_report
from naive_bfs import naive_search, scan_reduce
from ackirby import _kernel, cli
from ackirby._intdet import integer_determinant
from ackirby.curves import (
    PunctureLabeling,
    Slope,
    enumerate_candidates,
    is_candidate,
    z3_class,
)
from ackirby.family import (
    GERSTEN_PREFIX_MOVES,
    gersten_certificate,
    gersten_prefix_certificate,
    presentation_Ln1,
)
from ackirby.kirby import (
    FramedLinkMatrix,
    KirbyError,
    add_hopf_pair,
    blow_down,
    slide,
)
from ackirby.presentations import (
    ConjugateRelator,
    Destabilize,
    InvertGenerator,
    InvertRelator,
    MoveError,
    MultiplyByConjugate,
    MultiplyRelator,
    NielsenGenerator,
    Stabilize,
    SwapGenerators,
    SwapRelators,
    abelianization_matrix,
    apply_move,
    is_trivial_presentation,
)
from ackirby.search import SearchConfig, hybrid_trivialize, outcome_to_dict, search, verify
from ackirby.words import Word, cyclic_reduce, format_word, parse_word, reduce_word


def criterion(num, name, limit=None):
    """Run the body, record one pass/fail line, enforce the time limit."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                dt = time.perf_counter() - t0
                _acceptance_report.record(
                    "criterion %2d: FAIL — %s: %s (%.2fs)"
                    % (num, name, exc, dt))
                raise
            dt = time.perf_counter() - t0
            budget = (" (%.2fs < %ds)" % (dt, limit)) if limit \
                else " (%.2fs)" % dt
            if limit is not None and dt >= limit:
                _acceptance_report.record(
                    "criterion %2d: FAIL — %s: exceeded time limit%s"
                    % (num, name, budget))
                pytest.fail("criterion %d exceeded %ds (took %.2fs)"
                            % (num, limit, dt))
            _acceptance_report.record(
                "criterion %2d: PASS — %s: %s%s" % (num, name, detail, budget))
        return wrapper
    return deco


def canon(w):
    return _kernel.canonical_relator(w.letters if isinstance(w, Word) else w)


@criterion(1, "length-11 certificate replay", limit=1)
def test_criterion_01_certificate_replay():
    cert = gersten_certificate()
    rep = verify(cert)
    assert rep.ok, rep.reason
    assert is_trivial_presentation(rep.final)

    P = presentation_Ln1(2)
    upto = next(k for k, m in enumerate(GERSTEN_PREFIX_MOVES)
                if isinstance(m, MultiplyByConjugate)) + 1
    for move in GERSTEN_PREFIX_MOVES[:upto]:
        P = apply_move(P, move)
    mid = format_word(Word(canon(P.relators[0])))
    want_mid = format_word(Word(canon(parse_word("xxYxYxxY"))))
    assert mid == want_mid

    for move in GERSTEN_PREFIX_MOVES[upto:]:
        P = apply_move(P, move)
    end = format_word(Word(canon(P.relators[0])), alphabet=("x", "z"))
    want_end = format_word(Word(canon(Word((-1, 2, 2, 2)))), alphabet=("x", "z"))
    assert end == want_end == "xZZZ"
    return ("%d moves ok; checkpoints %r then %r" %
            (len(cert.moves), mid, end))


@criterion(2, "small members trivialize in-regime")
def test_criterion_02_easy_members():
    details = []
    for n in (0, 1):
        P = presentation_Ln1(n)
        cfg = SearchConfig(max_total_length=P.total_length() + 6, max_depth=24)
        t0 = time.perf_counter()
        out = search(P, cfg)
        dt = time.perf_counter() - t0
        assert out.status == "found", (n, out.status)
        rep = verify(out.certificate)
        assert rep.ok and out.certificate.start == P
        assert dt < 60, (n, dt)
        details.append("n=%d visited=%d in %.2fs" % (n, out.stats.visited, dt))
    return "; ".join(details)


@criterion(3, "prefix-assisted trivialization of the n=2 member", limit=60)
def test_criterion_03_hybrid():
    P = presentation_Ln1(2)
    out = hybrid_trivialize(P, gersten_prefix_certificate(),
                            SearchConfig(max_total_length=15, max_depth=24))
    assert out.status == "found", out.status
    rep = verify(out.certificate)
    assert rep.ok and out.certificate.start == P
    assert is_trivial_presentation(rep.final)
    return ("found; %d total moves, visited=%d"
            % (len(out.certificate.moves), out.stats.visited))


@criterion(4, "bounded exhaustion is deterministic", limit=600)
def test_criterion_04_exhaustion_determinism():
    P = presentation_Ln1(3)
    cfg = SearchConfig(max_total_length=15, max_depth=8)
    runs = [search(P, cfg) for _ in range(5)]
    for out in runs:
        assert out.status == "exhausted", out.status
    counts = {out.stats.visited for out in runs}
    assert len(counts) == 1, counts
    # at L=13 the search visits only its start, which shows nothing
    assert runs[0].stats.visited > 1

    status, visited = naive_search(
        P.rank, [r.letters for r in P.relators], 15, 8)
    assert status == "exhausted"
    assert visited == runs[0].stats.visited

    # at L=16 a level holds up to 410 states; the CLI records the worker
    # count, and the outcome must not depend on it
    outcomes = []
    for w in (1, 2, 4):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["search", "--family", "n=3", "--max-len", "16",
                             "--max-depth", "8", "--workers", str(w)])
        doc = json.loads(stdout.getvalue())
        assert (code, doc["config"]["workers"]) == (cli.EXIT_NEGATIVE, w)
        outcomes.append(doc["outcome"])
    deep = outcome_to_dict(search(P, SearchConfig(max_total_length=16, max_depth=8)))
    assert outcomes == [deep] * 3
    assert (deep["status"], deep["stats"]["visited"], deep["stats"]["frontier_peak"]) \
        == ("exhausted", 487, 410)
    assert naive_search(P.rank, [r.letters for r in P.relators], 16, 8) \
        == ("exhausted", 487)
    return ("L=15: visited=%d over 5 runs and the naive enumerator;"
            " L=16: visited=487, frontier peak 410, the same outcome at"
            " --workers 1, 2 and 4 and in the naive enumerator"
            % runs[0].stats.visited)


def _random_move(rng, P):
    n, m = P.rank, len(P.relators)
    kind = rng.randrange(9)
    if kind == 0:
        return InvertRelator(rng.randrange(1, m + 1))
    if kind == 1 and m >= 2:
        i, j = rng.sample(range(1, m + 1), 2)
        return SwapRelators(i, j)
    if kind == 2:
        g = rng.choice([s * a for a in range(1, n + 1) for s in (1, -1)])
        return ConjugateRelator(rng.randrange(1, m + 1), g)
    if kind == 3 and m >= 2:
        i = rng.randrange(1, m + 1)
        j = rng.choice([k for k in range(1, m + 1) if k != i])
        return MultiplyRelator(i, j, rng.choice(("left", "right")))
    if kind == 4:
        return Stabilize()
    if kind == 5 and n >= 2:
        return Destabilize(rng.randrange(1, m + 1))
    if kind == 6 and n >= 2:
        i, j = rng.sample(range(1, n + 1), 2)
        return NielsenGenerator(i, j, rng.choice((1, -1)))
    if kind == 7:
        return InvertGenerator(rng.randrange(1, n + 1))
    if kind == 8 and n >= 2:
        i, j = rng.sample(range(1, n + 1), 2)
        return SwapGenerators(i, j)
    return None


@criterion(5, "presentation moves fix |det| of the relation matrix")
def test_criterion_05_abelianization_invariant():
    applied_total = 0
    for n in range(6):
        start = presentation_Ln1(n)
        ceiling = start.total_length() + 12
        base = abs(integer_determinant(abelianization_matrix(start)))
        rng = random.Random(1000 + n)
        P = start
        applied = 0
        while applied < 10_000:
            move = _random_move(rng, P)
            if move is None:
                continue
            try:
                Q = apply_move(P, move)
            except MoveError:
                continue
            if Q.total_length() > ceiling:
                continue
            P = Q
            applied += 1
            assert abs(integer_determinant(abelianization_matrix(P))) == base, \
                (n, move, P)
        applied_total += applied
    for n in range(51):
        A = abelianization_matrix(presentation_Ln1(n))
        assert A == ((1, -1), (n + 1, -n))
        assert integer_determinant(A) == 1
    return ("%d applications over 6 starts, |det| pinned; "
            "det=1 exactly for n<=50" % applied_total)


@criterion(6, "unit-framed component removal", limit=None)
def test_criterion_06_blow_down_pins():
    assert blow_down(FramedLinkMatrix(((-1, 1), (1, 0))), 1).entries == ((1,),)
    assert blow_down(FramedLinkMatrix(((1, 1), (1, 0))), 1).entries == ((-1,),)
    return "framing -1 leaves [[1]], framing +1 leaves [[-1]]"


@criterion(7, "reachable framings on a lone canceling pair", limit=None)
def test_criterion_07_hopf_framings():
    start = add_hopf_pair(FramedLinkMatrix((), ()))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for M in frontier:
            assert M.kinds == ("h", "d")
            assert M.entries[1][1] == 0
            assert M.entries[0][0] % 2 == 0
            with pytest.raises(KirbyError):
                slide(M, 2, 1, +1)
            for s in (+1, -1):
                child = slide(M, 1, 2, s)
                if abs(child.entries[0][0]) <= 20 and child not in seen:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    framings = {M.entries[0][0] for M in seen}
    assert framings == set(range(-20, 21, 2))
    return "exactly the even framings in [-20, 20]; dotted row stays 0"


@criterion(8, "slides never change the determinant")
def test_criterion_08_determinant_invariance():
    rng = random.Random(8)
    applied = 0
    while applied < 10_000:
        size = rng.randrange(2, 7)
        kinds = tuple(rng.choice("hd") for _ in range(size))
        e = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                v = rng.randrange(-5, 6)
                if i == j:
                    e[i][i] = 0 if kinds[i] == "d" else v
                else:
                    e[i][j] = e[j][i] = v
        M = FramedLinkMatrix(tuple(tuple(r) for r in e), kinds)
        det = M.determinant()
        for _ in range(rng.randrange(1, 9)):
            legal = []
            for i in range(1, size + 1):
                for j in range(1, size + 1):
                    if i == j:
                        continue
                    ki, kj = M.kinds[i - 1], M.kinds[j - 1]
                    if ki == "d" and kj == "h":
                        continue
                    if ki == "d" and kj == "d" and M.entries[i - 1][j - 1]:
                        continue
                    legal.append((i, j))
            if not legal:
                break
            i, j = rng.choice(legal)
            M = slide(M, i, j, rng.choice((+1, -1)))
            applied += 1
            assert M.determinant() == det, (M, det)
    return "%d slides across random matrices, det exact" % applied


def _side_value(direction, point):
    a, b = direction
    p, q = point
    return (b * p - a * q) % 2


@criterion(9, "curve candidates match the brute-force side count", limit=10)
def test_criterion_09_curve_enumeration():
    H = 50
    lab = PunctureLabeling()
    dirs = set()
    for a in range(-H, H + 1):
        for b in range(-H, H + 1):
            if (a, b) != (0, 0) and math.gcd(a, b) == 1:
                dirs.add((a, b) if (a, b) > (0, 0) else (-a, -b))
    dirs = sorted(dirs)

    brute = [d for d in dirs
             if _side_value(d, lab.point("L1")) != _side_value(d, lab.point("L2"))]
    assert [s.direction for s in enumerate_candidates(H)] == brute

    classes = {(0, 1): 0, (1, 0): 0, (1, 1): 0}
    for d in dirs:
        s = Slope(*d)
        assert s.parity in classes
        classes[s.parity] += 1
        if s.parity == (1, 1):
            assert not is_candidate(s)
            assert z3_class(s) != 0
        else:
            assert is_candidate(s)
    assert all(v > 0 for v in classes.values())
    return ("%d primitive directions split %s; %d candidates agree with the "
            "oracle" % (len(dirs), dict(sorted(classes.items())), len(brute)))


@criterion(10, "reduction engine equals the scan oracle")
def test_criterion_10_word_oracle():
    rng = random.Random(10)
    for _ in range(10_000):
        raw = tuple(rng.choice((1, -1)) * rng.randrange(1, 5)
                    for _ in range(rng.randrange(0, 65)))
        reduced = Word(raw)
        assert reduced.letters == tuple(scan_reduce(raw))
        conj, core = cyclic_reduce(reduced)
        assert conj * core * conj.inverse() == reduced
        rot = core.letters
        assert not (rot and rot[0] == -rot[-1])
    return "10000 sequences reduced identically; all factorizations multiply back"
