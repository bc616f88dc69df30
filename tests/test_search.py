import contextlib
import hashlib
import importlib
import io
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from naive_bfs import naive_search, naive_successors
from ackirby.presentations import (
    ConjugateRelator,
    InvertRelator,
    MoveError,
    MultiplyRelator,
    Presentation,
    SwapRelators,
    apply_move,
    parse_presentation,
    presentation_to_text,
)
from ackirby.search import (
    MoveCertificate,
    SearchConfig,
    certificate_from_dict,
    certificate_to_dict,
    hybrid_trivialize,
    outcome_to_dict,
    search,
    verify,
)
from ackirby import cli
from ackirby.family import gersten_certificate, gersten_prefix_certificate, presentation_Ln1
from ackirby.words import Word, parse_word

# the package attribute `ackirby.search` is the search function
search_module = importlib.import_module("ackirby.search")


def P(text):
    return parse_presentation(text)


def cfg(L, D, **kw):
    return SearchConfig(max_total_length=L, max_depth=D, **kw)


def cli_search(n, L, D, workers):
    """Run `ackirby search` on L_{n,1} in-process; return the exit code
    and the JSON document it prints."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["search", "--family", "n=%d" % n, "--max-len", str(L),
                         "--max-depth", str(D), "--workers", str(workers)])
    return code, json.loads(stdout.getvalue())


class TestVerify:
    def test_empty_certificate_on_trivial_start(self):
        rep = verify(MoveCertificate(P("2; x; y"), ()))
        assert rep.ok and rep.steps_applied == 0

    def test_builtin_certificate(self):
        rep = verify(gersten_certificate())
        assert rep.ok
        assert presentation_to_text(rep.final) == "2; x; y"

    def test_tampered_certificate_fails_concretely(self):
        good = gersten_certificate()
        for drop in (0, 5, 20, 40):
            moves = good.moves[:drop] + good.moves[drop + 1:]
            rep = verify(MoveCertificate(good.start, moves))
            assert not rep.ok
            assert rep.failed_step is not None or \
                rep.reason == "final presentation is not trivial"

    def test_illegal_move_reports_step_and_reason(self):
        cert = MoveCertificate(P("2; x; y"), (InvertRelator(1),
                                              MultiplyRelator(1, 1, "right")))
        rep = verify(cert)
        assert not rep.ok
        assert rep.failed_step == 1
        assert "relator" in rep.reason

    def test_nontrivial_end_reported(self):
        rep = verify(MoveCertificate(P("2; xy; y"), (InvertRelator(1),)))
        assert not rep.ok
        assert rep.failed_step is None
        assert rep.reason == "final presentation is not trivial"
        assert rep.steps_applied == 1

    def test_trace_carries_each_step(self):
        cert = gersten_certificate()
        rep = verify(cert, trace=True)
        assert rep.ok
        assert len(rep.trace) == len(cert.moves)
        replay = cert.start
        for move, after in rep.trace:
            replay = apply_move(replay, move)
            assert replay == after


class TestSearchOutcomes:
    def test_trivial_start_found_immediately(self):
        out = search(P("2; x; y"), cfg(2, 0))
        assert out.found and out.certificate.moves == ()
        assert out.stats.visited == 1

    def test_easy_member_found_and_verifies(self):
        out = search(presentation_Ln1(0), cfg(15, 20))
        assert out.found
        assert verify(out.certificate).ok

    def test_found_certificate_starts_at_start(self):
        start = presentation_Ln1(0)
        out = search(start, cfg(13, 20))
        assert out.certificate.start == start

    def test_exhausted_at_tight_bound(self):
        out = search(presentation_Ln1(3), cfg(13, 8))
        assert out.status == "exhausted"
        assert out.stats.visited == 1

    def test_depth_zero_nontrivial(self):
        out = search(P("1; xx"), cfg(4, 0))
        assert out.status == "exhausted"
        assert out.stats.visited == 1

    def test_capacity_gives_inconclusive(self):
        out = search(presentation_Ln1(1), cfg(15, 24, dedup_capacity=100))
        assert out.status == "inconclusive"
        assert out.certificate is None
        assert out.stats.visited == 100  # a hard limit, not checked per level
        again = search(presentation_Ln1(1), cfg(15, 24, dedup_capacity=100))
        assert again.stats.visited == out.stats.visited

    def test_capacity_keeps_a_trivial_class_already_inserted(self):
        # the uncapped search finds at depth 1, the trivial class being
        # the 8th visited of 12
        start = presentation_Ln1(0)
        whole = search(start, cfg(13, 20))
        assert (whole.status, whole.stats.visited) == ("found", 12)
        out = search(start, cfg(13, 20, dedup_capacity=8))
        assert (out.status, out.stats.visited) == ("found", 8)
        assert out.certificate == whole.certificate and verify(out.certificate).ok
        short = search(start, cfg(13, 20, dedup_capacity=7))
        assert (short.status, short.stats.visited) == ("inconclusive", 7)

    def test_capacity_that_fits_every_class_exhausts(self):
        start = presentation_Ln1(3)
        out = search(start, cfg(16, 8, dedup_capacity=487))
        assert (out.status, out.stats.visited) == ("exhausted", 487)
        out = search(start, cfg(16, 8, dedup_capacity=486))
        assert (out.status, out.stats.visited) == ("inconclusive", 486)

    def test_capacity_below_one_rejected(self):
        with pytest.raises(ValueError):
            search(P("1; x"), cfg(2, 1, dedup_capacity=0))

    @pytest.mark.parametrize("field", ("max_total_length", "max_depth", "dedup_capacity"))
    @pytest.mark.parametrize("value", (13.0, True, "13"), ids=("float", "bool", "str"))
    def test_non_int_budget_rejected(self, field, value):
        """Each kernel rejects a budget that is not exactly `int` with the
        same error, before searching: a float once ran on the pure kernel
        and raised TypeError on the compiled one, and True ran as 1."""
        budget = dict(max_total_length=13, max_depth=24, dedup_capacity=100)
        budget[field] = value
        with pytest.raises(ValueError, match="^%s must be an int" % field):
            search(presentation_Ln1(1), SearchConfig(**budget))

    def test_bound_below_start_rejected(self):
        with pytest.raises(ValueError):
            search(presentation_Ln1(1), cfg(5, 4))

    def test_rank_plus_bound_over_127_rejected(self):
        with pytest.raises(ValueError, match="exceeds 127"):
            search(P("3; x; y; z"), cfg(125, 1))

    def test_rank_plus_bound_of_127_runs(self):
        out = search(P("3; xx; y; z"), cfg(124, 2))
        assert (out.status, out.stats.visited) == ("exhausted", 219)
        assert naive_search(3, [(1, 1), (2,), (3,)], 124, 2) == ("exhausted", 219)

    def test_extended_regime_n2_found(self):
        out = search(presentation_Ln1(2), cfg(12, 6, move_regime="extended"))
        assert (out.status, out.stats.visited) == ("found", 2676)
        assert len(out.certificate.moves) == 51
        assert verify(out.certificate).ok

    def test_invalid_regime_rejected(self):
        with pytest.raises(ValueError):
            search(P("1; x"), cfg(2, 1, move_regime="loose"))


class TestDeterminism:
    def test_repeat_runs_identical(self):
        start = presentation_Ln1(1)
        results = [search(start, cfg(13, 6)) for _ in range(3)]
        assert len({r.status for r in results}) == 1
        assert len({r.stats.visited for r in results}) == 1
        moves = {tuple(r.certificate.moves) for r in results}
        assert len(moves) == 1  # sequential certificates are deterministic

    def test_workers_change_nothing_observable(self):
        seq = outcome_to_dict(search(presentation_Ln1(1), cfg(13, 6)))
        code, par = cli_search(1, 13, 6, workers=2)
        assert (code, par["config"]["workers"]) == (cli.EXIT_OK, 2)
        assert par["outcome"] == seq
        assert seq["status"] == "found"
        assert verify(certificate_from_dict(par["outcome"]["certificate"])).ok

    def test_workers_on_exhausted_case(self):
        seq = search(presentation_Ln1(2), cfg(12, 4))
        code, par = cli_search(2, 12, 4, workers=3)
        assert (code, par["config"]["workers"]) == (cli.EXIT_NEGATIVE, 3)
        assert seq.status == par["outcome"]["status"] == "exhausted"
        assert seq.stats.visited == par["outcome"]["stats"]["visited"]

    def test_complete_n3_graph_at_15(self):
        """With no effective depth cap the n=3 class graph within length
        15 runs out: 82 classes, as the naive oracle counts."""
        start = presentation_Ln1(3)
        out = search(start, cfg(15, 40))
        assert (out.status, out.stats.visited) == ("exhausted", 82)
        assert out.stats.depth_reached < 40
        assert naive_search(2, [r.letters for r in start.relators], 15, 40) == ("exhausted", 82)

    def test_complete_n3_graph_at_16(self):
        """The whole n=3 class graph within length 16 has 914 classes and
        runs out at depth 11; the naive oracle counts the same 914 (it
        takes about 18 s, so the count is pinned here instead)."""
        out = search(presentation_Ln1(3), cfg(16, 40))
        assert (out.status, out.stats.visited, out.stats.depth_reached) == ("exhausted", 914, 11)

    @pytest.mark.parametrize("reference, n, max_len, regime, depth, classes", [
        ("successors", 3, 16, "strict", 40, 914), ("naive", 3, 15, "strict", 40, 82),
        ("successors", 2, 12, "extended", 5, 712), ("naive", 2, 12, "extended", 5, 712)],
        ids=("successors", "naive", "successors-extended", "naive-extended"))
    def test_expand_class_matches_successors(self, reference, n, max_len, regime, depth,
                                             classes):
        """On every class within `depth` moves of family member n and
        within the length bound, the kernel's packed children are the
        reference's children, packed, each at its first occurrence.  The
        kernel gives them by `expand_level` on the class alone, with an
        empty table and a capacity past the graph, so the compiled
        enumeration is checked too.  In the strict regime that is the
        complete n=3 graph; in the extended regime the basis-change
        children follow the strict ones.  The references are
        `_successors`, whose products come from the same product loop as
        the kernel's, and the naive oracle, which shares no code."""
        def reference_children(rels):
            if reference == "naive":
                return [child for _, child
                        in naive_successors((len(rels), rels), max_len, regime)]
            return [child for _, child in search_module._successors(rels, max_len, regime)]

        pack = search_module._kernel.pack_state
        extended = regime == "extended"
        start = search_module.canonical_form(presentation_Ln1(n))
        seen, frontier = {start}, [start]
        for _ in range(depth):
            level = []
            for rels in frontier:
                children = reference_children(rels)
                want = list(dict.fromkeys(map(pack, children)))
                got = search_module._kernel.expand_level([pack(rels)], {}, max_len, extended,
                                                         sys.maxsize)
                assert got == (want, False), rels
                level += [child for child in dict.fromkeys(children) if child not in seen]
                seen.update(level)
            frontier = level
        assert len(seen) == classes
        assert bool(frontier) == extended    # the strict graphs run out

    def test_extended_search_expands_packed_classes(self, monkeypatch):
        """The extended search expands each level by one kernel call: it
        neither unpacks a class nor applies an atomic move in Python.
        Only the expansion of a found certificate does, and this search
        finds none."""
        def refuse(*args):
            raise AssertionError("called while expanding a class")

        monkeypatch.setattr(search_module, "atomic_move", refuse)
        monkeypatch.setattr(search_module._kernel, "unpack_state", refuse)
        out = search(presentation_Ln1(2), cfg(12, 5, move_regime="extended"))
        start = [r.letters for r in presentation_Ln1(2).relators]
        assert (out.status, out.stats.visited) == naive_search(2, start, 12, 5, "extended")

    def test_monotone_in_bounds(self):
        start = presentation_Ln1(0)
        assert search(start, cfg(13, 20)).found
        assert search(start, cfg(14, 20)).found
        assert search(start, cfg(13, 21)).found

    def test_naive_enumerator_agreement(self):
        cases = [(0, 13, 20, "strict"), (0, 15, 20, "strict"), (2, 12, 4, "strict"),
                 (3, 13, 8, "strict"), (3, 15, 8, "strict"),
                 (0, 13, 6, "extended"), (2, 12, 5, "extended"), (3, 14, 6, "extended")]
        for n, L, D, regime in cases:
            start = presentation_Ln1(n)
            rels = [r.letters for r in start.relators]
            out = search(start, cfg(L, D, move_regime=regime))
            status, visited = naive_search(2, rels, L, D, regime)
            assert (out.status, out.stats.visited) == (status, visited), (n, L, D, regime)

    def test_progress_callback_observes_levels(self):
        seen = []
        out = search(presentation_Ln1(0), cfg(13, 20),
                     progress=lambda d, v, f: seen.append((d, v, f)))
        assert out.found
        assert seen and seen[0][0] == 1
        assert seen[-1][1] == out.stats.visited


class TestHybrid:
    def test_empty_prefix_equals_search(self):
        start = presentation_Ln1(0)
        a = search(start, cfg(13, 20))
        b = hybrid_trivialize(start, MoveCertificate(start, ()), cfg(13, 20))
        assert a.status == b.status
        assert a.stats.visited == b.stats.visited
        assert a.certificate.moves == b.certificate.moves

    def test_prefix_reaching_trivial_needs_no_suffix(self):
        start = P("2; xY; y")
        prefix = MoveCertificate(start, (MultiplyRelator(1, 2, "right"),))
        out = hybrid_trivialize(start, prefix, cfg(4, 2))
        assert out.found
        assert out.certificate.moves == prefix.moves

    def test_invalid_config_rejected_even_if_prefix_trivializes(self):
        start = P("2; xY; y")
        prefix = MoveCertificate(start, (MultiplyRelator(1, 2, "right"),))
        with pytest.raises(ValueError):
            hybrid_trivialize(start, prefix, cfg(4, -1))

    def test_wrong_start_rejected(self):
        prefix = MoveCertificate(P("2; x; y"), ())
        with pytest.raises(MoveError):
            hybrid_trivialize(presentation_Ln1(2), prefix, cfg(13, 4))

    def test_illegal_prefix_rejected(self):
        start = P("2; x; y")
        prefix = MoveCertificate(start, (MultiplyRelator(1, 1, "right"),))
        with pytest.raises(MoveError):
            hybrid_trivialize(start, prefix, cfg(4, 2))

    def test_certificate_is_replayed_once(self, monkeypatch):
        """The prefix is replayed once and `search` verifies the suffix
        once; the concatenation is not replayed a second time."""
        replayed = []

        def counting(P, move):
            replayed.append(move)
            return apply_move(P, move)

        monkeypatch.setattr(search_module, "apply_move", counting)
        out = hybrid_trivialize(presentation_Ln1(2), gersten_prefix_certificate(),
                                cfg(11, 24))
        assert len(out.certificate.moves) == 62
        assert len(replayed) == 62

    def test_gersten_prefix_closes(self):
        start = presentation_Ln1(2)
        out = hybrid_trivialize(start, gersten_prefix_certificate(), cfg(11, 24))
        assert out.found
        rep = verify(out.certificate)
        assert rep.ok
        assert out.certificate.start == start


class TestSerialization:
    def test_certificate_round_trip(self):
        cert = gersten_certificate()
        doc = json.loads(json.dumps(certificate_to_dict(cert)))
        assert certificate_from_dict(doc) == cert

    def test_outcome_document_shape(self):
        out = search(presentation_Ln1(0), cfg(13, 20))
        doc = outcome_to_dict(out)
        assert doc["status"] == "found"
        assert set(doc["stats"]) == {"visited", "frontier_peak",
                                     "max_total_length", "max_depth",
                                     "depth_reached"}
        assert certificate_from_dict(doc["certificate"]) == out.certificate


PREFIX = object()   # stands for the path of the Gersten prefix certificate


@pytest.mark.parametrize("argv, digest", [
    (("--family", "n=1", "--max-len", "13", "--max-depth", "24"),
     "a867088d61278196b4482a733cdf5d882afe72da35d5c205d9e2e72dbb844c3c"),
    (("--family", "n=2", "--regime", "extended", "--max-len", "12", "--max-depth", "6"),
     "4cea89cff24759af572435305d0c600eb030922072454e42a84d72093667fb05"),
    (("--family", "n=2", "--prefix", PREFIX, "--max-len", "11", "--max-depth", "24"),
     "2589502bacab439323e3ac0a146ba3ff46ec1b2a236d07199a13f51e47e8087c"),
], ids=("found-n1", "extended-n2", "criterion-3"))
def test_certificates_are_byte_stable(tmp_path, argv, digest):
    """The JSON outcome of fixed searches, certificate included, is
    pinned byte for byte: a certificate that changes fails here even
    when it still verifies."""
    prefix = tmp_path / "prefix.json"
    prefix.write_text(json.dumps(certificate_to_dict(gersten_prefix_certificate())))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["search"] + [str(prefix) if a is PREFIX else a for a in argv])
    assert code == cli.EXIT_OK
    outcome = json.loads(stdout.getvalue())["outcome"]
    assert hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest() == digest


# single-relator randomized soundness: whenever a bounded run reports
# found, the certificate must replay; whenever it reports exhausted, the
# naive twin must agree
@given(st.lists(st.integers(min_value=-2, max_value=2).filter(bool),
                min_size=0, max_size=5),
       st.lists(st.integers(min_value=-2, max_value=2).filter(bool),
                min_size=0, max_size=5))
@settings(max_examples=40, deadline=None)
def test_random_small_starts_sound_and_agreeing(r1, r2):
    start = Presentation(2, [Word(tuple(r1)), Word(tuple(r2))])
    L = max(start.total_length() + 2, 6)
    out = search(start, cfg(L, 3))
    if out.found:
        assert verify(out.certificate).ok
    status, visited = naive_search(2, [tuple(r1), tuple(r2)], L, 3)
    assert out.status == status
    assert out.stats.visited == visited
