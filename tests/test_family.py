import pytest

from ackirby import _kernel
from ackirby._intdet import integer_determinant
from ackirby.family import (
    GERSTEN_PREFIX_MOVES,
    family_report,
    gersten_certificate,
    gersten_prefix_certificate,
    presentation_Ln1,
    presentation_from_w,
)
from ackirby.presentations import (
    InvertRelator,
    MultiplyByConjugate,
    abelianization_matrix,
    apply_move,
    canonical_form,
    is_trivial_presentation,
    parse_presentation,
    presentation_to_text,
)
from ackirby.search import verify
from ackirby.words import Word, parse_word


class TestFamilyMembers:
    def test_n2_text(self):
        assert presentation_to_text(presentation_Ln1(2)) == "2; YXYxyx; xxxYY"

    def test_n0_second_relator_is_bare_generator(self):
        assert presentation_Ln1(0).relators[1] == parse_word("x")

    def test_n3_second_relator(self):
        assert presentation_Ln1(3).relators[1] == parse_word("xxxxYYY")

    def test_total_lengths(self):
        assert presentation_Ln1(2).total_length() == 11
        assert presentation_Ln1(0).total_length() == 7

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            presentation_Ln1(-1)

    def test_bool_n_rejected(self):
        with pytest.raises(ValueError, match="nonnegative integer"):
            presentation_from_w(True, parse_word("yx"))

    def test_from_w_default_matches(self):
        for n in range(5):
            assert presentation_from_w(n, parse_word("yx")) == presentation_Ln1(n)

    def test_from_w_empty(self):
        Q = presentation_from_w(2, Word(()))
        assert Q.relators[0] == parse_word("Yx")
        assert Q.relators[1] == parse_word("xxxYY")

    def test_from_w_x_conjugation_collapses(self):
        Q = presentation_from_w(2, parse_word("x"))
        assert Q.relators[0] == parse_word("Yx")

    def test_from_w_rank_guard(self):
        with pytest.raises(ValueError):
            presentation_from_w(1, parse_word("z"))

    def test_matches_printed_presentation_up_to_class(self):
        mine = presentation_Ln1(2)
        printed = parse_presentation("2; yxyXYX; xxxYY")
        assert canonical_form(mine) == canonical_form(printed)
        flipped = apply_move(mine, InvertRelator(1))
        r = flipped.relators[0].letters
        rotations = {r[k:] + r[:k] for k in range(len(r))}
        assert printed.relators[0].letters in rotations

    def test_abelianization_closed_form(self):
        for n in range(0, 1001):
            A = abelianization_matrix(presentation_Ln1(n))
            assert A == ((1, -1), (n + 1, -n))
            assert integer_determinant(A) == 1


class TestGerstenCertificate:
    def test_prefix_replays_to_basis_changed_form(self):
        rep = verify(gersten_prefix_certificate(), trace=True)
        # the prefix alone does not trivialize, but must replay fully
        assert not rep.ok
        assert rep.steps_applied == len(GERSTEN_PREFIX_MOVES)
        assert rep.reason == "final presentation is not trivial"
        assert presentation_to_text(rep.final) == "2; yXyy; xyXXy"

    def test_checkpoint_after_composite_multiply(self):
        Q = presentation_Ln1(2)
        upto = GERSTEN_PREFIX_MOVES.index(
            next(m for m in GERSTEN_PREFIX_MOVES
                 if isinstance(m, MultiplyByConjugate))) + 1
        for move in GERSTEN_PREFIX_MOVES[:upto]:
            Q = apply_move(Q, move)
        got = _kernel.canonical_relator(Q.relators[0].letters)
        want = _kernel.canonical_relator(parse_word("xxYxYxxY").letters)
        assert got == want

    def test_checkpoint_after_basis_change(self):
        rep = verify(gersten_prefix_certificate(), trace=True)
        got = _kernel.canonical_relator(rep.final.relators[0].letters)
        want = _kernel.canonical_relator((-1, 2, 2, 2))  # x^-1 times cube of g2
        assert got == want

    def test_full_certificate_verifies(self):
        cert = gersten_certificate()
        assert cert.start == presentation_Ln1(2)
        rep = verify(cert)
        assert rep.ok
        assert is_trivial_presentation(rep.final)

    def test_certificate_is_pinned(self):
        assert len(gersten_certificate().moves) == 62
        assert len(GERSTEN_PREFIX_MOVES) == 14


class TestFamilyReport:
    def test_row_count(self):
        assert len(family_report(3)) == 4

    def test_default_budget_statuses(self):
        rows = family_report(3)
        assert [r["status"] for r in rows] == \
            ["found", "found", "found", "exhausted"]
        assert [r["det"] for r in rows] == [1, 1, 1, 1]
        assert [r["total_length"] for r in rows] == [7, 9, 11, 13]
        assert [r["visited"] for r in rows] == [8, 1245, 1255, 55]

    def test_custom_config(self):
        rows = family_report(1, max_total_length=15, max_depth=2)
        assert rows[0]["status"] == "found"
        assert rows[1]["status"] == "exhausted"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            family_report(-1)

    @pytest.mark.parametrize("n_max", (True, 1.0), ids=("bool", "float"))
    def test_non_int_rejected(self, n_max):
        with pytest.raises(ValueError, match="nonnegative integer"):
            family_report(n_max)
