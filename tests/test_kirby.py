import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ackirby.kirby import (
    DOTTED,
    TWO_HANDLE,
    FramedLinkMatrix,
    KirbyError,
    add_hopf_pair,
    add_unlink,
    blow_down,
    gpr_necessary_condition,
    is_weak_trivial_form,
    matrix_to_text,
    parse_matrix,
    slide,
)

F = FramedLinkMatrix


def hopf_hd():
    return F(((0, 1), (1, 0)), (TWO_HANDLE, DOTTED))


class TestConstruction:
    def test_kinds_default_to_two_handles(self):
        M = F(((3, 1), (1, 0)))
        assert M.kinds == ("h", "h")
        assert M.size == 2

    def test_asymmetric_rejected(self):
        with pytest.raises(KirbyError):
            F(((0, 1), (2, 0)))

    def test_dotted_diagonal_must_vanish(self):
        with pytest.raises(KirbyError):
            F(((5, 0), (0, 0)), ("d", "h"))

    def test_bad_kind_rejected(self):
        with pytest.raises(KirbyError):
            F(((0,),), ("x",))

    def test_non_square_rejected(self):
        with pytest.raises(KirbyError):
            F(((0, 1),))

    def test_kind_count_must_match(self):
        with pytest.raises(KirbyError):
            F(((0,),), ("h", "h"))

    @pytest.mark.parametrize("entry", [1.9, "3", True], ids=("float", "str", "bool"))
    def test_non_integer_entry_rejected(self, entry):
        with pytest.raises(KirbyError):
            F([[entry]])

    def test_empty_matrix(self):
        E = F((), ())
        assert E.size == 0
        assert E.determinant() == 1


class TestSlide:
    def test_zero_matrix_fixed(self):
        Z = F(((0, 0), (0, 0)))
        assert slide(Z, 1, 2, +1) == Z

    def test_hopf_handle_over_dotted(self):
        assert slide(hopf_hd(), 1, 2, +1).entries == ((2, 1), (1, 0))

    def test_three_component_row_mixing(self):
        M = F(((1, 0, 2), (0, 3, 1), (2, 1, 0)), ("h", "h", "h"))
        S = slide(M, 1, 2, -1)
        # new a11 = 1 + 3 - 2*0 = 4; a13 gains -a23
        assert S.entries == ((4, -3, 1), (-3, 3, 1), (1, 1, 0))

    def test_dotted_over_handle_forbidden(self):
        with pytest.raises(KirbyError):
            slide(hopf_hd(), 2, 1, +1)

    def test_dotted_over_linked_dotted_forbidden(self):
        DD = F(((0, 1), (1, 0)), ("d", "d"))
        with pytest.raises(KirbyError):
            slide(DD, 1, 2, +1)

    def test_dotted_over_unlinked_dotted_allowed(self):
        DD = F(((0, 0), (0, 0)), ("d", "d"))
        assert slide(DD, 1, 2, +1) == DD

    def test_self_slide_forbidden(self):
        with pytest.raises(KirbyError):
            slide(hopf_hd(), 1, 1, +1)

    def test_index_and_sign_validation(self):
        with pytest.raises(KirbyError):
            slide(hopf_hd(), 0, 2, +1)
        with pytest.raises(KirbyError):
            slide(hopf_hd(), 1, 2, 2)

    def test_bool_component_rejected(self):
        with pytest.raises(KirbyError):
            slide(hopf_hd(), True, 2, 1)
        with pytest.raises(KirbyError):
            slide(hopf_hd(), 1, True, 1)

    @pytest.mark.parametrize("sign", [1.0, True], ids=("float", "bool"))
    def test_non_integer_sign_rejected(self, sign):
        with pytest.raises(KirbyError):
            slide(hopf_hd(), 1, 2, sign)


class TestBlowDown:
    def test_negative_framing_unknot(self):
        assert blow_down(F(((-1, 1), (1, 0))), 1).entries == ((1,),)

    def test_positive_framing_unknot(self):
        assert blow_down(F(((1, 1), (1, 0))), 1).entries == ((-1,),)

    def test_lone_component_to_empty(self):
        E = blow_down(F(((1,),)), 1)
        assert E.size == 0 and E.determinant() == 1

    def test_unlinked_component_unchanged(self):
        assert blow_down(F(((1, 0), (0, 5))), 1).entries == ((5,),)

    def test_framing_must_be_unit(self):
        with pytest.raises(KirbyError):
            blow_down(F(((2,),)), 1)

    def test_dotted_forbidden(self):
        with pytest.raises(KirbyError):
            blow_down(hopf_hd(), 2)

    def test_handle_linking_dotted_forbidden(self):
        M = F(((1, 1), (1, 0)), ("h", "d"))
        with pytest.raises(KirbyError, match="dotted"):
            blow_down(M, 1)

    def test_index_range(self):
        with pytest.raises(KirbyError):
            blow_down(F(((1,),)), 2)


class TestStabilizations:
    def test_add_unlink_zero_block(self):
        M = add_unlink(hopf_hd(), 2)
        assert M.size == 4
        assert M.kinds == ("h", "d", "h", "h")
        assert M.entries[2] == (0, 0, 0, 0)
        assert M.entries[3] == (0, 0, 0, 0)
        assert M.determinant() == 0

    def test_add_unlink_zero_is_identity(self):
        assert add_unlink(hopf_hd(), 0) == hopf_hd()

    @pytest.mark.parametrize("r", [1.0, True], ids=("float", "bool"))
    def test_add_unlink_non_integer_count_rejected(self, r):
        with pytest.raises(KirbyError):
            add_unlink(hopf_hd(), r)

    def test_add_hopf_pair_from_empty(self):
        assert add_hopf_pair(F((), ())) == hopf_hd()

    def test_add_hopf_pair_negates_determinant(self):
        M = F(((3, 1), (1, 2)))
        assert add_hopf_pair(M).determinant() == -M.determinant()

    def test_repeated_hopf_pairs(self):
        M = F((), ())
        for _ in range(3):
            M = add_hopf_pair(M)
        assert M.size == 6
        assert M.kinds == ("h", "d") * 3
        assert M.determinant() == -1


class TestForms:
    def test_gpr_zero_matrix(self):
        assert gpr_necessary_condition(F(((0, 0), (0, 0))))

    def test_gpr_rejects_odd_linking(self):
        assert not gpr_necessary_condition(F(((0, 1), (1, 0))))

    def test_gpr_rejects_nonzero_framing(self):
        assert not gpr_necessary_condition(F(((2,),)))

    def test_gpr_undefined_with_dotted(self):
        with pytest.raises(KirbyError):
            gpr_necessary_condition(hopf_hd())

    def test_weak_form_zero_handles(self):
        assert is_weak_trivial_form(F(((0, 0, 0), (0, 0, 0), (0, 0, 0))))

    def test_weak_form_hopf_pair(self):
        assert is_weak_trivial_form(hopf_hd())

    def test_weak_form_mixed(self):
        M = F(((0, 1, 0), (1, 0, 0), (0, 0, 0)), ("h", "d", "h"))
        assert is_weak_trivial_form(M)

    def test_weak_form_pair_need_not_be_adjacent(self):
        M = F(((0, 0, 1), (0, 0, 0), (1, 0, 0)), ("h", "h", "d"))
        assert is_weak_trivial_form(M)

    def test_weak_form_rejects_slid_pair_until_slid_back(self):
        S = F(((2, 1), (1, 0)), ("h", "d"))
        assert not is_weak_trivial_form(S)
        assert is_weak_trivial_form(slide(S, 1, 2, -1))

    def test_weak_form_rejects_undotted_pair(self):
        assert not is_weak_trivial_form(F(((0, 1), (1, 0))))

    def test_weak_form_rejects_negative_linking(self):
        assert not is_weak_trivial_form(F(((0, -1), (-1, 0)), ("h", "d")))

    def test_weak_form_rejects_lone_dotted(self):
        assert not is_weak_trivial_form(F(((0,),), ("d",)))

    def test_weak_form_empty(self):
        assert is_weak_trivial_form(F((), ()))


class TestText:
    def test_round_trip(self):
        for M in (hopf_hd(), F(((0, 0), (0, 0))), F((), ()),
                  F(((1, 2, 0), (2, -1, 3), (0, 3, 4)))):
            assert parse_matrix(matrix_to_text(M)) == M

    def test_layout(self):
        assert matrix_to_text(hopf_hd()) == "2\n0 1\n1 0\nh d"
        assert matrix_to_text(F((), ())) == "0"

    def test_parse_errors(self):
        for bad in ("", "x", "2\n0 1\n1 0\nh q\n", "2\n0 1\n1\nh h\n",
                    "1\n0\n", "2\n0 1\n2 0\nh h\n"):
            with pytest.raises((KirbyError, ValueError)):
                parse_matrix(bad)
        for size in (-1, -2):
            with pytest.raises(KirbyError, match="matrix size must be >= 0, got %d" % size):
                parse_matrix("%d\n" % size)

    @pytest.mark.parametrize(
        "entry", ("\u0661", "1_0", "1\x1c", "1\x1d", "1\x1e", "1\x1f", "1\xa0"),
        ids=("arabic_digit", "underscore", "x1c", "x1d", "x1e", "x1f", "nbsp"))
    def test_entries_are_ascii_decimal(self, entry):
        """int() reads a non-ASCII digit and a `_` separator, str.splitlines()
        breaks a line at 0x1C-0x1E, and str.strip() drops 0x1C-0x1F and
        non-ASCII blanks; matrix text takes none of them."""
        with pytest.raises(ValueError) as err:
            parse_matrix("1\n%s\nh\n" % entry)
        assert str(err.value) == "not a decimal integer: %r" % (entry,)

    def test_entry_beyond_the_int_digit_limit(self):
        """int() refuses more than 4300 digits in its own words; the
        reader refuses such an entry in its own, and reads a long one
        within the limit."""
        entry = "7" * 5000
        with pytest.raises(ValueError) as err:
            parse_matrix("1\n%s\nh\n" % entry)
        assert str(err.value) == "not a decimal integer: %r" % (entry,)
        assert parse_matrix("1\n-%s\nh\n" % entry[:4000]) == F(((-int(entry[:4000]),),), ("h",))


def symmetric_matrices(max_size=5, bound=5):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=max_size))
        kinds = tuple(draw(st.sampled_from("hd")) for _ in range(n))
        e = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = draw(st.integers(min_value=-bound, max_value=bound))
                if i == j:
                    e[i][i] = 0 if kinds[i] == "d" else v
                else:
                    e[i][j] = e[j][i] = v
        return F(tuple(tuple(row) for row in e), kinds)
    return build()


def legal_slides(M):
    out = []
    for i in range(1, M.size + 1):
        for j in range(1, M.size + 1):
            if i == j:
                continue
            ki, kj = M.kinds[i - 1], M.kinds[j - 1]
            if ki == "d" and kj == "h":
                continue
            if ki == "d" and kj == "d" and M.entries[i - 1][j - 1] != 0:
                continue
            out.append((i, j, +1))
            out.append((i, j, -1))
    return out


class TestSlideProperties:
    @settings(max_examples=150, deadline=None)
    @given(symmetric_matrices(), st.data())
    def test_slides_preserve_structure(self, M, data):
        det = M.determinant()
        for _ in range(4):
            moves = legal_slides(M)
            if not moves:
                break
            i, j, s = data.draw(st.sampled_from(moves))
            M = slide(M, i, j, s)
            for a in range(M.size):
                for b in range(M.size):
                    assert M.entries[a][b] == M.entries[b][a]
            for a in range(M.size):
                if M.kinds[a] == "d":
                    assert M.entries[a][a] == 0
        assert M.determinant() == det

    @settings(max_examples=150, deadline=None)
    @given(symmetric_matrices(), st.data())
    def test_opposite_slides_cancel(self, M, data):
        moves = legal_slides(M)
        if not moves:
            return
        i, j, s = data.draw(st.sampled_from(moves))
        assert slide(slide(M, i, j, s), i, j, -s) == M

    @settings(max_examples=100, deadline=None)
    @given(symmetric_matrices(max_size=4, bound=3))
    def test_text_round_trip(self, M):
        assert parse_matrix(matrix_to_text(M)) == M

    @settings(max_examples=100, deadline=None)
    @given(symmetric_matrices(max_size=4, bound=1))
    def test_blow_down_scales_determinant_by_framing(self, M):
        for i in range(1, M.size + 1):
            if M.kinds[i - 1] != "h" or M.entries[i - 1][i - 1] not in (1, -1):
                continue
            if any(M.kinds[k] == "d" and M.entries[i - 1][k] != 0
                   for k in range(M.size)):
                continue
            assert (blow_down(M, i).determinant()
                    == M.determinant() * M.entries[i - 1][i - 1])
            break
