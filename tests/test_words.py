import pytest
from hypothesis import given, settings, strategies as st

from ackirby import _kernel
from ackirby.words import (
    Word,
    WordError,
    conjugate,
    cyclic_reduce,
    exponent_sums,
    format_word,
    invert,
    parse_word,
    reduce_word,
    substitute,
)

letters = st.integers(min_value=-4, max_value=4).filter(lambda v: v != 0)
raw_words = st.lists(letters, max_size=40).map(tuple)


def scan_reduce(seq):
    """Local repeated-scan oracle, independent of the package kernel."""
    word = list(seq)
    again = True
    while again:
        again = False
        for k in range(len(word) - 1):
            if word[k] == -word[k + 1]:
                del word[k:k + 2]
                again = True
                break
    return tuple(word)


class TestParseFormat:
    def test_basic_alphabet(self):
        assert parse_word("xyX").letters == (1, 2, -1)

    def test_parse_cancels(self):
        assert parse_word("xX").letters == ()

    def test_six_letter_relator(self):
        w = parse_word("yxyXYX")
        assert len(w.letters) == 6
        assert w.letters == (2, 1, 2, -1, -2, -1)

    def test_whitespace_ignored(self):
        assert parse_word("x y\tX") == parse_word("xyX")

    def test_escaped_generators(self):
        assert parse_word("g7G7").letters == ()
        assert parse_word("g12").letters == (12,)
        assert parse_word("G27").letters == (-27,)

    def test_late_alphabet(self):
        # a..w continue after x=1, y=2, z=3
        assert parse_word("a").letters == (4,)
        assert parse_word("w").letters == (26,)

    def test_unknown_character(self):
        with pytest.raises(WordError):
            parse_word("x?")

    def test_escape_overflow(self):
        with pytest.raises(WordError):
            parse_word("g99999999999")

    def test_format_round_trip(self):
        for text in ("", "xyX", "yxyXYX", "xxxYY", "g12G13x"):
            assert parse_word(format_word(parse_word(text))) == parse_word(text)
        # ranks <= 3 display as x, y, z; anything mentioning a higher
        # generator switches the whole word to the g-escape alphabet
        assert format_word(parse_word("xyX")) == "xyX"
        assert format_word(parse_word("g12G13x")) == "g12G13g1"

    def test_format_alphabet_override(self):
        assert format_word(Word((-1, 2, 2, 2)), alphabet=("x", "z")) == "Xzzz"


class TestReduce:
    def test_single_cancellation(self):
        assert reduce_word((1, -1, 2)) == Word((2,))

    def test_fixed_point(self):
        assert reduce_word((1, 2, -1)) == Word((1, 2, -1))

    def test_big_product(self):
        # r1 * (x^3 y^-2) * (yxy) y^-2 x^3 (yxy)^-1 with r1 = yxyXYX
        r1 = parse_word("yxyXYX")
        prod = (r1.letters + parse_word("xxxYY").letters
                + parse_word("yxy").letters + parse_word("YYxxx").letters
                + invert(parse_word("yxy")).letters)
        assert reduce_word(prod) == parse_word("yxyXYxxYxYxxxYXY")

    @given(raw_words)
    @settings(max_examples=300, deadline=None)
    def test_matches_scan_oracle(self, raw):
        assert reduce_word(raw).letters == scan_reduce(raw)

    @given(raw_words)
    @settings(max_examples=300, deadline=None)
    def test_idempotent_and_parity(self, raw):
        once = reduce_word(raw)
        assert reduce_word(once.letters) == once
        assert len(once.letters) <= len(raw)
        assert (len(raw) - len(once.letters)) % 2 == 0

    @given(raw_words)
    @settings(max_examples=300, deadline=None)
    def test_word_times_inverse_is_identity(self, raw):
        w = Word(raw)
        assert (w * w.inverse()).letters == ()

    @given(raw_words, raw_words, st.integers(min_value=0, max_value=40))
    @settings(max_examples=300, deadline=None)
    def test_product_matches_scan_oracle(self, a, c, k):
        # b starts with the inverse of a's last k letters, so the seam
        # cancels partly, wholly or not at all
        a = Word(a)
        b = Word(a[max(len(a) - k, 0):].inverse().letters + c)
        assert (a * b).letters == scan_reduce(a.letters + b.letters)


class TestCyclicReduce:
    def test_one_step_peel(self):
        conj, core = cyclic_reduce(parse_word("Xyx"))
        assert (conj, core) == (parse_word("X"), parse_word("y"))

    def test_reduced_input_fixed(self):
        conj, core = cyclic_reduce(parse_word("xy"))
        assert conj.letters == ()
        assert core == parse_word("xy")

    def test_big_word_core(self):
        _, core = cyclic_reduce(parse_word("yxyXYxxYxYxxxYXY"))
        target = parse_word("xxYxYxxY")
        assert _kernel.canonical_relator(core.letters) == \
            _kernel.canonical_relator(target.letters)

    @given(raw_words)
    @settings(max_examples=300, deadline=None)
    def test_multiplies_back(self, raw):
        w = Word(raw)
        conj, core = cyclic_reduce(w)
        assert conj * core * conj.inverse() == w
        # core really is cyclically reduced
        if len(core.letters) >= 2:
            assert core.letters[0] != -core.letters[-1]


class TestInvert:
    def test_pair(self):
        assert invert(parse_word("xy")) == parse_word("YX")

    def test_empty(self):
        assert invert(Word(())) == Word(())

    @given(raw_words)
    @settings(max_examples=300, deadline=None)
    def test_involution(self, raw):
        w = Word(raw)
        assert invert(invert(w)) == w


class TestSubstitute:
    def test_basis_change_on_core(self):
        w = parse_word("xxYxYxxY")
        out = substitute(w, 2, parse_word("Zxx"))
        assert out == parse_word("zXzz")
        assert _kernel.canonical_relator(out.letters) == \
            _kernel.canonical_relator(parse_word("Xzzz").letters)

    def test_basis_change_on_power_relator(self):
        out = substitute(parse_word("xxxYY"), 2, parse_word("Zxx"))
        assert out == parse_word("xzXXz")

    def test_absent_target_unchanged(self):
        w = parse_word("xxx")
        assert substitute(w, 2, parse_word("yy")) == w


class TestExponentSums:
    def test_braid_relator(self):
        assert exponent_sums(parse_word("YXYxyx"), 2) == (1, -1)

    def test_power_relator(self):
        assert exponent_sums(parse_word("xxxxYYY"), 2) == (4, -3)

    def test_empty(self):
        assert exponent_sums(Word(()), 3) == (0, 0, 0)

    def test_rank_too_small(self):
        with pytest.raises(WordError):
            exponent_sums(parse_word("z"), 2)

    @given(raw_words, letters)
    @settings(max_examples=300, deadline=None)
    def test_conjugation_invariant(self, raw, g):
        w = Word(raw)
        assert exponent_sums(conjugate(w, Word((g,))), 4) == exponent_sums(w, 4)


class TestWordValue:
    def test_equality_and_hash(self):
        assert Word((1, 2)) == parse_word("xy")
        assert hash(Word((1, 2))) == hash(parse_word("xy"))

    def test_zero_letter_rejected(self):
        with pytest.raises(WordError):
            Word((1, 0))

    def test_bool_letter_rejected(self):
        """bool is an int subclass; the pure kernel would keep True as a
        letter and the compiled one would turn it into 1."""
        with pytest.raises(WordError):
            Word((True,))

    def test_mul_and_pow(self):
        x = parse_word("x")
        assert x * x.inverse() == Word(())
        assert parse_word("xy") ** 2 == parse_word("xyxy")
        assert parse_word("xy") ** -1 == parse_word("YX")
        assert parse_word("xy") ** 0 == Word(())
        # the power cancels where the factors meet
        assert parse_word("xyX") ** 3 == parse_word("xyyyX")
        assert parse_word("xyX") ** -3 == parse_word("xYYYX")

    def test_seam_cancellation_in_mul(self):
        assert parse_word("xy") * parse_word("Yx") == parse_word("xx")

    def test_max_generator(self):
        assert parse_word("xzY").max_generator() == 3
        assert Word(()).max_generator() == 0
