import pytest
from hypothesis import given, settings, strategies as st

from ackirby import _kernel
from ackirby._intdet import integer_determinant
from ackirby.presentations import (
    Composite,
    ConjugateRelator,
    Destabilize,
    InvertGenerator,
    InvertRelator,
    MoveError,
    MultiplyByConjugate,
    MultiplyRelator,
    NielsenGenerator,
    Presentation,
    Stabilize,
    SwapGenerators,
    SwapRelators,
    abelianization_matrix,
    apply_move,
    atomic_move,
    canonical_form,
    canonical_presentation,
    expand_macro,
    inverse_move,
    is_trivial_presentation,
    move_from_dict,
    move_to_dict,
    parse_presentation,
    presentation_from_dict,
    presentation_to_dict,
    presentation_to_text,
    total_length,
    _is_trivial_state,
)
from ackirby.words import Word, parse_word


def P(text):
    return parse_presentation(text)


letters2 = st.integers(min_value=-2, max_value=2).filter(lambda v: v != 0)
words2 = st.lists(letters2, max_size=8).map(tuple)
pres2 = st.tuples(words2, words2).map(
    lambda rs: Presentation(2, [Word(rs[0]), Word(rs[1])]))


class TestConstruction:
    def test_balanced_enforced(self):
        with pytest.raises(ValueError):
            Presentation(2, [parse_word("x")])

    def test_rank_positive(self):
        with pytest.raises(ValueError):
            Presentation(0, [])

    def test_letters_within_rank(self):
        with pytest.raises(ValueError):
            Presentation(2, [parse_word("z"), parse_word("x")])

    def test_relators_reduced_on_input(self):
        Q = Presentation(1, [Word((1, -1, 1))])
        assert Q.relators[0] == parse_word("x")

    def test_empty_relator_allowed(self):
        Q = P("2; ; xy")
        assert Q.relators[0].letters == ()
        assert total_length(Q) == 2

    def test_text_round_trip(self):
        for text in ("1; x", "2; YXYxyx; xxxYY", "2; ; xy"):
            assert presentation_to_text(P(text)) == text

    def test_dict_round_trip(self):
        Q = P("2; YXYxyx; xxxYY")
        doc = presentation_to_dict(Q)
        assert doc == {"rank": 2, "relators": ["YXYxyx", "xxxYY"]}
        assert presentation_from_dict(doc) == Q


class TestApplyMove:
    def test_invert_relator(self):
        assert apply_move(P("1; x"), InvertRelator(1)) == P("1; X")

    def test_multiply_right(self):
        Q = apply_move(P("2; xy; Yx"), MultiplyRelator(1, 2, "right"))
        assert Q == P("2; xx; Yx")

    def test_multiply_left(self):
        Q = apply_move(P("2; xy; Yx"), MultiplyRelator(1, 2, "left"))
        assert Q == P("2; Yxxy; Yx")

    def test_multiply_self_forbidden(self):
        with pytest.raises(MoveError):
            apply_move(P("2; xy; Yx"), MultiplyRelator(1, 1, "right"))

    def test_conjugate_relator(self):
        Q = apply_move(P("2; xy; y"), ConjugateRelator(1, 2))
        assert Q.relators[0] == parse_word("yxyY") * Word(())  # yx after seams
        assert Q == P("2; yx; y")

    def test_conjugate_by_inverse_letter(self):
        assert apply_move(P("2; yx; y"), ConjugateRelator(1, -2)) == P("2; xy; y")

    def test_swap_relators(self):
        assert apply_move(P("2; x; y"), SwapRelators(1, 2)) == P("2; y; x")

    def test_stabilize(self):
        Q = apply_move(P("1; x"), Stabilize())
        assert Q == P("2; x; y")

    def test_destabilize(self):
        Q = apply_move(P("2; x; y"), Destabilize(2))
        assert Q == P("1; x")

    def test_destabilize_renumbers(self):
        Q = apply_move(P("2; x; yy"), Destabilize(1))
        assert Q == P("1; xx")

    def test_destabilize_needs_bare_generator(self):
        with pytest.raises(MoveError):
            apply_move(P("2; xy; y"), Destabilize(1))

    def test_destabilize_needs_unused_generator(self):
        with pytest.raises(MoveError):
            apply_move(P("2; x; xy"), Destabilize(1))

    def test_destabilize_rank_floor(self):
        with pytest.raises(MoveError):
            apply_move(P("1; x"), Destabilize(1))

    def test_nielsen_generator(self):
        # x -> xy applied to every relator
        Q = apply_move(P("2; x; y"), NielsenGenerator(1, 2, 1))
        assert Q == P("2; xy; y")

    def test_nielsen_negative_sign(self):
        Q = apply_move(P("2; x; y"), NielsenGenerator(1, 2, -1))
        assert Q == P("2; xY; y")

    def test_atomic_move_reduces_each_relator_once(self, monkeypatch):
        start = P("3; xyX; yxY; zzx")
        calls = []
        reduce_word = _kernel.reduce_word

        def counted(letters):
            calls.append(letters)
            return reduce_word(letters)

        monkeypatch.setattr(_kernel, "reduce_word", counted)
        Q = apply_move(start, NielsenGenerator(1, 3, -1))
        reduced = [reduce_word(letters) for letters in calls]
        assert len(reduced) == 3
        assert [r.letters for r in Q.relators] == reduced

    @pytest.mark.parametrize("move, after", [
        (InvertRelator(2), "3; xyX; XyyX; z"),
        (MultiplyRelator(1, 2, "right"), "3; xYx; xYYx; z"),
        (MultiplyRelator(2, 1, "left"), "3; xyX; xYx; z"),
        (ConjugateRelator(1, -1), "3; y; xYYx; z"),
        (SwapRelators(1, 3), "3; z; xYYx; xyX"),
        (Stabilize(), "4; xyX; xYYx; z; g4"),
        (Destabilize(3), "2; xyX; xYYx"),
        (NielsenGenerator(1, 2, -1), "3; xyX; xYYYxY; z"),
        (InvertGenerator(2), "3; xYX; xyyx; z"),
        (SwapGenerators(1, 3), "3; zyZ; zYYz; x"),
    ], ids=("invert_relator", "multiply_right", "multiply_left", "conjugate_relator",
            "swap_relators", "stabilize", "destabilize", "nielsen_generator",
            "invert_generator", "swap_generators"))
    def test_atomic_move_is_apply_move_on_letters(self, move, after):
        """Each of the nine atomic move types, applied by atomic_move to
        letter tuples, gives what apply_move gives on the presentation."""
        start = P("3; xyX; xYYx; z")
        letters = tuple(r.letters for r in start.relators)
        after_letters = atomic_move(letters, move)
        assert Presentation(len(after_letters), after_letters) \
            == apply_move(start, move) == P(after)

    def test_invert_generator(self):
        assert apply_move(P("2; xy; x"), InvertGenerator(1)) == P("2; Xy; X")

    def test_swap_generators(self):
        assert apply_move(P("2; xy; x"), SwapGenerators(1, 2)) == P("2; yx; y")

    def test_index_errors_report_precondition(self):
        with pytest.raises(MoveError):
            apply_move(P("1; x"), InvertRelator(2))
        with pytest.raises(MoveError):
            apply_move(P("1; x"), ConjugateRelator(1, 5))

    def test_multiply_by_conjugate_macro(self):
        start = P("2; yxyXYX; xxxYY")
        conj = parse_word("yxY")
        Q = apply_move(start, MultiplyByConjugate(1, 2, conj, 1))
        assert Q.relators[0] == parse_word("yxyXYX") * (
            conj * parse_word("xxxYY") * conj.inverse())

    def test_gersten_multiply_core(self):
        start = P("2; yxyXYX; xxxYY")
        step1 = apply_move(start, MultiplyRelator(1, 2, "right"))
        step2 = apply_move(step1, MultiplyByConjugate(1, 2, parse_word("yxY"), 1))
        assert step2.relators[0] == parse_word("yxyXYxxYxYxxxYXY")
        form = canonical_form(Presentation(2, [step2.relators[0], parse_word("x")]))
        target = canonical_form(Presentation(2, [parse_word("xxYxYxxY"), parse_word("x")]))
        assert form[1] == target[1]

    def test_macro_expansion_matches_macro(self):
        start = P("2; yxyXYX; xxxYY")
        macro = MultiplyByConjugate(1, 2, parse_word("yxY"), -1)
        direct = apply_move(start, macro)
        stepped = start
        for atom in expand_macro(macro):
            stepped = apply_move(stepped, atom)
        assert stepped == direct

    def test_composite_runs_in_order(self):
        move = Composite((InvertRelator(1), ConjugateRelator(1, 2)))
        assert apply_move(P("2; x; y"), move) == \
            apply_move(apply_move(P("2; x; y"), InvertRelator(1)),
                       ConjugateRelator(1, 2))


class TestInverseMove:
    def test_invert_is_involution(self):
        assert inverse_move(InvertRelator(3), P("1; x")) == InvertRelator(3)

    def test_stabilize_inverse(self):
        Q = P("1; x")
        assert inverse_move(Stabilize(), Q) == Destabilize(2)

    @given(pres2, st.integers(0, 10_000))
    @settings(max_examples=250, deadline=None)
    def test_round_trip_preserves_class(self, Q, pick):
        moves = []
        moves.append(InvertRelator(1 + pick % 2))
        moves.append(ConjugateRelator(1 + pick % 2, [-2, -1, 1, 2][pick % 4]))
        moves.append(SwapRelators(1, 2))
        moves.append(MultiplyRelator(1 + pick % 2, 2 - pick % 2, "right" if pick % 3 else "left"))
        moves.append(Stabilize())
        moves.append(NielsenGenerator(1 + pick % 2, 2 - pick % 2, 1 if pick % 2 else -1))
        moves.append(InvertGenerator(1 + pick % 2))
        moves.append(SwapGenerators(1, 2))
        move = moves[pick % len(moves)]
        try:
            mid = apply_move(Q, move)
        except MoveError:
            return
        back = apply_move(mid, inverse_move(move, Q))
        assert canonical_form(back) == canonical_form(Q)

    def test_destabilize_inverse_round_trip(self):
        Q = P("3; x; zz; y")
        move = Destabilize(3)
        mid = apply_move(Q, move)
        back = apply_move(mid, inverse_move(move, Q))
        assert canonical_form(back) == canonical_form(Q)

    def test_composite_inverse(self):
        Q = P("2; xy; y")
        move = Composite((InvertRelator(1), ConjugateRelator(1, 2),
                          MultiplyRelator(1, 2, "right")))
        mid = apply_move(Q, move)
        back = apply_move(mid, inverse_move(move, Q))
        assert canonical_form(back) == canonical_form(Q)


class TestCanonical:
    def test_permutation_invariant(self):
        assert canonical_form(P("2; xy; yyx")) == canonical_form(P("2; yyx; xy"))

    def test_inversion_invariant(self):
        assert canonical_form(P("2; xy; y")) == canonical_form(P("2; YX; y"))

    def test_rotation_invariant(self):
        assert canonical_form(P("2; xxy; y")) == canonical_form(P("2; xyx; y")) \
            == canonical_form(P("2; yxx; y"))

    def test_distinguishes_classes(self):
        assert canonical_form(P("2; xy; y")) != canonical_form(P("2; xY; y"))
        assert canonical_form(P("1; x")) != canonical_form(P("1; xxx"))

    def test_canonical_presentation_is_fixed_point(self):
        Q = canonical_presentation(P("2; yxx; YX"))
        assert canonical_presentation(Q) == Q
        assert canonical_form(Q) == canonical_form(P("2; yxx; YX"))

    @given(pres2, st.integers(0, 5), st.integers(0, 5), letters2)
    @settings(max_examples=250, deadline=None)
    def test_key_invariant_under_symmetry_moves(self, Q, i, r, g):
        moves = [InvertRelator(1 + i % 2), ConjugateRelator(1 + r % 2, g),
                 SwapRelators(1, 2)]
        form = canonical_form(Q)
        for move in moves:
            Q = apply_move(Q, move)
        assert canonical_form(Q) == form


class TestPredicatesAndMatrix:
    def test_trivial_true(self):
        assert is_trivial_presentation(P("2; x; y"))

    def test_trivial_order_and_sign_immaterial(self):
        assert is_trivial_presentation(P("2; y; X"))

    def test_nontrivial_family_member(self):
        assert not is_trivial_presentation(P("2; YXYxyx; xxxxYYY"))

    def test_empty_relator_not_trivial(self):
        assert not is_trivial_presentation(P("2; ; xy"))
        assert not is_trivial_presentation(P("2; x; "))

    def test_repeated_generator_not_trivial(self):
        assert not is_trivial_presentation(P("2; x; x"))

    @pytest.mark.parametrize("state, trivial", [
        ((), True),
        (((1,),), True),
        (((1,), (2,)), True),
        (((1,), (2,), (3,)), True),
        (((),), False),
        (((), (1,)), False),
        (((1,), (1,)), False),
        (((1,), (-2,), (3,)), False),
        (((1,), (1, 2)), False),
    ])
    def test_trivial_state_truth_table(self, state, trivial):
        assert _is_trivial_state(state) is trivial

    def test_abelianization_family(self):
        A = abelianization_matrix(P("2; YXYxyx; xxxxYYY"))
        assert A == ((1, -1), (4, -3))
        assert integer_determinant(A) == 1

    def test_abelianization_trivial(self):
        assert abelianization_matrix(P("2; x; y")) == ((1, 0), (0, 1))

    def test_abelianization_empty_relator_zero_row(self):
        assert abelianization_matrix(P("2; ; xy")) == ((0, 0), (1, 1))

    def test_trivial_implies_unimodular(self):
        for text in ("2; x; y", "2; y; X", "3; z; y; x"):
            Q = P(text)
            assert is_trivial_presentation(Q)
            assert abs(integer_determinant(abelianization_matrix(Q))) == 1

    def test_total_length(self):
        assert total_length(P("2; x; y")) == 2
        assert total_length(P("2; YXYxyx; xxxYY")) == 11
        assert total_length(P("2; ; xy")) == 2

    @given(pres2, st.integers(0, 10_000))
    @settings(max_examples=250, deadline=None)
    def test_moves_preserve_balance_and_absdet(self, Q, pick):
        det0 = abs(integer_determinant(abelianization_matrix(Q)))
        moves = [InvertRelator(1 + pick % 2),
                 ConjugateRelator(1 + pick % 2, [-2, -1, 1, 2][pick % 4]),
                 SwapRelators(1, 2),
                 MultiplyRelator(1 + pick % 2, 2 - pick % 2, "right"),
                 Stabilize(),
                 NielsenGenerator(1 + pick % 2, 2 - pick % 2, 1),
                 InvertGenerator(1 + pick % 2),
                 SwapGenerators(1, 2)]
        move = moves[pick % len(moves)]
        try:
            Q2 = apply_move(Q, move)
        except MoveError:
            return
        assert Q2.rank == len(Q2.relators)
        assert abs(integer_determinant(abelianization_matrix(Q2))) == det0


class TestMoveSerialization:
    def test_round_trip_all_types(self):
        moves = [InvertRelator(1), MultiplyRelator(1, 2, "left"),
                 ConjugateRelator(2, -1), SwapRelators(1, 2), Stabilize(),
                 Destabilize(3), NielsenGenerator(1, 2, -1), InvertGenerator(2),
                 SwapGenerators(1, 3),
                 MultiplyByConjugate(1, 2, parse_word("yxY"), -1),
                 Composite((InvertRelator(1), Stabilize()))]
        for move in moves:
            doc = move_to_dict(move)
            assert move_from_dict(doc) == move

    def test_tags_are_stable(self):
        assert move_to_dict(InvertRelator(1)) == {"type": "invert_relator", "i": 1}
        assert move_to_dict(MultiplyRelator(1, 2, "right")) == {
            "type": "multiply_relator", "i": 1, "j": 2, "side": "right"}

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            move_from_dict({"type": "no_such_move"})

    @pytest.mark.parametrize("moves", ["", {}, "ab"], ids=repr)
    def test_composite_moves_must_be_a_list(self, moves):
        with pytest.raises(ValueError, match="malformed composite move record"):
            move_from_dict({"type": "composite", "moves": moves})
