"""The two-generator presentation family P_{n,1} and its built-in
trivialization certificate for n = 2.

P_{n,1} = <x, y | y^-1 w^-1 x w, x^(n+1) y^-n> with w = yx.  Every member
abelianizes to determinant 1.  Under the default report budget (strict
regime, total length start + 2, depth 8) n = 0, 1 and 2 trivialize, n = 2
after 1255 states, and n = 3 is exhausted.  The built-in n = 2
certificate is a second, hand-built route: its prefix changes the
generator basis midway.
"""

from dataclasses import replace

from ackirby._intdet import integer_determinant
from ackirby.presentations import (
    ConjugateRelator,
    InvertGenerator,
    InvertRelator,
    MultiplyByConjugate,
    MultiplyRelator,
    NielsenGenerator,
    Presentation,
    SwapRelators,
    abelianization_matrix,
)
from ackirby.search import MoveCertificate, SearchConfig, search
from ackirby.words import Word, parse_word


def presentation_from_w(n, w):
    """<x, y | y^-1 w^-1 x w, x^(n+1) y^-n> for a conjugating word w in
    x and y, relators freely reduced."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("family parameter n must be a nonnegative integer, got %r" % (n,))
    w = Word(w)
    if w.max_generator() > 2:
        raise ValueError("w must be a word in x and y, got %s" % (w,))
    x, y = Word((1,)), Word((2,))
    r1 = y.inverse() * w.inverse() * x * w
    r2 = x ** (n + 1) * y ** (-n)
    return Presentation(2, [r1, r2])


def presentation_Ln1(n):
    """The standard family member: presentation_from_w with w = yx.

    >>> str(presentation_Ln1(2))
    '2; YXYxyx; xxxYY'
    """
    return presentation_from_w(n, parse_word("yx"))


# The n = 2 trivialization, stored as moves.  The prefix multiplies the
# first relator into the 8-letter cyclic core x^2 y^-1 x y^-1 x^2 y^-1,
# then changes basis by y -> y^-1 x^2 (turning the core into x^-1 y^3);
# the suffix finishes with strict moves found once by bounded search and
# frozen here.
GERSTEN_PREFIX_MOVES = (
    InvertRelator(1),
    ConjugateRelator(1, 1),
    ConjugateRelator(1, 2),
    ConjugateRelator(1, 1),
    MultiplyRelator(1, 2, "right"),
    MultiplyByConjugate(1, 2, parse_word("yxY"), 1),
    ConjugateRelator(1, -2),
    ConjugateRelator(1, -1),
    ConjugateRelator(1, -2),
    ConjugateRelator(1, 1),
    ConjugateRelator(1, 2),
    NielsenGenerator(2, 1, 1),
    NielsenGenerator(2, 1, 1),
    InvertGenerator(2),
)

_GERSTEN_SUFFIX_MOVES = (
    InvertRelator(1),
    ConjugateRelator(1, 2),
    ConjugateRelator(1, 2),
    InvertRelator(2),
    ConjugateRelator(2, 2),
    InvertRelator(2),
    MultiplyRelator(1, 2, "right"),
    ConjugateRelator(1, -1),
    ConjugateRelator(1, 2),
    ConjugateRelator(1, 2),
    InvertRelator(2),
    SwapRelators(1, 2),
    InvertRelator(2),
    MultiplyRelator(1, 2, "right"),
    ConjugateRelator(1, -1),
    InvertRelator(1),
    ConjugateRelator(1, -2),
    ConjugateRelator(1, 1),
    ConjugateRelator(1, 2),
    InvertRelator(2),
    SwapRelators(1, 2),
    InvertRelator(2),
    MultiplyRelator(1, 2, "right"),
    ConjugateRelator(1, -1),
    ConjugateRelator(1, -2),
    ConjugateRelator(1, 1),
    ConjugateRelator(1, 2),
    InvertRelator(2),
    ConjugateRelator(2, -1),
    ConjugateRelator(2, -2),
    ConjugateRelator(2, 1),
    MultiplyRelator(1, 2, "right"),
    ConjugateRelator(1, -1),
    ConjugateRelator(1, 2),
    ConjugateRelator(1, 1),
    InvertRelator(1),
    ConjugateRelator(2, -2),
    ConjugateRelator(2, 1),
    ConjugateRelator(2, 2),
    ConjugateRelator(2, -1),
    InvertRelator(1),
    MultiplyRelator(2, 1, "right"),
    InvertRelator(1),
    ConjugateRelator(2, -2),
    ConjugateRelator(2, 1),
    ConjugateRelator(2, -2),
    InvertRelator(2),
    SwapRelators(1, 2),
)


def gersten_prefix_certificate():
    """Just the hand-built prefix (composite multiply and basis change),
    suitable as a hybrid_trivialize prefix."""
    return MoveCertificate(presentation_Ln1(2), GERSTEN_PREFIX_MOVES)


def gersten_certificate():
    """Complete built-in trivialization certificate for presentation_Ln1(2)."""
    return MoveCertificate(presentation_Ln1(2),
                           GERSTEN_PREFIX_MOVES + _GERSTEN_SUFFIX_MOVES)


def family_report(n_max, **overrides):
    """Survey rows for n = 0..n_max: total length, abelianization
    determinant, and search status under a desk-scale budget.

    Each member's default budget is max_total_length = its initial total
    length + 2, max_depth = 8, strict regime.  Keyword arguments name
    SearchConfig fields and override that default for every row; the
    fields not given keep it.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    rows = []
    for n in range(n_max + 1):
        P = presentation_Ln1(n)
        cfg = replace(SearchConfig(max_total_length=P.total_length() + 2, max_depth=8),
                      **overrides)
        out = search(P, cfg)
        rows.append({
            "n": n,
            "total_length": P.total_length(),
            "det": integer_determinant(abelianization_matrix(P)),
            "status": out.status,
            "visited": out.stats.visited,
        })
    return rows
