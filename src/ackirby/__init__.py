"""ackirby: a workbench for Andrews-Curtis moves on balanced group
presentations, linking-matrix Kirby calculus, and enumeration of
candidate surgery curves on the 4-punctured sphere."""

from ackirby._kernel import BACKEND
from ackirby.words import (
    Word, WordError, parse_word, format_word, reduce_word, cyclic_reduce,
    invert, conjugate, substitute, exponent_sums,
)
from ackirby.presentations import (
    Presentation, MoveError,
    InvertRelator, MultiplyRelator, ConjugateRelator, SwapRelators,
    Stabilize, Destabilize, NielsenGenerator, InvertGenerator,
    SwapGenerators, MultiplyByConjugate, Composite,
    apply_move, inverse_move, expand_macro, canonical_form,
    canonical_presentation, is_trivial_presentation, abelianization_matrix,
    total_length, presentation_to_text, parse_presentation,
)
from ackirby.search import (
    MoveCertificate, SearchConfig, SearchOutcome, SearchStats,
    VerificationReport, search, verify, hybrid_trivialize,
)
from ackirby.family import (
    presentation_Ln1, presentation_from_w, gersten_certificate,
    gersten_prefix_certificate, family_report,
)
from ackirby.kirby import (
    FramedLinkMatrix, KirbyError, TWO_HANDLE, DOTTED,
    slide, blow_down, add_unlink, add_hopf_pair,
    gpr_necessary_condition, is_weak_trivial_form,
)
from ackirby.curves import (
    Slope, PunctureLabeling, CurveError,
    partition, z3_class, is_candidate, enumerate_candidates,
)

__version__ = "0.1.0"
