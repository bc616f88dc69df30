"""Balanced presentations and the move calculus acting on them.

A balanced presentation has n generators g1..gn and exactly n relator
words.  Moves come in two regimes:

  strict:   InvertRelator, MultiplyRelator, ConjugateRelator,
            SwapRelators, Stabilize, Destabilize
  extended: strict plus NielsenGenerator, InvertGenerator,
            SwapGenerators (generator basis changes)

MultiplyByConjugate and Composite are scripting macros that expand to
atomic moves.  All moves are invertible; see inverse_move.

Every atomic move is defined once, in atomic_move, on a rank and its
relator letter tuples; the generator-level moves are generator maps
applied by words.map_generators.  apply_move, the search's successors
(search._successors) and certificate expansion all call it.
"""

from dataclasses import dataclass

from ackirby import _kernel
from ackirby.words import Word, exponent_sums, format_word, map_generators, parse_word


class MoveError(ValueError):
    """A move precondition failed; the message names the precondition."""


class Presentation:
    """Immutable balanced presentation: rank n, n freely reduced relators."""

    __slots__ = ("_rank", "_relators")

    def __init__(self, rank, relators):
        if type(rank) is not int or rank < 1:
            raise ValueError("rank must be a positive integer, got %r" % (rank,))
        relators = tuple(Word(r) for r in relators)
        if len(relators) != rank:
            raise ValueError(
                "balanced presentation of rank %d needs exactly %d relators, got %d"
                % (rank, rank, len(relators)))
        for r in relators:
            if r.max_generator() > rank:
                raise ValueError(
                    "relator %s mentions generator %d beyond rank %d"
                    % (format_word(r), r.max_generator(), rank))
        self._rank = rank
        self._relators = relators

    @property
    def rank(self):
        return self._rank

    @property
    def relators(self):
        return self._relators

    def total_length(self):
        return sum(len(r) for r in self._relators)

    def __eq__(self, other):
        if isinstance(other, Presentation):
            return self._rank == other._rank and self._relators == other._relators
        return NotImplemented

    def __hash__(self):
        return hash((self._rank, self._relators))

    def __str__(self):
        return presentation_to_text(self)

    def __repr__(self):
        return "Presentation(%d, %r)" % (self._rank, [str(r) for r in self._relators])


# ---------------------------------------------------------------------------
# Moves

@dataclass(frozen=True)
class InvertRelator:
    i: int


@dataclass(frozen=True)
class MultiplyRelator:
    i: int
    j: int
    side: str = "right"


@dataclass(frozen=True)
class ConjugateRelator:
    i: int
    letter: int


@dataclass(frozen=True)
class SwapRelators:
    i: int
    j: int


@dataclass(frozen=True)
class Stabilize:
    pass


@dataclass(frozen=True)
class Destabilize:
    i: int


@dataclass(frozen=True)
class NielsenGenerator:
    """Basis change g_i -> g_i * g_j^sign, applied to every relator."""
    i: int
    j: int
    sign: int = 1


@dataclass(frozen=True)
class InvertGenerator:
    i: int


@dataclass(frozen=True)
class SwapGenerators:
    i: int
    j: int


@dataclass(frozen=True)
class MultiplyByConjugate:
    """Macro: r_i := r_i * (c * r_j^sign * c^-1); expands to atoms."""
    i: int
    j: int
    conjugator: Word
    sign: int = 1


@dataclass(frozen=True)
class Composite:
    """Macro: a fixed sequence of moves applied in order."""
    moves: tuple


STRICT_MOVE_TYPES = (InvertRelator, MultiplyRelator, ConjugateRelator,
                     SwapRelators, Stabilize, Destabilize)
EXTENDED_MOVE_TYPES = STRICT_MOVE_TYPES + (NielsenGenerator, InvertGenerator,
                                           SwapGenerators)


def _check_index(rank, idx, name="relator index"):
    # bool is an int subclass: `type` keeps True from acting as index 1
    if type(idx) is not int or not 1 <= idx <= rank:
        raise MoveError("%s %r out of range 1..%d" % (name, idx, rank))


def expand_macro(move):
    """Flatten a move into atomic moves (macros expand, atoms pass through)."""
    if isinstance(move, Composite):
        out = []
        for m in move.moves:
            out.extend(expand_macro(m))
        return out
    if isinstance(move, MultiplyByConjugate):
        if type(move.sign) is not int or move.sign not in (1, -1):
            raise MoveError("conjugate-multiply sign must be +1 or -1, got %r" % (move.sign,))
        c = Word(move.conjugator)
        atoms = []
        if move.sign < 0:
            atoms.append(InvertRelator(move.j))
        for a in reversed(c.letters):
            atoms.append(ConjugateRelator(move.j, a))
        atoms.append(MultiplyRelator(move.i, move.j, "right"))
        for a in c.letters:
            atoms.append(ConjugateRelator(move.j, -a))
        if move.sign < 0:
            atoms.append(InvertRelator(move.j))
        return atoms
    return [move]


def apply_move(P, move):
    """Apply a move (or macro) to a presentation, returning a new one.

    >>> P = parse_presentation("2; xyX; y")
    >>> presentation_to_text(apply_move(P, InvertRelator(1)))
    '2; xYX; y'
    >>> presentation_to_text(apply_move(P, MultiplyRelator(1, 2, "right")))
    '2; xyXy; y'
    """
    rank, letters = P.rank, tuple(r.letters for r in P.relators)
    for m in expand_macro(move):
        rank, letters = atomic_move(rank, letters, m)
    return Presentation(rank, [Word._from_reduced(r) for r in letters])


def atomic_move(rank, relators, move):
    """Apply an atomic move to a rank and its relator letter tuples.

    This is the one definition of every atomic move.  A failed
    precondition raises MoveError.  Returns the new rank and relators,
    each freely reduced (not canonicalized); the relators must be
    freely reduced on input.

    >>> atomic_move(2, ((1,), (2, 2)), Destabilize(1))
    (1, ((1, 1),))
    >>> atomic_move(2, ((1, 2), (-2,)), MultiplyRelator(1, 2, "right"))
    (2, ((1,), (-2,)))
    """
    # generator-level moves first: the search calls them most
    if isinstance(move, Destabilize):
        i = move.i
        _check_index(rank, i)
        if rank < 2:
            raise MoveError("cannot destabilize a rank-1 presentation")
        r = relators[i - 1]
        if len(r) != 1:
            raise MoveError(
                "destabilize needs relator %d to be a bare generator, got %s"
                % (i, format_word(r) or "the empty word"))
        k = abs(r[0])
        for idx, other in enumerate(relators):
            if idx != i - 1 and (k in other or -k in other):
                raise MoveError(
                    "destabilize needs generator %d to occur only in relator %d,"
                    " but it occurs in relator %d" % (k, i, idx + 1))
        # generators above k move down one index
        return rank - 1, map_generators(relators[:i - 1] + relators[i:],
                                        {g: (g - 1,) for g in range(k + 1, rank + 1)})
    if isinstance(move, NielsenGenerator):
        _check_index(rank, move.i, "generator index")
        _check_index(rank, move.j, "generator index")
        if move.i == move.j:
            raise MoveError("Nielsen move needs two distinct generators, got i = j = %d" % move.i)
        if type(move.sign) is not int or move.sign not in (1, -1):
            raise MoveError("Nielsen sign must be +1 or -1, got %r" % (move.sign,))
        return rank, map_generators(relators, {move.i: (move.i, move.sign * move.j)})
    if isinstance(move, InvertGenerator):
        _check_index(rank, move.i, "generator index")
        return rank, map_generators(relators, {move.i: (-move.i,)})
    if isinstance(move, SwapGenerators):
        _check_index(rank, move.i, "generator index")
        _check_index(rank, move.j, "generator index")
        if move.i == move.j:
            raise MoveError("swap needs two distinct generators, got i = j = %d" % move.i)
        return rank, map_generators(relators, {move.i: (move.j,), move.j: (move.i,)})
    if isinstance(move, Stabilize):
        return rank + 1, tuple(relators) + ((rank + 1,),)

    rels = list(relators)
    if isinstance(move, InvertRelator):
        _check_index(rank, move.i)
        rels[move.i - 1] = _kernel.invert_word(rels[move.i - 1])
    elif isinstance(move, MultiplyRelator):
        _check_index(rank, move.i)
        _check_index(rank, move.j)
        if move.i == move.j:
            raise MoveError("multiply needs two distinct relators, got i = j = %d" % move.i)
        if move.side not in ("left", "right"):
            raise MoveError("multiply side must be 'left' or 'right', got %r" % (move.side,))
        ri, rj = rels[move.i - 1], rels[move.j - 1]
        rels[move.i - 1] = _kernel.reduce_word(ri + rj if move.side == "right" else rj + ri)
    elif isinstance(move, ConjugateRelator):
        _check_index(rank, move.i)
        a = move.letter
        if type(a) is not int or a == 0 or abs(a) > rank:
            raise MoveError("conjugating letter %r is not a generator of rank %d" % (a, rank))
        rels[move.i - 1] = _kernel.reduce_word((a,) + rels[move.i - 1] + (-a,))
    elif isinstance(move, SwapRelators):
        _check_index(rank, move.i)
        _check_index(rank, move.j)
        if move.i == move.j:
            raise MoveError("swap needs two distinct relators, got i = j = %d" % move.i)
        a, b = move.i - 1, move.j - 1
        rels[a], rels[b] = rels[b], rels[a]
    else:
        raise MoveError("unknown move %r" % (move,))
    return rank, tuple(rels)


def inverse_move(move, context):
    """A move undoing `move` on `context` up to canonical form.

    Most inverses are exact; Destabilize of a non-final generator is
    undone only up to relator order and is returned as a Composite of
    Stabilize and generator swaps.
    """
    if isinstance(move, (InvertRelator, SwapRelators, InvertGenerator, SwapGenerators)):
        return move
    if isinstance(move, ConjugateRelator):
        return ConjugateRelator(move.i, -move.letter)
    if isinstance(move, MultiplyRelator):
        return Composite((InvertRelator(move.j), move, InvertRelator(move.j)))
    if isinstance(move, Stabilize):
        return Destabilize(context.rank + 1)
    if isinstance(move, Destabilize):
        apply_move(context, move)  # raises MoveError if the move is illegal here
        k = abs(context.relators[move.i - 1].letters[0])
        n = context.rank
        swaps = tuple(SwapGenerators(t, t + 1) for t in range(n - 1, k - 1, -1))
        return Composite((Stabilize(),) + swaps) if swaps else Stabilize()
    if isinstance(move, NielsenGenerator):
        return NielsenGenerator(move.i, move.j, -move.sign)
    if isinstance(move, MultiplyByConjugate):
        return MultiplyByConjugate(move.i, move.j, move.conjugator, -move.sign)
    if isinstance(move, Composite):
        out = []
        Q = context
        for m in move.moves:
            out.append(inverse_move(m, Q))
            Q = apply_move(Q, m)
        return Composite(tuple(reversed(out)))
    raise MoveError("unknown move %r" % (move,))


# ---------------------------------------------------------------------------
# Canonical forms

def canonical_form(P):
    """Canonical form: each relator cyclically reduced and rotated (or
    inverted) to its minimal form, relators sorted by
    `_kernel.sort_relators`.  Presentations in the same
    relator-permutation/inversion/conjugation class share it."""
    return (P.rank, _kernel.sort_relators(
        [_kernel.canonical_relator(r.letters) for r in P.relators]))


def canonical_presentation(P):
    """The canonical representative of P's move-symmetry class."""
    rank, rels = canonical_form(P)
    return Presentation(rank, [Word(r) for r in rels])


def _is_trivial_state(state):
    rank, rels = state
    # every trivial relator has length 1, and canonical order puts the
    # longest relator last, so most states are rejected without building
    # the trivial one
    if rels and len(rels[-1]) != 1:
        return False
    return rels == tuple((k,) for k in range(1, rank + 1))


def is_trivial_presentation(P):
    """True iff, after canonicalization, the relators are exactly
    g1, ..., gn in some order and sign.  False if any relator is empty."""
    return _is_trivial_state(canonical_form(P))


def abelianization_matrix(P):
    """Row i is the exponent-sum vector of relator i."""
    return tuple(exponent_sums(r, P.rank) for r in P.relators)


def total_length(P):
    """Sum of relator lengths."""
    return P.total_length()


# ---------------------------------------------------------------------------
# Text and structured forms

def presentation_to_text(P):
    """`<rank>; r1; r2; ...` with relators in word text form."""
    return "; ".join([str(P.rank)] + [format_word(r) for r in P.relators])


def parse_presentation(text):
    """Read "rank; relator; relator; ..." text.

    >>> parse_presentation("2; xyX; y").rank
    2
    >>> parse_presentation("2; xX; y").relators[0]
    Word('')
    """
    parts = [p.strip() for p in text.split(";")]
    if not parts or not parts[0]:
        raise ValueError("presentation text must start with the rank")
    try:
        rank = int(parts[0])
    except ValueError:
        raise ValueError("bad rank %r in presentation text" % (parts[0],))
    return Presentation(rank, [parse_word(p) for p in parts[1:]])


def presentation_to_dict(P):
    return {"rank": P.rank, "relators": [format_word(r) for r in P.relators]}


def presentation_from_dict(doc):
    if not isinstance(doc, dict) or set(doc) != {"rank", "relators"} \
            or not isinstance(doc["relators"], list) \
            or not all(isinstance(r, str) for r in doc["relators"]):
        raise ValueError("malformed presentation record %r: it needs exactly "
                         "\"rank\" and a list of relator strings \"relators\"" % (doc,))
    return Presentation(doc["rank"], [parse_word(r) for r in doc["relators"]])


_MOVE_TAGS = {
    InvertRelator: "invert_relator",
    MultiplyRelator: "multiply_relator",
    ConjugateRelator: "conjugate_relator",
    SwapRelators: "swap_relators",
    Stabilize: "stabilize",
    Destabilize: "destabilize",
    NielsenGenerator: "nielsen_generator",
    InvertGenerator: "invert_generator",
    SwapGenerators: "swap_generators",
    MultiplyByConjugate: "multiply_by_conjugate",
    Composite: "composite",
}


def move_to_dict(move):
    """Tagged record form of a move, e.g. {"type": "invert_relator", "i": 1}."""
    tag = _MOVE_TAGS.get(type(move))
    if tag is None:
        raise ValueError("unknown move %r" % (move,))
    if isinstance(move, Composite):
        return {"type": tag, "moves": [move_to_dict(m) for m in move.moves]}
    if isinstance(move, MultiplyByConjugate):
        return {"type": tag, "i": move.i, "j": move.j,
                "conjugator": format_word(move.conjugator), "sign": move.sign}
    doc = {"type": tag}
    for name in move.__dataclass_fields__:
        doc[name] = getattr(move, name)
    return doc


def move_from_dict(doc):
    """Inverse of move_to_dict; a malformed record raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("move record must be an object, got %r" % (doc,))
    tag = doc.get("type")
    try:
        if tag == "composite":
            return Composite(tuple(move_from_dict(m) for m in doc["moves"]))
        if tag == "multiply_by_conjugate":
            return MultiplyByConjugate(doc["i"], doc["j"],
                                       parse_word(doc["conjugator"]), doc.get("sign", 1))
        for cls, t in _MOVE_TAGS.items():
            if t == tag:
                fields = {k: v for k, v in doc.items() if k != "type"}
                return cls(**fields)
    except (KeyError, TypeError) as exc:
        raise ValueError("malformed %s move record %r: %s" % (tag, doc, exc)) from None
    raise ValueError("unknown move record %r" % (doc,))
