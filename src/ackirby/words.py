"""Words in finitely generated free groups.

A letter is a nonzero signed integer: +k is the k-th generator, -k its
inverse.  A Word is an immutable, always freely reduced sequence of
letters; the empty Word is the identity.

Text form: lowercase letters are generators, uppercase their inverses.
x, y, z name generators 1, 2, 3; the remaining letters a..w name
generators 4..26 (a=4, b=5, ..., w=26); `g` followed by digits is the
escaped form for any index (g1, g2, ...).  Whitespace (space, tab, LF,
CR, VT, FF) is ignored.  The text is ASCII: any other character is
unknown.

Every text form of the package (words, presentations, matrices, and
the command line's specs and integer flags) takes only WHITESPACE as
whitespace and reads integers by `parse_int`: ASCII decimal digits.  So
none takes the separators 0x1C-0x1F, which str.isspace and str.split()
count as whitespace, or the non-ASCII digits and `_` that int() reads.
"""

import re

from ackirby import _kernel

# The compiled kernel holds letters and their keys (2 * index - 1 at most;
# keys order the letters x < X < y < Y < ...) in C longs, which are 32
# bits on some platforms; 2**30 is the largest index whose key still fits,
# and that kernel rejects larger ones.
MAX_GENERATOR = 2**30
# an escaped index with more digits (leading zeros aside) overflows; the
# count is compared before int(), which refuses more digits than the
# interpreter's limit (4300 by default) with a message of its own
_MAX_GENERATOR_DIGITS = len(str(MAX_GENERATOR))

_XYZ = "xyz"

WHITESPACE = " \t\n\r\v\f"
_BLANKS = re.compile("[%s]+" % WHITESPACE)
_INTEGER = re.compile("[+-]?[0-9]+")


class WordError(ValueError):
    pass


def _check_letters(letters):
    for v in letters:
        # `type` rejects bool and other int subclasses, which the pure
        # kernel would keep as they are and the compiled one would not
        if type(v) is not int or v == 0:
            raise WordError("letters must be nonzero integers, got %r" % (v,))
        if abs(v) > MAX_GENERATOR:
            raise WordError("generator index %d exceeds %d" % (abs(v), MAX_GENERATOR))


class Word:
    """A freely reduced word.  Construction reduces the input."""

    __slots__ = ("_letters",)

    def __init__(self, letters=()):
        if isinstance(letters, Word):
            self._letters = letters._letters
            return
        letters = tuple(letters)
        _check_letters(letters)
        self._letters = _kernel.reduce_word(letters)

    @classmethod
    def _from_reduced(cls, letters):
        """Trusted constructor: a Word of a tuple of letters that is
        already freely reduced and in range; nothing is checked."""
        out = cls.__new__(cls)
        out._letters = letters
        return out

    @property
    def letters(self):
        return self._letters

    def __len__(self):
        return len(self._letters)

    def __iter__(self):
        return iter(self._letters)

    def __getitem__(self, idx):
        got = self._letters[idx]
        return Word(got) if isinstance(idx, slice) else got

    def __bool__(self):
        return bool(self._letters)

    def __eq__(self, other):
        if isinstance(other, Word):
            return self._letters == other._letters
        return NotImplemented

    def __hash__(self):
        return hash(self._letters)

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return Word._from_reduced(_kernel.reduce_word(self._letters + other._letters))

    def __pow__(self, n):
        if type(n) is not int:   # not a bool either
            return NotImplemented
        base = self if n >= 0 else self.inverse()
        # free reduction is confluent, so reducing the concatenation once
        # equals reducing after every factor
        return Word._from_reduced(_kernel.reduce_word(base._letters * abs(n)))

    def inverse(self):
        return Word._from_reduced(_kernel.invert_word(self._letters))

    def max_generator(self):
        """Largest generator index mentioned (0 for the empty word)."""
        return max((abs(v) for v in self._letters), default=0)

    def __str__(self):
        return format_word(self)

    def __repr__(self):
        return "Word(%r)" % (format_word(self),)


def reduce_word(letters):
    """Freely reduce a raw letter sequence.

    >>> reduce_word([1, -1, 2]).letters
    (2,)
    """
    return Word(letters)


def invert(w):
    """Inverse word: invert(w) * w is empty."""
    return Word(w).inverse()


def conjugate(w, c):
    """Conjugate of w by c, i.e. c * w * c^-1."""
    w, c = Word(w), Word(c)
    return c * w * c.inverse()


def cyclic_reduce(w):
    """Split w as conjugator * core * conjugator^-1 with the core
    cyclically reduced (first and last letters not inverse).

    >>> conj, core = cyclic_reduce(parse_word("xxyX"))
    >>> str(conj), str(core)
    ('x', 'xy')
    """
    letters = Word(w).letters
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i += 1
        j -= 1
    return Word._from_reduced(letters[:i]), Word._from_reduced(letters[i:j + 1])


def map_generators(relators, images):
    """Apply the generator map k -> images[k] to relator letter tuples.

    Every letter k becomes the letter tuple images[k] and -k its inverse;
    generators without an image stay.  Each result is freely reduced.

    >>> map_generators(((1, 2), (1, -2)), {1: (1, -2)})
    ((1,), (1, -2, -2))
    """
    table = {}
    for k, image in images.items():
        table[k] = image
        table[-k] = _kernel.invert_word(image)
    get = table.get
    reduce_word = _kernel.reduce_word
    out = []
    for r in relators:
        letters = []
        for v in r:
            image = get(v)
            if image is None:
                letters.append(v)
            else:
                letters.extend(image)
        out.append(reduce_word(tuple(letters)))
    return tuple(out)


def substitute(w, target, replacement):
    """Replace every occurrence of generator `target` (and its inverse)
    in w by `replacement` (resp. its inverse), then reduce."""
    if type(target) is not int or target < 1:
        raise WordError("target generator index must be an int >= 1, got %r" % (target,))
    (letters,) = map_generators((Word(w).letters,), {target: Word(replacement).letters})
    return Word._from_reduced(letters)


def exponent_sums(w, rank):
    """Vector of generator exponent sums of w over generators 1..rank.

    >>> exponent_sums(parse_word("YXYxyx"), 2)
    (1, -1)
    """
    if type(rank) is not int:
        raise WordError("rank must be an int, got %r" % (rank,))
    if rank < 0:
        raise WordError("rank must be >= 0, got %d" % rank)
    w = Word(w)
    if w.max_generator() > rank:
        raise WordError(
            "word mentions generator %d beyond rank %d" % (w.max_generator(), rank))
    sums = [0] * rank
    for v in w:
        sums[abs(v) - 1] += 1 if v > 0 else -1
    return tuple(sums)


def parse_int(text):
    """The integer of ASCII decimal text: an optional sign and digits,
    between WHITESPACE.  ValueError for anything else.

    >>> parse_int(" -12\\n")
    -12
    """
    digits = text.strip(WHITESPACE)
    if _INTEGER.fullmatch(digits):
        try:
            return int(digits)
        except ValueError:   # beyond the interpreter's digit limit
            pass
    raise ValueError("not a decimal integer: %r" % (text,))


def split_fields(text):
    """The fields of text between runs of WHITESPACE.

    >>> split_fields(" 0 1\\t-1 ")
    ['0', '1', '-1']
    """
    return [field for field in _BLANKS.split(text) if field]


def parse_word(text):
    """Parse the text form of a word; the result is freely reduced.

    >>> parse_word("xyX").letters
    (1, 2, -1)
    >>> parse_word("g12 G12")
    Word('')
    """
    if not text.isascii():
        # str methods below would read non-ASCII letters, digits and spaces too
        raise WordError("unknown character %r in word text"
                        % (next(ch for ch in text if not ch.isascii()),))
    letters = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in WHITESPACE:
            i += 1
            continue
        low = ch.lower()
        sign = 1 if ch.islower() else -1
        if low == "g" and i + 1 < n and text[i + 1].isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            digits = text[i + 1:j].lstrip("0")
            if len(digits) > _MAX_GENERATOR_DIGITS:
                raise WordError("escaped generator index overflows: %s" % text[i:j])
            idx = int(digits or "0")
            if idx < 1:
                raise WordError("escaped generator index must be >= 1: %s" % text[i:j])
            if idx > MAX_GENERATOR:
                raise WordError("escaped generator index overflows: %s" % text[i:j])
            letters.append(sign * idx)
            i = j
        elif low in _XYZ:
            letters.append(sign * (_XYZ.index(low) + 1))
            i += 1
        elif "a" <= low <= "w":
            letters.append(sign * (4 + ord(low) - ord("a")))
            i += 1
        else:
            raise WordError("unknown character %r in word text" % (ch,))
    return Word(letters)


def format_word(w, alphabet=None):
    """Text form of a word.

    With the default alphabet, words over generators 1..3 print as
    x/y/z (uppercase for inverses) and anything beyond prints in the
    escaped g-form.  `alphabet` overrides the generator names: a
    sequence whose entry k-1 names generator k; WordError if it names
    too few.
    """
    w = Word(w)
    if not w.letters:
        return ""
    parts = []
    top = w.max_generator()
    if alphabet is not None and top > len(alphabet):
        raise WordError("generator %d has no name in an alphabet of length %d"
                        % (top, len(alphabet)))
    for v in w:
        k = abs(v)
        if alphabet is not None:
            name = alphabet[k - 1]
        elif top <= 3:
            name = _XYZ[k - 1]
        else:
            name = "g%d" % k
        parts.append(name.upper() if v < 0 else name)
    return "".join(parts)
