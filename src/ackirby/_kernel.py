"""Selects the word kernel at import time.

The compiled kernel (`_kernel_c`, built from the hand-written
`_kernel_c.c`) is preferred; the pure-Python twin (`_kernel_py`) is the
fallback.  Set ACKIRBY_PURE=1 to force the fallback, e.g. to compare
results or benchmark.

Both kernels apply the search's length budget inside
`expand_multiply(ci, cj, max_len)`: a product whose cyclically reduced
core is longer than max_len is dropped before it is canonicalized.
Both define the canonical relator order in `sort_relators`.
"""

import os

if os.environ.get("ACKIRBY_PURE"):
    from ackirby import _kernel_py as _impl
    BACKEND = "python"
else:
    try:
        from ackirby import _kernel_c as _impl
        BACKEND = "c"
    except ImportError:
        from ackirby import _kernel_py as _impl
        BACKEND = "python"

letter_key = _impl.letter_key
reduce_word = _impl.reduce_word
reduce_concat = _impl.reduce_concat
invert_word = _impl.invert_word
cyclic_split = _impl.cyclic_split
canonical_rotation = _impl.canonical_rotation
canonical_relator = _impl.canonical_relator
sort_relators = _impl.sort_relators
expand_multiply = _impl.expand_multiply
