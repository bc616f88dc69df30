"""Selects the word kernel at import time.

The compiled kernel (`_kernel_c`, built from the hand-written
`_kernel_c.c`) is preferred; the pure-Python twin (`_kernel_py`) is the
fallback.  Set ACKIRBY_PURE=1 to force the fallback, e.g. to compare
results or benchmark.  A compiled module that lacks any of the five
functions counts as absent, so a stale build falls back too.

The kernel is the five functions the library calls on its hot paths:
`reduce_word`, `invert_word`, `canonical_relator`, `sort_relators` and
`expand_multiply`.  Both kernels apply the search's length budget inside
`expand_multiply(ci, cj, max_len)`: a product whose cyclically reduced
core is longer than max_len is dropped before it is canonicalized.
Both define the canonical relator order in `sort_relators`.
"""

import os

try:
    if os.environ.get("ACKIRBY_PURE"):
        raise ImportError("ACKIRBY_PURE is set")
    from ackirby._kernel_c import (
        canonical_relator, expand_multiply, invert_word, reduce_word, sort_relators,
    )
    BACKEND = "c"
except ImportError:
    from ackirby._kernel_py import (
        canonical_relator, expand_multiply, invert_word, reduce_word, sort_relators,
    )
    BACKEND = "python"
