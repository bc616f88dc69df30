"""Selects the word kernel at import time.

The compiled kernel (`_kernel_c`, built from the hand-written
`_kernel_c.c`) is preferred; the pure-Python twin (`_kernel_py`) is the
fallback.  Set ACKIRBY_PURE=1 to force the fallback, e.g. to compare
results or benchmark.  A compiled module that lacks any of the five
functions counts as absent, so a stale build falls back too, as does
one whose recorded `SOURCE_CRC32` is not that of a `_kernel_c.c` beside it.

The kernel is the five functions the library calls on its hot paths:
`reduce_word`, `invert_word`, `canonical_relator`, `sort_relators` and
`expand_multiply`.  Both kernels apply the search's length budget inside
`expand_multiply(ci, cj, max_len)`: a product whose cyclically reduced
core is longer than max_len is dropped before it is canonicalized.
Both define the canonical relator order in `sort_relators`.
"""

import os
import zlib

try:
    if os.environ.get("ACKIRBY_PURE"):
        raise ImportError("ACKIRBY_PURE is set")
    from ackirby import _kernel_c
    _source = os.path.join(os.path.dirname(_kernel_c.__file__), "_kernel_c.c")
    if os.path.exists(_source):
        with open(_source, "rb") as _fh:
            if getattr(_kernel_c, "SOURCE_CRC32", None) != "%08x" % zlib.crc32(_fh.read()):
                raise ImportError("_kernel_c was built from another _kernel_c.c")
    from ackirby._kernel_c import (
        canonical_relator, expand_multiply, invert_word, reduce_word, sort_relators,
    )
    BACKEND = "c"
except ImportError:
    from ackirby._kernel_py import (
        canonical_relator, expand_multiply, invert_word, reduce_word, sort_relators,
    )
    BACKEND = "python"
