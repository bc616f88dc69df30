"""Selects the word kernel at import time.

The compiled kernel (`_kernel_c`, built from the hand-written
`_kernel_c.c`) is preferred; the pure-Python twin (`_kernel_py`) is the
fallback.  Set ACKIRBY_PURE=1 to force the fallback, e.g. to compare
results or benchmark.  A compiled module that lacks any of its five
functions counts as absent, so a stale build falls back too, as does
one whose recorded `SOURCE_CRC32` is not that of a `_kernel_c.c` beside it.

The kernel is eight functions, and this is the one list of where each
comes from.  The five on the library's hot paths come from the selected
module: `reduce_word`, `canonical_relator`, `sort_relators`,
`expand_multiply` and `expand_level`, which a search calls once per
level.  `invert_word`, which is not hot, and the packed-state codec,
`pack_state` and `unpack_state`, which a search calls only a few times,
come from `_kernel_py` on both backends, with `MAX_PACKED_GENERATOR`,
the largest generator a packed key holds.
What every function computes is stated once, in `_kernel_py`.
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
        canonical_relator, expand_level, expand_multiply, reduce_word, sort_relators,
    )
    BACKEND = "c"
except ImportError:
    from ackirby._kernel_py import (
        canonical_relator, expand_level, expand_multiply, reduce_word, sort_relators,
    )
    BACKEND = "python"
from ackirby._kernel_py import MAX_PACKED_GENERATOR, invert_word, pack_state, unpack_state
