import zlib
from pathlib import Path

from setuptools import Extension, setup

# The compiled kernel is one hand-written C source against the CPython
# API; edit `_kernel_c.c` itself.  The extension is optional: without a
# C compiler the package installs and runs on the pure-Python kernel.
# The build records the source's CRC-32, so `_kernel` can tell it stale.
SOURCE = "src/ackirby/_kernel_c.c"
setup(ext_modules=[Extension("ackirby._kernel_c", [SOURCE],
                             define_macros=[("SOURCE_CRC32", '"%08x"' % zlib.crc32(
                                 Path(SOURCE).read_bytes()))],
                             extra_compile_args=["-O2"], optional=True)])
