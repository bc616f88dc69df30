from setuptools import Extension, setup

# The compiled kernel is one hand-written C source against the CPython
# API; edit `_kernel_c.c` itself.  The extension is optional: without a
# C compiler the package installs and runs on the pure-Python kernel.
setup(ext_modules=[Extension("ackirby._kernel_c", ["src/ackirby/_kernel_c.c"],
                             extra_compile_args=["-O2"], optional=True)])
