"""Parity of the compiled word kernel with the pure-Python one.

The compiled kernel is optional and a source checkout does not contain
it, so these tests build it: `setup.py build` compiles `_kernel_c` from
the hand-written `_kernel_c.c` into a complete package in a temporary
directory, with `-Wall`, and any compiler warning fails the build.  The
function tests load that `_kernel_c` without registering it in
`sys.modules`, so the rest of the suite keeps the kernel it selected;
the selection and whole-search tests run fresh interpreters on the
built package.  The fallback from an incomplete or stale compiled
kernel, and the budget and relator-order tests at the end, need no
compiler: the latter run on whichever kernel `ackirby._kernel` selected.
"""

import gc
import importlib.util
import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
import zlib
from itertools import repeat
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ackirby import _kernel
from ackirby import _kernel_py as pk
from ackirby.words import MAX_GENERATOR

ROOT = Path(__file__).resolve().parents[1]
KERNEL_SO = "_kernel_c" + sysconfig.get_config_var("EXT_SUFFIX")


def _can_compile():
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or ""
    header = Path(sysconfig.get_paths()["include"]) / "Python.h"
    return bool(cc) and shutil.which(shlex.split(cc)[0]) is not None \
        and header.exists()


needs_compiler = pytest.mark.skipif(
    not _can_compile(), reason="no C compiler or no Python.h to build _kernel_c")

generators = st.one_of(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=MAX_GENERATOR),
    st.sampled_from((MAX_GENERATOR - 1, MAX_GENERATOR)),
)
letters = st.builds(lambda s, g: s * g, st.sampled_from((1, -1)), generators)
raw_words = st.lists(letters, max_size=24).map(tuple)


def canonical_words(max_size=10):
    return st.lists(letters, max_size=max_size).map(
        lambda ls: pk.canonical_relator(tuple(ls)))


# 0-4 relators drawn from a pool of raw words, so duplicates are common;
# each is a fresh tuple, so a stable sort is told apart by identity
relator_lists = st.lists(raw_words, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=4)).map(
    lambda ws: [tuple(list(w)) for w in ws])


def reference_relator_key(w):
    """The canonical relator order, written out: length, then letter by
    letter with g1 < g1^-1 < g2 < g2^-1 < ..."""
    return len(w), [(abs(v), v < 0) for v in w]


@pytest.fixture(scope="session")
def built_tree(tmp_path_factory):
    """Directory holding an `ackirby` package with `_kernel_c` compiled
    by `setup.py build` with `-Wall`; the compiler must print no warning,
    and the build leaves nothing in the checkout."""
    out = tmp_path_factory.mktemp("ackirby-build")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q",
         "egg_info", "--egg-base", str(out),
         "build", "--build-base", str(out / "build"),
         "--build-lib", str(out / "lib")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, CFLAGS="-Wall"))
    lib = out / "lib"
    log = proc.stdout + proc.stderr
    assert proc.returncode == 0 and (lib / "ackirby" / KERNEL_SO).exists(), \
        "building _kernel_c failed:\n" + log
    warnings = re.findall(r"^\S+: warning: .*$", log, re.MULTILINE)
    assert not warnings, "compiling _kernel_c warned:\n" + "\n".join(warnings)
    return lib


@pytest.fixture(scope="session")
def ck(built_tree):
    """The built compiled kernel, loaded outside `sys.modules`."""
    spec = importlib.util.spec_from_file_location(
        "ackirby._kernel_c", built_tree / "ackirby" / KERNEL_SO)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run_py(code, pure, tree):
    """Run `code` in a fresh interpreter that imports ackirby from `tree`."""
    env = dict(os.environ, PYTHONPATH=str(tree))
    if pure:
        env["ACKIRBY_PURE"] = "1"
    else:
        env.pop("ACKIRBY_PURE", None)
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tree,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


class TestSelection:
    @needs_compiler
    def test_compiled_backend_is_default(self, built_tree):
        out = run_py("import ackirby; print(ackirby.BACKEND); print(ackirby.__file__)",
                     pure=False, tree=built_tree)
        backend, where = out.splitlines()
        assert Path(where).is_relative_to(built_tree)
        assert backend == "c"

    @needs_compiler
    def test_env_forces_pure_backend(self, built_tree):
        out = run_py("import ackirby; print(ackirby.BACKEND)",
                     pure=True, tree=built_tree)
        assert out.strip() == "python"

    @needs_compiler
    def test_kernel_matches_selected_backend(self, built_tree):
        out = run_py("from ackirby import _kernel, _kernel_c\n"
                     "print(_kernel.reduce_word is _kernel_c.reduce_word)",
                     pure=False, tree=built_tree)
        assert out.strip() == "True"

    def test_incomplete_compiled_kernel_falls_back(self, tmp_path):
        """A `_kernel_c` that lacks one of the kernel functions, such as a
        build of an older `_kernel_c.c`, counts as absent."""
        shutil.copytree(ROOT / "src" / "ackirby", tmp_path / "ackirby",
                        ignore=shutil.ignore_patterns("__pycache__", "_kernel_c*"))
        (tmp_path / "ackirby" / "_kernel_c.py").write_text(
            "def reduce_word(letters):\n"
            "    raise AssertionError('the incomplete kernel was used')\n")
        out = run_py("import ackirby\n"
                     "from ackirby.family import presentation_Ln1\n"
                     "print(ackirby.BACKEND)\n"
                     "print(ackirby.search(presentation_Ln1(0), "
                     "ackirby.SearchConfig(max_total_length=9, max_depth=8)).status)",
                     pure=False, tree=tmp_path)
        assert out.split() == ["python", "found"]

    @pytest.mark.parametrize("offset, backend", [(0, "c"), (1, "python")],
                             ids=("same_source", "other_source"))
    def test_kernel_checked_against_source_beside_it(self, tmp_path, offset, backend):
        """With `_kernel_c.c` next to it, a `_kernel_c` whose recorded
        CRC-32 is not that of the file counts as absent."""
        shutil.copytree(ROOT / "src" / "ackirby", tmp_path / "ackirby",
                        ignore=shutil.ignore_patterns("__pycache__", "_kernel_c.*.so"))
        crc = zlib.crc32((tmp_path / "ackirby" / "_kernel_c.c").read_bytes())
        (tmp_path / "ackirby" / "_kernel_c.py").write_text(
            "from ackirby._kernel_py import (\n"
            "    canonical_relator, expand_multiply, invert_word, reduce_word, sort_relators)\n"
            "SOURCE_CRC32 = '%08x'\n" % (crc + offset))
        out = run_py("import ackirby; print(ackirby.BACKEND)", pure=False, tree=tmp_path)
        assert out.strip() == backend

    @needs_compiler
    def test_build_of_other_source_falls_back(self, built_tree, tmp_path):
        """A build next to a `_kernel_c.c` it was not built from, such as
        an in-place build left over from another version, is not used."""
        tree = tmp_path / "lib"
        shutil.copytree(built_tree, tree, ignore=shutil.ignore_patterns("__pycache__"))
        source = tree / "ackirby" / "_kernel_c.c"
        shutil.copyfile(ROOT / "src" / "ackirby" / "_kernel_c.c", source)
        code = "import ackirby; print(ackirby.BACKEND)"
        assert run_py(code, pure=False, tree=tree).strip() == "c"
        text = source.read_bytes()
        source.write_bytes(text[:-1] + bytes([text[-1] ^ 1]))
        assert run_py(code, pure=False, tree=tree).strip() == "python"


@needs_compiler
class TestFunctionParity:
    @settings(max_examples=400, deadline=None)
    @given(raw_words)
    def test_reduce_word(self, ck, w):
        assert pk.reduce_word(w) == ck.reduce_word(w)

    @settings(max_examples=300, deadline=None)
    @given(raw_words)
    def test_invert_word(self, ck, w):
        assert pk.invert_word(w) == ck.invert_word(w)

    @settings(max_examples=300, deadline=None)
    @given(raw_words)
    def test_canonical_relator(self, ck, w):
        assert pk.canonical_relator(w) == ck.canonical_relator(w)

    @settings(max_examples=300, deadline=None)
    @given(relator_lists)
    def test_sort_relators(self, ck, rels):
        want, got = pk.sort_relators(rels), ck.sort_relators(rels)
        assert type(got) is tuple
        assert [id(r) for r in want] == [id(r) for r in got]

    @settings(max_examples=150, deadline=None)
    @given(canonical_words(8), canonical_words(8))
    def test_expand_multiply(self, ck, ci, cj):
        want, got = pk.expand_multiply(ci, cj), ck.expand_multiply(ci, cj)
        assert list(want.items()) == list(got.items())

    @settings(max_examples=300, deadline=None)
    @given(canonical_words(8), canonical_words(8),
           st.one_of(st.none(), st.integers(min_value=0, max_value=20)))
    def test_expand_multiply_budget(self, ck, ci, cj, b):
        want, got = pk.expand_multiply(ci, cj, b), ck.expand_multiply(ci, cj, b)
        assert list(want.items()) == list(got.items())


@needs_compiler
def test_compiled_kernel_rejects_out_of_range_letters(ck):
    """The compiled kernel holds letter keys in 32 bits, so a letter
    beyond MAX_GENERATOR raises instead of wrapping."""
    calls = (lambda v: ck.canonical_relator((v, 1)),
             lambda v: ck.expand_multiply((v,), (1,)),
             lambda v: ck.expand_multiply((1,), (1, v)),
             lambda v: ck.sort_relators([(1,), (1, v)]))
    for call in calls:
        for v in (MAX_GENERATOR + 1, -MAX_GENERATOR - 1, 2**70):
            with pytest.raises(OverflowError):
                call(v)
    for v in (MAX_GENERATOR, -MAX_GENERATOR):
        assert ck.canonical_relator((v, 1)) == pk.canonical_relator((v, 1))
        assert ck.expand_multiply((v,), (1,)) == pk.expand_multiply((v,), (1,))
        rels = [(1, v), (v,), (1,), (v, 1)]
        assert ck.sort_relators(rels) == pk.sort_relators(rels)


LEAK_CALLS = 10**5
LEAK_BOUND = 64 * 1024   # bytes; one leaked tuple per call is over 4 MB


@needs_compiler
def test_compiled_kernel_does_not_leak(ck):
    """Each kernel function, called LEAK_CALLS times on fixed inputs,
    leaves the inputs' reference counts as they were and leaves no
    traced allocation behind.  The letters lie above the small-int
    cache, so every letter the kernel boxes is a fresh allocation."""
    a, b, c = 300, 301, 302
    rels = [(a, b, -a), (c,), (a, a, -b), (c,)]
    calls = (
        (ck.reduce_word, ((a, b, -b, c, -a, a),)),
        (ck.invert_word, ((a, b, -c),)),
        (ck.canonical_relator, ((b, a, -b, a, a),)),
        (ck.sort_relators, (rels,)),
        (ck.expand_multiply, (pk.canonical_relator((a, b)), (b,), 6)),
    )
    for fn, args in calls:
        watched = list(args) + [r for arg in args if isinstance(arg, list) for r in arg]
        fn(*args)
        before = [sys.getrefcount(obj) for obj in watched]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in repeat(None, LEAK_CALLS):
                fn(*args)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert [sys.getrefcount(obj) for obj in watched] == before, fn.__name__
        assert grown < LEAK_BOUND, (fn.__name__, grown)


def _libasan():
    """Path of the compiler's AddressSanitizer runtime, or None."""
    if shutil.which("gcc") is None:
        return None
    out = subprocess.run(["gcc", "-print-file-name=libasan.so"],
                         capture_output=True, text=True).stdout.strip()
    # gcc prints the bare name back when it has no such file
    return os.path.realpath(out) if os.path.isabs(out) and os.path.isfile(out) else None


LIBASAN = _libasan()
SANITIZE_SEED = 12
SANITIZE_ROUNDS = 3000
SANITIZE_SNIPPET = """
import importlib.util
import random
import sys


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


pk = load("ackirby._kernel_py", sys.argv[1])
ck = load("ackirby._kernel_c", sys.argv[2])
rng = random.Random(int(sys.argv[3]))


def word(size):
    return tuple(rng.choice((1, -1)) * rng.choice((1, 2, 3, 300, %d))
                 for _ in range(rng.randrange(size)))


for _ in range(int(sys.argv[4])):
    w = word(25)
    r = pk.reduce_word(w)
    assert ck.reduce_word(w) == r, w
    assert ck.invert_word(r) == pk.invert_word(r), r
    assert ck.canonical_relator(r) == pk.canonical_relator(r), r
    rels = [pk.reduce_word(word(9)) for _ in range(rng.randrange(5))]
    assert ck.sort_relators(rels) == pk.sort_relators(rels), rels
    ci, cj = pk.canonical_relator(word(11)), pk.canonical_relator(word(11))
    b = rng.choice((None, rng.randrange(21)))
    assert list(ck.expand_multiply(ci, cj, b).items()) == \
        list(pk.expand_multiply(ci, cj, b).items()), (ci, cj, b)
print("ok")
""" % MAX_GENERATOR


@pytest.mark.skipif(LIBASAN is None or not _can_compile(),
                    reason="no gcc with an AddressSanitizer runtime, or no Python.h")
def test_compiled_kernel_under_sanitizers(tmp_path):
    """`_kernel_c.c`, built with AddressSanitizer and UndefinedBehavior-
    Sanitizer, agrees with `_kernel_py` on seeded random calls of the
    five functions without a sanitizer report.  Python allocates with
    plain malloc (PYTHONMALLOC=malloc), so the kernel's buffers are
    checked byte for byte; any report aborts the run."""
    source = ROOT / "src" / "ackirby" / "_kernel_c.c"
    built = tmp_path / KERNEL_SO
    proc = subprocess.run(
        ["gcc", "-shared", "-fPIC", "-g", "-O1", "-fno-omit-frame-pointer",
         "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
         "-I" + sysconfig.get_paths()["include"],
         '-DSOURCE_CRC32="%08x"' % zlib.crc32(source.read_bytes()),
         str(source), "-o", str(built)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, "sanitized build failed:\n" + proc.stderr
    env = dict(os.environ, LD_PRELOAD=LIBASAN, PYTHONMALLOC="malloc",
               ASAN_OPTIONS="detect_leaks=0")
    proc = subprocess.run(
        [sys.executable, "-c", SANITIZE_SNIPPET,
         str(ROOT / "src" / "ackirby" / "_kernel_py.py"), str(built),
         str(SANITIZE_SEED), str(SANITIZE_ROUNDS)],
        env=env, capture_output=True, text=True, timeout=600)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr[-4000:]


def _public_functions(module):
    return sorted(name for name, value in vars(module).items()
                  if not name.startswith("_") and callable(value))


@needs_compiler
def test_kernels_expose_same_functions(ck):
    """A function added to one kernel but not the other, or not
    re-exported by the selecting module, fails here; so does any function
    beyond the five hot-path ones."""
    assert _public_functions(ck) == _public_functions(pk) == _public_functions(_kernel) == [
        "canonical_relator", "expand_multiply", "invert_word", "reduce_word", "sort_relators"]


SEARCH_SNIPPET = """
import json
import ackirby
from ackirby.family import presentation_Ln1
from ackirby.search import SearchConfig, outcome_to_dict, search
out = search(presentation_Ln1(%d), SearchConfig(max_total_length=%d, max_depth=%d))
print(ackirby.BACKEND)
print(json.dumps(outcome_to_dict(out), sort_keys=True))
"""


@needs_compiler
class TestWholeSearchParity:
    @pytest.mark.parametrize("n,L,D", [(0, 13, 20), (3, 13, 8)])
    def test_search_identical_across_backends(self, built_tree, n, L, D):
        code = SEARCH_SNIPPET % (n, L, D)
        c_backend, c_out = run_py(code, pure=False, tree=built_tree).split("\n", 1)
        py_backend, py_out = run_py(code, pure=True, tree=built_tree).split("\n", 1)
        assert (c_backend, py_backend) == ("c", "python")
        assert c_out == py_out


@settings(max_examples=200, deadline=None)
@given(canonical_words(8), canonical_words(8), st.integers(min_value=0, max_value=20))
def test_budget_filters_unbounded_products(ci, cj, b):
    """A budget drops exactly the children longer than it, and keeps the
    witnesses and order of the rest."""
    full = _kernel.expand_multiply(ci, cj)
    want = [(k, v) for k, v in full.items() if len(k) <= b]
    assert list(_kernel.expand_multiply(ci, cj, b).items()) == want
    assert _kernel.expand_multiply(ci, cj, None) == full


@settings(max_examples=300, deadline=None)
@given(relator_lists)
def test_sort_relators_matches_reference(rels):
    """The selected kernel's relator order is the written-out one, and the
    sort is stable and returns the objects it was given."""
    got = _kernel.sort_relators(rels)
    want = tuple(sorted(rels, key=reference_relator_key))
    assert type(got) is tuple
    assert [id(r) for r in got] == [id(r) for r in want]


def test_budget_zero_keeps_empty_child():
    assert list(_kernel.expand_multiply((1,), (1,), 0).items()) == [((), (0, -1, 0))]
    assert _kernel.expand_multiply((1, 2), (1,), 0) == {}
