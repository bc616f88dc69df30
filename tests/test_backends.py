"""Parity of the compiled word kernel with the pure-Python one.

The compiled kernel is optional and a source checkout does not contain
it, so these tests build it: `setup.py build` compiles `_kernel_c` from
the hand-written `_kernel_c.c` into a complete package in a temporary
directory, with `-Wall`, and any compiler warning fails the build.  The
function tests load that `_kernel_c` without registering it in
`sys.modules`, so the rest of the suite keeps the kernel it selected;
the selection and whole-search tests run fresh interpreters on the
built package.  The fallback from an incomplete or stale compiled
kernel, and the budget, relator-order and packed-state tests at the
end, need no compiler: the latter run on whichever kernel
`ackirby._kernel` selected.
"""

import collections
import copy
import functools
import gc
import importlib.util
import itertools
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
import zlib
from array import array
from itertools import repeat
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ackirby import _kernel
from ackirby import _kernel_py as pk
from ackirby.family import presentation_Ln1
from ackirby.presentations import canonical_form
from ackirby.search import SearchConfig, outcome_to_dict, search
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


def packable_classes(max_size=8):
    """Classes of 0-4 canonical relators in canonical order, in the
    generators up to 127, the most a packed state holds."""
    letter = st.builds(lambda s, g: s * g, st.sampled_from((1, -1)), st.one_of(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=pk.MAX_PACKED_GENERATOR)))
    words = st.lists(letter, max_size=max_size).map(lambda ls: pk.canonical_relator(tuple(ls)))
    return st.lists(words, max_size=4).map(pk.sort_relators)


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except (OverflowError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


def reference_level(frontier, visited, max_len, extended, capacity):
    """expand_level written out as a loop over the pure kernel's per-class
    helper, pk._expand_class, for an int max_len and a bool extended."""
    fresh = []
    for parent in frontier:
        for child in pk._expand_class(parent, max_len, extended):
            if child in visited:
                continue
            if len(visited) >= capacity:
                return fresh, True
            visited[child] = parent
            fresh.append(child)
    return fresh, False


# a capacity that no class's children reach
UNCAPPED = sys.maxsize


def class_children(kernel, state, max_len, extended=False):
    """The children of one class by kernel.expand_level: a one-class
    frontier, an empty table and a capacity past the class.  This is the
    one way into either kernel's enumeration of a class's children, so
    tests compare the kernels on one class through it."""
    fresh, full = kernel.expand_level([state], {}, max_len, extended, UNCAPPED)
    assert not full
    return fresh


@functools.cache
def search_levels(n, max_len, depth, extended):
    """Each level of a search of the family member n, as (frontier,
    visited table before it), made by reference_level."""
    start = pk.pack_state(canonical_form(presentation_Ln1(n)))
    frontier, visited, levels = [start], {start: None}, []
    for _ in range(depth):
        levels.append((frontier, dict(visited)))
        frontier = reference_level(frontier, visited, max_len, extended, math.inf)[0]
    return levels


SEARCHES = ((1, 13, 4, False), (2, 13, 4, False), (3, 16, 5, False),
            (1, 12, 3, True), (2, 12, 3, True), (3, 15, 3, True))


@st.composite
def levels(draw):
    """Arguments of expand_level.  The frontier is a level of a search in
    SEARCHES, or a few raw packed states; the table holds the classes seen
    before a search level, or the first of them, or, for raw states, some
    of their children.  The capacity lies below the table's size, at it,
    within the level's new children (mid-class or between classes) or
    past them."""
    if draw(st.booleans()):
        search = draw(st.sampled_from(SEARCHES))
        _, max_len, _, extended = search
        frontier, visited = draw(st.sampled_from(search_levels(*search)))
        if draw(st.booleans()):
            visited = dict(itertools.islice(visited.items(), draw(st.integers(0, len(visited)))))
    else:
        frontier = draw(st.lists(st.binary(max_size=12).map(lambda b: b + b"\0"), max_size=4))
        if frontier and draw(st.booleans()):    # a state that may be malformed
            frontier.insert(draw(st.integers(0, len(frontier))), draw(st.binary(max_size=6)))
        max_len, extended = draw(st.integers(min_value=-2, max_value=14)), draw(st.booleans())
        children = []
        for parent in frontier:
            got = outcome(class_children, pk, parent, max_len, extended)
            children += got if isinstance(got, list) else []
        visited = dict.fromkeys(draw(st.lists(st.sampled_from(children), max_size=4))
                                if children else ())
    added = outcome(reference_level, list(frontier), dict(visited), max_len, extended,
                    math.inf)[0]
    cut = draw(st.integers(-1, len(added) + 1 if isinstance(added, list) else 1))
    return frontier, visited, max_len, extended, len(visited) + cut


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
        # the five functions of a build from before expand_level
        (tmp_path / "ackirby" / "_kernel_c.py").write_text("".join(
            "def %s(*args):\n"
            "    raise AssertionError('the incomplete kernel was used')\n" % name
            for name in ("canonical_relator", "expand_class", "expand_multiply",
                         "reduce_word", "sort_relators")))
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
            "    canonical_relator, expand_level, expand_multiply, reduce_word,\n"
            "    sort_relators)\n"
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
    # the cyclic split at its bounds: no letters, one letter, a core that
    # empties, and a one-letter conjugator
    @example(())
    @example((1,))
    @example((1, 2, -2, -1))
    @example((2, 1, 3, -2))
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

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=16), st.binary(max_size=16).map(lambda b: b + b"\0")),
           st.integers(min_value=-2, max_value=24))
    # a product of the 3-letter relator sorts before the other relator
    # but not before itself, which it replaces
    @example(b"\xf3YH\x00Y\x00", 7)
    # relators Y and X Y Y y x, the second neither freely nor cyclically
    # reduced: the early skip of over-budget products must read the ends
    # of the raw rotations, both when the seam stops short and when it
    # cancels all of the one-letter relator
    @example(b"\x04\x00\x02\x04\x04\x03\x01\x00", 5)
    def test_expand_class_raw_state(self, ck, state, max_len):
        """Both kernels read any bytes alike as a packed state, in both
        regimes, including states whose relators are not canonical or not
        in canonical order."""
        for extended in (False, True):
            assert outcome(class_children, pk, state, max_len, extended) == \
                outcome(class_children, ck, state, max_len, extended)

    @settings(max_examples=300, deadline=None)
    @given(packable_classes(max_size=7),
           st.integers(min_value=-2, max_value=24), st.booleans())
    # products x y, x Y and x z tie in length with the kept relator x Y
    # and sort before it, equal to it and after it by keys
    @example(((1,), (2,), (3,), (1, -2)), 6, False)
    def test_expand_class(self, ck, rels, max_len, extended):
        state = pk.pack_state(rels)
        assert class_children(pk, state, max_len, extended) == \
            class_children(ck, state, max_len, extended)

    @settings(max_examples=300, deadline=None)
    @given(levels())
    def test_expand_level(self, ck, level):
        """Both kernels expand a level as the loop over pk._expand_class
        does: the same fresh children, the same `full` or error, and the
        same visited items in the same order, so a child that an earlier
        parent of the level produced keeps that parent."""
        frontier, visited, max_len, extended, capacity = level
        want_visited = dict(visited)
        want = outcome(reference_level, list(frontier), want_visited, max_len, extended,
                       capacity)
        for kernel in (pk, ck):
            got_visited = dict(visited)
            got = outcome(kernel.expand_level, list(frontier), got_visited, max_len, extended,
                          capacity)
            assert got == want, kernel.__name__
            assert list(got_visited.items()) == list(want_visited.items()), kernel.__name__


@needs_compiler
@pytest.mark.parametrize(
    "state", (b"\x01", b"\x01\x00\x03", bytearray(b"\x01\x00"), "x\x00",
              b"\xff\x00", b"\x01\x00\xff\x00"),
    ids=("no_final_zero", "letters_after_zero", "bytearray", "str",
         "generator_128", "generator_128_second"))
@pytest.mark.parametrize("read", (pk.unpack_state, lambda s: class_children(pk, s, 6)),
                         ids=("unpack_state", "expand_class"))
def test_malformed_state_fails_alike(ck, read, state):
    """The compiled state reader rejects a packed state that is not bytes,
    does not end with a 0 byte, or names generator 128 (byte 255), with
    the same exception type and message as each pure one: `unpack_state`,
    the codec both backends share, and the pure kernel's enumeration of a
    class's children.  It does so in both regimes."""
    want = outcome(read, state)
    assert want[0] in (TypeError, ValueError)
    assert outcome(class_children, ck, state, 6) == \
        outcome(class_children, ck, state, 6, True) == want


@needs_compiler
@pytest.mark.parametrize("bound", (5.0, "5", None, True, 2**70, -2**70),
                         ids=("float", "str", "None", "True", "huge", "huge_negative"))
# expand_class: one class's children, through expand_level
@pytest.mark.parametrize("call", (lambda k, b: class_children(k, b"\x01\x00", b),
                                  lambda k, b: k.expand_multiply((1,), (2,), b)),
                         ids=("expand_class", "expand_multiply"))
def test_length_bound_read_alike(ck, call, bound):
    """Both kernels read a length bound as an integer (operator.index), so
    they agree on one that is not an int: each raises the same TypeError
    or returns the same children.  A bound beyond a C ssize_t admits the
    same children as any bound past the class; for expand_multiply None
    means no bound."""
    want = outcome(call, pk, bound)
    assert outcome(call, ck, bound) == want
    if isinstance(bound, (float, str)):
        assert want[0] is TypeError


@needs_compiler
@pytest.mark.parametrize("extended", (0, 1, None, "", "no", [], [0], 2.5),
                         ids=("0", "1", "None", "empty_str", "str", "empty_list", "list", "float"))
def test_extended_read_alike(ck, extended):
    """Both kernels take `extended` by its truth value, and by position
    only."""
    state = pk.pack_state([(1,), (1, 2)])
    want = class_children(pk, state, 6, bool(extended))
    for kernel in (pk, ck):
        assert class_children(kernel, state, 6, extended) == want
        with pytest.raises(TypeError):
            kernel.expand_level([state], {}, 6, extended=extended, capacity=UNCAPPED)


@needs_compiler
def test_basis_changes_need_a_packable_rank(ck):
    """Above rank 127 the basis changes name generators that a packed
    class does not hold; both kernels refuse them alike."""
    state = b"\0" * 128
    want = outcome(class_children, pk, state, 0, True)
    assert want == (OverflowError, "basis changes at rank 128 name generators above 127")
    assert outcome(class_children, ck, state, 0, True) == want
    assert class_children(ck, state, 0) == class_children(pk, state, 0) == []


LEVEL_START = pk.pack_state([(1,), (2, 2)])


@needs_compiler
@pytest.mark.parametrize("second, max_len, extended", [
    (b"\x01", 6, False), ("x\x00", 6, False), (b"\x01\x00\xff\x00", 6, True),
    # the products of the rank-127 class come before its stabilization,
    # and the basis changes at rank 128 after its products
    (b"\x01\x00" + b"\0" * 126, 6, False), (b"\x01\x00" + b"\0" * 127, 0, True)],
    ids=("no_final_zero", "str", "generator_128", "stabilize_to_128", "basis_change_at_128"))
def test_level_error_parity(ck, second, max_len, extended):
    """A level whose second state the kernels refuse raises the same
    error on both and leaves the same visited items behind: the first
    state's new children, and none of the refused state's, although
    some of those come before the reason to refuse it."""
    want_visited = {LEVEL_START: None}
    want = outcome(pk.expand_level, [LEVEL_START, second], want_visited, max_len, extended, 99)
    assert want[0] in (TypeError, ValueError, OverflowError)
    assert len(want_visited) > 1
    got_visited = {LEVEL_START: None}
    assert outcome(ck.expand_level, [LEVEL_START, second], got_visited, max_len, extended,
                   99) == want
    assert list(got_visited.items()) == list(want_visited.items())


@needs_compiler
@pytest.mark.parametrize("frontier, visited, max_len, extended, capacity", [
    ((LEVEL_START,), {}, 6, False, 9), ([LEVEL_START], [], 6, False, 9),
    ([LEVEL_START], collections.OrderedDict(), 6, False, 9),
    ([LEVEL_START], {}, 6.0, False, 9), ([LEVEL_START], {}, 6, False, 9.0),
    ([LEVEL_START], {}, 6, False, "9"), ([LEVEL_START], {}, 6, False, None),
    ([LEVEL_START], {}, 6, [0], True), ([LEVEL_START], {}, 6, False, 2**70),
    ([LEVEL_START], {}, 6, False, -2**70)],
    ids=("frontier_tuple", "visited_list", "visited_subclass", "max_len_float",
         "capacity_float", "capacity_str", "capacity_None", "capacity_True",
         "capacity_huge", "capacity_huge_negative"))
def test_level_arguments_read_alike(ck, frontier, visited, max_len, extended, capacity):
    """Both kernels take a frontier that is a list and a visited table
    that is a dict, no subclass of either, raising TypeError otherwise,
    and read the capacity as they read max_len: as an integer
    (operator.index), a huge one admitting as many classes as any
    capacity past the table."""
    want_visited, got_visited = copy.copy(visited), copy.copy(visited)
    want = outcome(pk.expand_level, frontier, want_visited, max_len, extended, capacity)
    assert outcome(ck.expand_level, frontier, got_visited, max_len, extended, capacity) == want
    assert list(got_visited) == list(want_visited)
    if type(frontier) is not list or type(visited) is not dict or \
            isinstance(max_len, float) or isinstance(capacity, (float, str, type(None))):
        assert want[0] is TypeError


@needs_compiler
@pytest.mark.parametrize("backend", ("python", "c"))
def test_huge_capacity_searches_uncapped(ck, monkeypatch, backend):
    """A dedup capacity beyond a C ssize_t searches as one that never
    fills, on both kernels."""
    monkeypatch.setattr(_kernel, "expand_level", {"python": pk, "c": ck}[backend].expand_level)
    start = presentation_Ln1(1)
    want = outcome_to_dict(search(start, SearchConfig(13, 24)))
    assert want["status"] == "found"
    assert outcome_to_dict(search(start, SearchConfig(13, 24, dedup_capacity=10**30))) == want


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
    frontier = [LEVEL_START, pk.pack_state([(1,), (1, -2, -2)])]
    large = pk.pack_state([(2, -4, 2, -4, -3, -3), (1, 3, -1, -2, -2, 3, -1, 2),
                           (1, 4, 2, 4, -1, -4, -2, -2), (1, 2, -1, -3, 2, 4, 4, -3, 4, 4, 1, -3)])

    def level(frontier, seeded, max_len, extended, capacity):
        """expand_level on a copy of the table, so that each call adds
        children, or what it raises."""
        return outcome(ck.expand_level, frontier, dict(seeded), max_len, extended, capacity)

    calls = (
        (ck.reduce_word, ((a, b, -b, c, -a, a),)),
        (ck.canonical_relator, ((b, a, -b, a, a),)),
        (ck.sort_relators, (rels,)),
        (ck.expand_multiply, (pk.canonical_relator((a, b)), (b,), 6)),
        # a class alone: a multiplication, the stabilization and a
        # destabilization
        (level, ([LEVEL_START], {}, 4, False, 10**6)),
        # and the basis changes, with a Nielsen move that cancels
        (level, ([pk.pack_state([(1,), (1, -2, -2)])], {}, 6, True, 10**6)),
        # a level, a level that fills the table, and a level whose second
        # state is malformed
        (level, (frontier, {LEVEL_START: None}, 6, True, 10**6)),
        (level, (frontier, {LEVEL_START: None}, 6, True, 4)),
        (level, ([LEVEL_START, b"\x01", LEVEL_START], {}, 6, False, 10**6)),
        # a class of 34 letters, larger than the ones above: its products
        # run past the bound, the stabilization and 11 basis changes fit
        (level, ([large], {}, 35, True, 10**6)),
    )
    for fn, args in calls:
        watched = list(args) + [r for arg in args if isinstance(arg, list) for r in arg]
        fn(*args)
        # C integers: a list of counts would hold a reference to a small
        # int it also counts, such as the bound 4
        before = array("q", map(sys.getrefcount, watched))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in repeat(None, LEAK_CALLS):
                fn(*args)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert array("q", map(sys.getrefcount, watched)) == before, fn.__name__
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
import itertools
import random
import sys


def outcome(fn, *args):
    try:
        return fn(*args)
    except (OverflowError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


pk = load("ackirby._kernel_py", sys.argv[1])
ck = load("ackirby._kernel_c", sys.argv[2])
rng = random.Random(int(sys.argv[3]))


def children(state, b, extended):
    # the distinct children of pk._expand_class, in order
    return list(dict.fromkeys(pk._expand_class(state, b, extended)))


def word(size, generators=(1, 2, 3, 300, %d)):
    return tuple(rng.choice((1, -1)) * rng.choice(generators)
                 for _ in range(rng.randrange(size)))


for _ in range(int(sys.argv[4])):
    w = word(25)
    r = pk.reduce_word(w)
    assert ck.reduce_word(w) == r, w
    assert ck.canonical_relator(r) == pk.canonical_relator(r), r
    rels = [pk.reduce_word(word(9)) for _ in range(rng.randrange(5))]
    assert ck.sort_relators(rels) == pk.sort_relators(rels), rels
    ci, cj = pk.canonical_relator(word(11)), pk.canonical_relator(word(11))
    b = rng.choice((None, rng.randrange(21)))
    assert list(ck.expand_multiply(ci, cj, b).items()) == \
        list(pk.expand_multiply(ci, cj, b).items()), (ci, cj, b)
    rels = pk.sort_relators([pk.canonical_relator(word(8, (1, 2, 3, 127)))
                             for _ in range(rng.randrange(5))])
    state = pk.pack_state(rels)
    b = rng.randrange(-2, 25)
    raw = bytes(rng.randrange(256) for _ in range(rng.randrange(12))) + b"\\0"
    # one class, on an empty table: its distinct children
    for one, extended in itertools.product((state, raw), (False, True)):
        assert outcome(ck.expand_level, [one], {}, b, extended, 10**6) == \\
            outcome(lambda: (children(one, b, extended), False)), (one, b)
    # a level, a level that fills the table, and one whose second state is
    # malformed: the same result and the same table on both kernels
    frontier = [state, pk.pack_state(pk.sort_relators(rels[1:]))]
    seeded = dict.fromkeys([state] + children(state, b, False)[:rng.randrange(3)])
    extended = rng.random() < 0.5
    for level, cap in ((frontier, 10**6), (frontier, len(seeded) + rng.randrange(4)),
                       ([state, raw + b"\\x01", state], 10**6)):
        vc, vp = dict(seeded), dict(seeded)
        assert outcome(ck.expand_level, level, vc, b, extended, cap) == \\
            outcome(pk.expand_level, level, vp, b, extended, cap), (level, b, cap)
        assert list(vc.items()) == list(vp.items()), (level, b, cap)

# A fixed class of 4 relators of about 30 letters, past the 28 letters a
# drawn class holds at most: with a bound of twice its total every
# product is kept, so the product scratch is written to its end.
fixed = random.Random(0)
rels = []
while len(rels) < 4:
    w = ()
    while len(w) < 30:
        w = pk.reduce_word(w + (fixed.choice((1, -1)) * fixed.choice((1, 2, 3, 4)),))
    rels.append(pk.canonical_relator(w))
big = pk.pack_state(pk.sort_relators(rels))
for extended in (False, True):
    b = 2 * (len(big) - len(rels))
    assert ck.expand_level([big], {}, b, extended, 10**6) == \\
        (children(big, b, extended), False), extended
print("ok")
""" % MAX_GENERATOR


@pytest.mark.skipif(LIBASAN is None or not _can_compile(),
                    reason="no gcc with an AddressSanitizer runtime, or no Python.h")
def test_compiled_kernel_under_sanitizers(tmp_path):
    """`_kernel_c`, built by `setup.py build_ext` with AddressSanitizer
    and UndefinedBehaviorSanitizer, agrees with `_kernel_py` on seeded
    random calls of its five functions without a sanitizer report.
    Python allocates with plain malloc (PYTHONMALLOC=malloc), so the
    kernel's buffers are checked byte for byte; any report aborts the
    run."""
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-temp", str(tmp_path / "temp"), "--build-lib", str(tmp_path / "lib")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env=dict(os.environ,
                 CFLAGS="-g -O1 -fno-omit-frame-pointer -fsanitize=address,undefined"
                        " -fno-sanitize-recover=all",
                 LDFLAGS="-fsanitize=address,undefined"))
    built = tmp_path / "lib" / "ackirby" / KERNEL_SO
    # the extension is optional: a failed compile still exits 0
    assert proc.returncode == 0 and built.exists(), \
        "sanitized build failed:\n" + proc.stdout + proc.stderr
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
    beyond the five hot-path ones, `invert_word` and the packed-state
    codec, which only the pure kernel defines and `_kernel` takes from it
    on both backends.  The pure kernel exports exactly what `_kernel`
    takes from it: each kernel is entered only as the search enters it."""
    hot = ["canonical_relator", "expand_level", "expand_multiply", "reduce_word",
           "sort_relators"]
    assert _public_functions(ck) == hot
    kernel = sorted(hot + ["invert_word", "pack_state", "unpack_state"])
    assert _public_functions(_kernel) == kernel
    assert _public_functions(pk) == _public_functions(_kernel)
    assert _kernel.invert_word is pk.invert_word
    assert _kernel.pack_state is pk.pack_state and _kernel.unpack_state is pk.unpack_state
    assert _kernel.MAX_PACKED_GENERATOR == ck.MAX_PACKED_GENERATOR == 127


SEARCH_SNIPPET = """
import json
import ackirby
from ackirby.family import presentation_Ln1
from ackirby.search import SearchConfig, outcome_to_dict, search
out = search(presentation_Ln1(%d),
             SearchConfig(max_total_length=%d, max_depth=%d, move_regime=%r))
print(ackirby.BACKEND)
print(json.dumps(outcome_to_dict(out), sort_keys=True))
"""


@needs_compiler
class TestWholeSearchParity:
    @pytest.mark.parametrize("n,L,D,regime", [(0, 13, 20, "strict"), (3, 13, 8, "strict"),
                                              (2, 12, 6, "extended")],
                             ids=("0-13-20", "3-13-8", "2-12-6-extended"))
    def test_search_identical_across_backends(self, built_tree, n, L, D, regime):
        code = SEARCH_SNIPPET % (n, L, D, regime)
        c_backend, c_out = run_py(code, pure=False, tree=built_tree).split("\n", 1)
        py_backend, py_out = run_py(code, pure=True, tree=built_tree).split("\n", 1)
        assert (c_backend, py_backend) == ("c", "python")
        assert c_out == py_out


@settings(max_examples=200, deadline=None)
@given(canonical_words(8), canonical_words(8), st.integers(min_value=0, max_value=20))
# the seam cancels all of x, then the ends of Y x y cancel: x . X Y x y -> x
@example((1,), (1, 2, -1, -2), 1)
# the seam cancels nothing and x y z X is over the budget, but its ends
# cancel cyclically, so y z fits
@example((1, 2), (1, -3), 2)
# the seam cancels one letter and x y fills the budget exactly: x Z . z y
@example((1, -3), (2, 3), 2)
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


@settings(max_examples=200, deadline=None)
@given(packable_classes())
def test_packed_state_round_trip(rels):
    state = _kernel.pack_state(rels)
    assert type(state) is bytes
    assert len(state) == sum(map(len, rels)) + len(rels)
    assert _kernel.unpack_state(state) == rels


def test_packed_state_format():
    """One byte per letter, its key plus one, then a 0 byte per relator."""
    assert _kernel.pack_state([(), (1, -1, 2), (127, -127)]) == \
        bytes([0, 1, 2, 3, 0, 253, 254, 0])
    assert _kernel.unpack_state(b"") == ()


@pytest.mark.parametrize("letter", (128, -128))
def test_generator_128_does_not_pack(letter):
    with pytest.raises(OverflowError, match="exceeds 127"):
        _kernel.pack_state([(1,), (1, letter)])
    # a stabilization of a rank-127 class would add generator 128
    with pytest.raises(OverflowError, match="above 127"):
        class_children(_kernel, _kernel.pack_state([()] * 127), 1)
