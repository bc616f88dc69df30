"""Kernel micro pass: the three hot word-kernel functions on a fixed
seeded input set, timed on every kernel backend that imports.

A backend that does not import is reported as absent; when two backends
import, their outputs must agree on every input.
"""

import importlib
import random
import time

BACKEND_MODULES = (("python", "ackirby._kernel_py"), ("c", "ackirby._kernel_c"))
FUNCTIONS = ("reduce_word", "canonical_relator", "expand_multiply")
WORDS = 600           # random words for reduce_word and canonical_relator
MAX_LEN = 32          # letters per random word, at most
PAIRS = 150           # relator pairs for expand_multiply
PAIR_LEN = 8          # letters per canonical relator of a pair, at most
REPEAT = 3            # passes per function; the best one counts


def available_backends():
    """{backend name: module} for every kernel that imports."""
    found = {}
    for name, module in BACKEND_MODULES:
        try:
            found[name] = importlib.import_module(module)
        except ImportError:
            pass
    return found


def make_inputs(seed):
    """Argument tuples per function.  Words are random letter sequences
    over three generators; expand_multiply gets pairs of canonical
    relators of at most PAIR_LEN letters."""
    from ackirby import _kernel

    rng = random.Random("kernel-micro/%d" % seed)
    raw = [tuple(rng.choice((1, -1)) * rng.randrange(1, 4)
                 for _ in range(rng.randrange(1, MAX_LEN + 1)))
           for _ in range(WORDS)]
    cores = []
    while len(cores) < 2 * PAIRS:
        core = _kernel.canonical_relator(
            tuple(rng.choice((1, -1)) * rng.randrange(1, 4)
                  for _ in range(rng.randrange(2, 2 * PAIR_LEN))))
        if 0 < len(core) <= PAIR_LEN:
            cores.append(core)
    return {
        "reduce_word": [(w,) for w in raw],
        "canonical_relator": [(w,) for w in raw],
        "expand_multiply": list(zip(cores[0::2], cores[1::2])),
    }


def _best_time(fn, args_list):
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def run(seed):
    """Returns ({fn: {backend: best seconds}}, [parity problems]); a
    backend that does not import has no entry."""
    backends = available_backends()
    inputs = make_inputs(seed)
    times = {fn: {} for fn in FUNCTIONS}
    problems = []
    for fn in FUNCTIONS:
        for name, module in backends.items():
            times[fn][name] = _best_time(getattr(module, fn), inputs[fn])
        outputs = {name: [getattr(module, fn)(*args) for args in inputs[fn]]
                   for name, module in backends.items()}
        for name, out in outputs.items():
            if out != next(iter(outputs.values())):
                problems.append("%s: backend %s disagrees" % (fn, name))
    return times, problems
