#!/usr/bin/env python3
"""ackirby benchmark: one workload per run, every output checked.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is built in place first
(`setup.py build_ext --inplace`, on every run; it is incremental and
untimed) and imported from `src/`.  Workloads (see workloads.py):

  found-n1     search --family n=1 --max-len 13 --max-depth 24
  exhaust-n3   search --family n=3 --max-len 16 --max-depth 8 --workers 2
  extended-n2  search --family n=2 --regime extended --max-len 12 --max-depth 6
  calculus     seeded move-calculus rounds: certificate replay, move walks,
               Kirby slides, slope enumeration

One iteration is one in-process `ackirby.cli.main(argv)` call with
stdout captured, or one calculus round.  Iterations run in a closed loop
until the next one would end after S seconds (at least one runs), and
every result is checked against its pins.

--trace 0 prints the end-to-end metrics (solve_s, cpu_s, peak_rss_mb,
setup_s, ok_ratio); the times are scaled to a fixed machine speed by the
reference task of speed.py, and the line before the environment gives
their raw medians.  --trace 1 first measures untraced iterations for
half the window (for exhaust-n3 also one at 1 worker, for the pool
speedup), then traces iterations for the rest (exhaust-n3 at 1 worker,
since spans in pool workers are invisible here), runs the kernel micro
pass, and prints the per-layer metrics; spans, per-level search records
and the environment go to .bench_out/.  The last stdout line is always
the JSON result; the line before it records the environment.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 15
BUILD_TIMEOUT_S = 600


def build():
    """Build the package in place.  A failed build leaves the
    pure-Python kernel in use; the result records which kernel ran."""
    BUILD_DIR.mkdir(exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
             "--build-temp", str(BUILD_DIR / "temp")],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("build: timed out", file=sys.stderr)
        return False
    if proc.returncode != 0:
        print("build failed:\n" + proc.stdout, file=sys.stderr)
        return False
    return True


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "ackirby").glob("*")):
        if path.suffix in (".py", ".pyx", ".c") and path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(args, build_ok):
    import ackirby
    from kernel_micro import available_backends
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": ackirby.BACKEND,
        "kernel_c_imports": "c" in available_backends(),
        "build_ok": build_ok,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_sample(workload, seed):
    """(start, wall seconds) of a fresh interpreter importing ackirby.cli
    (kernel selection included) and building the start input."""
    from workloads import SEARCHES
    if workload in SEARCHES:
        build_input = ("from ackirby.family import presentation_Ln1\n"
                       "presentation_Ln1(%d)\n" % SEARCHES[workload].n)
    else:
        build_input = ("import workloads\n"
                       "workloads.calculus_inputs(%d, 0)\n" % seed)
    start = time.perf_counter()
    # no timeout: waiting with one polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import ackirby.cli\n" + build_input],
                   cwd=ROOT, env=child_env(), check=True, stdin=subprocess.DEVNULL)
    return start, time.perf_counter() - start


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def current_rss_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_bytes():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Runner:
    """Runs and checks iterations of one workload, keeping samples.
    With a tracer, building inputs and checking results is kept out of
    the trace, so that only the program's own calls are recorded."""

    def __init__(self, workload, seed, tracer=None):
        from workloads import SEARCHES
        self.search = SEARCHES.get(workload)
        self.seed = seed
        self.tracer = tracer
        self.round_no = 0
        self.attempted = 0
        self.failed = 0
        self.outcomes = {}       # worker count -> last outcome block
        self.timed = []          # (start, wall, cpu) of every iteration

    def record(self, label, problems):
        """Count one checked result; report its problems on stderr."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print("FAIL %s: %s" % (label, p), file=sys.stderr)

    def unrecorded(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def iteration(self, argv=None):
        """One checked iteration; returns (wall seconds, cpu seconds)."""
        from workloads import calculus_inputs, calculus_round, check_search
        import ackirby.cli

        cpu0, start = cpu_seconds(), time.perf_counter()
        try:
            if self.search is None:
                with self.unrecorded():
                    inputs = calculus_inputs(self.seed, self.round_no)
                self.round_no += 1
                cpu0, start = cpu_seconds(), time.perf_counter()
                problems = calculus_round(inputs)
                wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu0
            else:
                argv = list(argv or self.search.argv) + ["--seed", str(self.seed)]
                out = io.StringIO()
                cpu0, start = cpu_seconds(), time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = ackirby.cli.main(argv)
                wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu0
                with self.unrecorded():
                    problems, outcome = check_search(self.search, code, out.getvalue())
                workers = int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1
                self.outcomes[workers] = outcome
        except Exception:  # a crashing iteration is a failed one; keep measuring
            traceback.print_exc()
            problems = ["iteration raised"]
            wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu0
        self.timed.append((start, wall, cpu))
        self.record(self.search.name if self.search else "calculus", problems)
        return wall, cpu

    def loop(self, seconds, argv=None, before=None):
        """Iterate until the next iteration would end after `seconds`;
        at least once.  `before(k)` runs ahead of iteration k, untimed."""
        start, samples = time.perf_counter(), []
        while True:
            if before is not None:
                before(len(samples))
            samples.append(self.iteration(argv))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(w for w, _ in samples) > seconds:
                return samples


def end_to_end(args, runner):
    """Untraced iterations, with the set-up samples spread over the
    window so that they see the same machine as the iterations.  Returns
    the metrics, with every time scaled to the reference speed, and the
    raw medians.  Set-up time is scaled by the samples taken while the
    set-up children ran, which track it best."""
    setup, start = [], time.perf_counter()

    def sample_setup(k):
        due = 1 + SETUP_REPEATS * (time.perf_counter() - start) / args.seconds
        while len(setup) < min(due, SETUP_REPEATS):
            setup.append(setup_sample(args.workload, args.seed))

    with SpeedSampler() as sampler:
        runner.loop(args.seconds, before=sample_setup)
        while len(setup) < SETUP_REPEATS:
            setup.append(setup_sample(args.workload, args.seed))

    def scaled(start, wall, cpu):
        """Wall and CPU seconds without the reference samples taken
        meanwhile, at the reference speed."""
        end = start + wall
        taken = sampler.taken(start, end)
        factor = sampler.factor([(start, end)])
        return (wall - taken) * factor, (cpu - taken) * factor

    solve = [scaled(*t) for t in runner.timed]
    metrics = {
        "solve_s": (statistics.median(w for w, _ in solve), "s"),
        "cpu_s": (statistics.median(c for _, c in solve), "s"),
        "peak_rss_mb": (peak_rss_bytes() / 2 ** 20, "MB"),
        "setup_s": (statistics.median(w for _, w in setup)
                    * sampler.factor([(s, s + w) for s, w in setup], near_s=0), "s"),
        "ok_ratio": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
    }
    raw = {
        "iterations": len(runner.timed),
        "solve_s": statistics.median(w for _, w, _ in runner.timed),
        "cpu_s": statistics.median(c for _, _, c in runner.timed),
        "setup_s": statistics.median(w for _, w in setup),
        "reference_s": statistics.median(sampler.times) if sampler.times else None,
        "reference_samples": len(sampler.times),
    }
    return metrics, raw


def per_layer(args, runner):
    """Untraced iterations for half the window, then traced ones for
    the rest, then the kernel micro pass."""
    import kernel_micro

    wl = runner.search
    start = time.perf_counter()
    rss0 = current_rss_bytes()
    first = runner.iteration()
    outcome = runner.outcomes.get(wl.workers) if wl else None
    visited = outcome["stats"]["visited"] if outcome else 0
    bytes_per_state = (peak_rss_bytes() - rss0) / visited if visited else 0.0

    traced_argv = None
    speedup = 1.0        # a workload that runs at one worker has no pool
    one_worker = None
    if wl is not None and wl.workers > 1:
        traced_argv = wl.argv_at(1)
        one_worker = runner.iteration(traced_argv)[0]
        runner.record(wl.name, [] if runner.outcomes.get(1) == runner.outcomes.get(wl.workers)
                      else ["outcome differs between 1 and %d workers" % wl.workers])
    rest = args.seconds / 2 - (time.perf_counter() - start)
    untraced = [first] + (runner.loop(rest) if rest > first[0] else [])
    baseline = statistics.median(w for w, _ in untraced)
    if one_worker is not None:
        speedup, baseline = one_worker / baseline, one_worker

    tracer = runner.tracer.install()
    iterations = []

    def enter(k):
        tracer.iteration = k
        iterations.append(k)

    remaining = max(args.seconds - (time.perf_counter() - args.t0), 0)
    try:
        traced = runner.loop(remaining, traced_argv, before=enter)
    finally:
        tracer.iteration = None
        tracer.uninstall()

    micro, problems = kernel_micro.run(args.seed)
    runner.record("kernel micro pass", problems)

    traced_s = statistics.median(w for w, _ in traced)
    metrics = tracer.layer_metrics(iterations)
    metrics.update({
        "search.bytes_per_state": bytes_per_state,
        "search.pool.speedup": speedup,
        "trace.solve_s": traced_s,
        "trace.overhead_s": traced_s - baseline,
        "trace.missing_spans": len(tracer.missing),
    })
    # the pure twin always imports; every backend's times go to .bench_out
    for fn, by_backend in micro.items():
        metrics["kernel.micro.%s.python.s" % fn] = by_backend["python"]
    return metrics, micro


def unit_of(name):
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("bytes_per_state"):
        return "B"
    if name.endswith(("ratio", "speedup")):
        return "ratio"
    return "count"


def main(argv=None):
    from_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    args.t0 = from_start

    if not (SRC / "ackirby" / "__init__.py").is_file():
        print("error: no ackirby sources under %s; run from a checkout" % SRC, file=sys.stderr)
        return 2
    build_ok = build()
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import NAMES
    if args.workload not in NAMES:
        print("error: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(NAMES)), file=sys.stderr)
        return 2

    import ackirby.cli  # noqa: F401  (setup the timed iterations must not pay)
    env = environment(args, build_ok)
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        runner = Runner(args.workload, args.seed, tracer)
        values, micro = per_layer(args, runner)
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in sorted(values.items())}
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / ("trace-%s-seed%d.json" % (args.workload, args.seed))
        path.write_text(json.dumps(dict(tracer.dump(), env=env, micro=micro,
                                        metrics=values)))
    else:
        runner = Runner(args.workload, args.seed)
        values, raw = end_to_end(args, runner)
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
        print(json.dumps({"raw": raw}, sort_keys=True))
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
