"""Trajectory rows: fixed `ackirby search` runs, each in a fresh process.

    python bench/trajectory.py [--tree DIR ...] [--backend c|python ...]
                               [--row NAME ...] [--repeat N] [--out FILE]

Each row runs `python -m ackirby.cli search ARGS --format json` with
DIR/src on PYTHONPATH (DIR defaults to this checkout), on the compiled
kernel (backend `c`; build it first with `python setup.py build_ext
--inplace` in DIR) or on the pure-Python one (`ACKIRBY_PURE=1`).  Each
row names the backends it runs on; --backend picks among those.  With
several --tree values, each row runs on every tree back to back, in the
order given.  With --repeat N (default 1) each row's search runs N
times back to back.  A row records the search's status, visited classes
and depth reached once (it fails if a run disagrees), the median, min
and max of its wall time and of the child's CPU time over the runs, the
highest peak RSS (`ru_maxrss`), the backend that actually ran, and the
commit of DIR.

A speed claim diffs rows from one invocation, for instance
`--tree PARENT --tree CHANGE --repeat 5`, with equal status and visited
counts; a short row needs the repeats, since the host's speed drifts
from one run to the next.  Rows taken at different times may differ by
the speed of the host alone, which no row records.

With --out the rows are appended to that JSON list (created if absent);
without it they are printed, one JSON object a line.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PREFIX = "<gersten prefix>"   # replaced by the path of the prefix certificate

BACKENDS = ("c", "python")

# name -> (`ackirby search` arguments, backends the row runs on)
ROWS = {
    "criterion-3": (("--family", "n=2", "--prefix", PREFIX,
                     "--max-len", "15", "--max-depth", "24"), BACKENDS),
    "n1-L15-D24": (("--family", "n=1", "--max-len", "15", "--max-depth", "24"), BACKENDS),
    "n3-L17-D6": (("--family", "n=3", "--max-len", "17", "--max-depth", "6"), BACKENDS),
    # the whole L=17 graph: D=6 stops at the depth cap, D=40 does not
    "n3-L17-D40": (("--family", "n=3", "--max-len", "17", "--max-depth", "40"), BACKENDS),
    "n3-L18-D24": (("--family", "n=3", "--max-len", "18", "--max-depth", "24"), BACKENDS),
    # the extended regime, where generator basis changes add edges
    "n2-ext-L14-D24": (("--family", "n=2", "--regime", "extended",
                        "--max-len", "14", "--max-depth", "24"), BACKENDS),
    # The n=3 frontier: whole class graphs of millions of classes, whose
    # frontier runs out well within the depth cap.  The pure kernel would
    # take hours on them, so they run compiled only.
    "n3-L19-D40": (("--family", "n=3", "--max-len", "19", "--max-depth", "40",
                    "--capacity", "40000000"), ("c",)),
    "n3-ext-L15-D60": (("--family", "n=3", "--regime", "extended",
                        "--max-len", "15", "--max-depth", "60"), ("c",)),
    "n3-ext-L16-D60": (("--family", "n=3", "--regime", "extended",
                        "--max-len", "16", "--max-depth", "60",
                        "--capacity", "10000000"), ("c",)),
}


def _env(tree, backend):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("ACKIRBY_PURE", None)
    if backend == "python":
        env["ACKIRBY_PURE"] = "1"
    return env


def _git(tree, *args):
    return subprocess.run(["git", "-C", str(tree)] + list(args), capture_output=True,
                          text=True, check=True).stdout.strip()


def _run_search(cmd, env):
    """Run one search command; return its exit code, stdout, stderr,
    wall time and resource usage."""
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return code, out.read(), err.read(), wall, usage


def _spread(name, values):
    """The median, min and max of a row's samples, in seconds."""
    return {name: round(statistics.median(values), 3),
            name + "_min": round(min(values), 3), name + "_max": round(max(values), 3)}


def run_row(name, tree, backend, prefix, repeat=1):
    """Run one row's search `repeat` times back to back, each in a fresh
    process, and return the row; `prefix` is the path of the Gersten
    prefix certificate."""
    env = _env(tree, backend)
    active = subprocess.run([sys.executable, "-c", "import ackirby; print(ackirby.BACKEND)"],
                            env=env, capture_output=True, text=True, check=True).stdout.strip()
    if active != backend:
        raise SystemExit("backend %s requested, but %s ran in %s; is the compiled kernel "
                         "built in place?" % (backend, active, tree))
    argv = [str(prefix) if a == PREFIX else a for a in ROWS[name][0]]
    cmd = [sys.executable, "-m", "ackirby.cli", "search"] + argv + ["--format", "json"]
    searches, walls, cpus, rss = set(), [], [], []
    for _ in range(repeat):
        code, text, err, wall, usage = _run_search(cmd, env)
        if code not in (0, 1, 3):   # found, exhausted, inconclusive
            raise SystemExit("%s on %s exited %d:\n%s" % (name, backend, code, err))
        outcome = json.loads(text)["outcome"]
        searches.add((outcome["status"], outcome["stats"]["visited"],
                      outcome["stats"]["depth_reached"]))
        walls.append(wall)
        cpus.append(usage.ru_utime + usage.ru_stime)
        rss.append(usage.ru_maxrss)
    if len(searches) != 1:
        raise SystemExit("%s on %s: the runs differ in (status, visited, depth): %s"
                         % (name, backend, sorted(searches)))
    ((status, visited, depth),) = searches
    return {
        "row": name,
        "argv": list(ROWS[name][0]),
        "backend": active,
        "commit": _git(tree, "rev-parse", "HEAD"),
        "dirty": bool(_git(tree, "status", "--porcelain", "--", "src", "setup.py")),
        "date": datetime.date.today().isoformat(),
        "status": status,
        "visited": visited,
        "depth_reached": depth,
        "repeat": repeat,
        **_spread("wall_s", walls),
        **_spread("cpu_s", cpus),
        "peak_rss_mb": round(max(rss) / 1024, 1),   # ru_maxrss is in KiB
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % value)
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, action="append",
                        help="checkout whose src/ is run (repeatable; default: this one)")
    parser.add_argument("--backend", choices=BACKENDS, action="append",
                        help="kernel to run on (repeatable; default each of the row's)")
    parser.add_argument("--row", choices=sorted(ROWS), action="append",
                        help="row to run (repeatable; default all)")
    parser.add_argument("--repeat", type=_positive_int, default=1,
                        help="runs of each row, back to back (default 1)")
    parser.add_argument("--out", type=Path, help="JSON list to append the rows to")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.tree or [ROOT]]
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / "prefix.json"
        subprocess.run([sys.executable, "-m", "ackirby.cli", "family", "gersten",
                        "--prefix-only", "--cert-out", str(prefix)],
                       env=_env(trees[0], "python"), check=True, capture_output=True)
        for name in args.row or ROWS:
            for backend in [b for b in ROWS[name][1] if b in (args.backend or BACKENDS)]:
                for tree in trees:
                    row = run_row(name, tree, backend, prefix, args.repeat)
                    rows.append(row)
                    print(json.dumps(row, sort_keys=True), flush=True,
                          file=sys.stderr if args.out else sys.stdout)
    if args.out:
        old = json.loads(args.out.read_text()) if args.out.exists() else []
        args.out.write_text(json.dumps(old + rows, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
