"""Command-line workbench over the whole library.

Each subcommand is a thin adapter: parse flags, call one library entry
point, format the result.  Structured output (--format json) is
bit-stable for identical inputs: canonical field order, no timestamps;
diagnostics and progress go to stderr only.

Exit codes: 0 success or certificate found; 1 negative result or
invalid input; 2 usage error; 3 inconclusive search.
"""

import argparse
import dataclasses
import functools
import json
import sys

from ackirby import _kernel
from ackirby.curves import (
    CurveError,
    PunctureLabeling,
    Slope,
    enumerate_candidates,
    is_candidate,
    partition,
    z3_class,
)
from ackirby.family import (
    family_report,
    gersten_certificate,
    gersten_prefix_certificate,
    presentation_from_w,
)
from ackirby.kirby import (
    blow_down,
    gpr_necessary_condition,
    is_weak_trivial_form,
    matrix_to_text,
    parse_matrix,
    slide,
)
from ackirby.presentations import (
    Presentation,
    abelianization_matrix,
    canonical_presentation,
    is_trivial_presentation,
    move_from_dict,
    move_to_dict,
    parse_presentation,
    presentation_to_text,
    replay_move,
    total_length,
)
from ackirby._intdet import integer_determinant
from ackirby.search import (
    SearchConfig,
    certificate_from_dict,
    certificate_to_dict,
    hybrid_trivialize,
    outcome_to_dict,
    search,
    verify,
)
from ackirby.words import (
    WHITESPACE,
    Word,
    cyclic_reduce,
    exponent_sums,
    format_word,
    invert,
    parse_int,
    parse_word,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


# ---------------------------------------------------------------------------
# Formatting helpers

def _dump(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


def _emit(args, doc, text_lines):
    if args.format == "json":
        print(_dump(doc))
    else:
        for line in text_lines:
            print(line)


def _emit_record(args, fields):
    """Print a flat result from its `(key, value[, text])` fields: the
    JSON object {key: value}, or one `key: text` line per field in field
    order, with `-` for `_` in the key.  The text defaults to the value,
    written `yes`/`no` for a bool.

    >>> _emit_record(argparse.Namespace(format="text"),
    ...              [("weak_trivial_form", True), ("trivial", False), ("rank", 2),
    ...               ("sums", [3, -2], "3 -2")])
    weak-trivial-form: yes
    trivial: no
    rank: 2
    sums: 3 -2
    """
    if args.format == "json":
        print(_dump({field[0]: field[1] for field in fields}))
        return
    for key, value, *text in fields:
        if not text:
            text = [_yesno(value) if isinstance(value, bool) else value]
        print("%s: %s" % (key.replace("_", "-"), text[0]))


def _move_brief(move):
    return json.dumps(move_to_dict(move), sort_keys=True, separators=(",", ":"))


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r") as fh:
        return fh.read()


def _write_cert(path, cert):
    with open(path, "w") as fh:
        print(_dump(certificate_to_dict(cert)), file=fh)
    print("wrote certificate: %s" % path, file=sys.stderr)


def _yesno(flag):
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# Shared input loaders

def _family_param(spec):
    try:
        if spec.startswith("n="):
            return parse_int(spec[2:])
    except ValueError:
        pass
    raise ValueError("family spec must look like n=2, got %r" % (spec,))


def _load_presentation(args):
    """The presentation named by the input group; only `search` has
    --family, and argparse requires one source."""
    if args.pres is not None:
        return parse_presentation(args.pres)
    if args.infile is not None:
        return parse_presentation(_read_text(args.infile))
    return presentation_from_w(_family_param(args.family), parse_word(args.family_w))


def _parse_labeling(spec):
    if spec is None:
        return None
    assignment = {}
    for item in spec.split(";"):
        item = item.strip(WHITESPACE)
        if not item:
            continue
        label, _, coords = item.partition("=")
        try:
            a, b = map(parse_int, coords.split(","))
        except ValueError:
            raise CurveError("labeling entries look like L1=0,0 — got %r" % (item,)) from None
        assignment[label.strip(WHITESPACE)] = (a, b)
    return PunctureLabeling(assignment)


def _slope_text(slope):
    return "%d/%d" % slope.direction


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_word(args):
    w = parse_word(args.word)
    if args.op == "reduce":
        _emit(args, {"word": format_word(w)}, [format_word(w)])
    elif args.op == "invert":
        v = invert(w)
        _emit(args, {"word": format_word(v)}, [format_word(v)])
    elif args.op == "cyclic":
        conj, core = cyclic_reduce(w)
        _emit_record(args, [("conjugator", format_word(conj)), ("core", format_word(core))])
    elif args.op == "canon":
        c = Word(_kernel.canonical_relator(w.letters))
        _emit(args, {"word": format_word(c)}, [format_word(c)])
    else:  # sums
        rank = args.rank if args.rank is not None else max(1, w.max_generator())
        sums = exponent_sums(w, rank)
        _emit_record(args, [("rank", rank),
                            ("sums", list(sums), " ".join(str(v) for v in sums))])
    return EXIT_OK


def _cmd_pres(args):
    P = _load_presentation(args)
    if args.op == "info":
        A = abelianization_matrix(P)
        rels = [format_word(r) for r in P.relators]
        _emit_record(args, [
            ("rank", P.rank),
            ("relators", rels, "; ".join(rels)),
            ("total_length", total_length(P)),
            ("abelianization", [list(row) for row in A],
             " | ".join(" ".join(str(v) for v in row) for row in A)),
            ("det", integer_determinant(A)),
            ("trivial", is_trivial_presentation(P)),
            ("canonical", presentation_to_text(canonical_presentation(P))),
        ])
        return EXIT_OK
    if args.op == "canon":
        P = canonical_presentation(P)
    else:  # apply
        records = json.loads(_read_text(args.moves))
        if not isinstance(records, list):
            raise ValueError("--moves must hold a JSON array of move records, got %r"
                             % (records,))
        letters = P.relator_letters
        for move in [move_from_dict(d) for d in records]:
            letters = replay_move(letters, move)
        P = Presentation._from_letters(letters)
    text = presentation_to_text(P)
    _emit(args, {"presentation": text}, [text])
    return EXIT_OK


_OUTCOME_EXIT = {"found": EXIT_OK, "exhausted": EXIT_NEGATIVE,
                 "inconclusive": EXIT_INCONCLUSIVE}


def _emit_outcome(args, start, cfg, outcome):
    """Print a search outcome in the one form asked for; the other is
    not built.  A found certificate asked for by --cert-out is written
    first, so a path that cannot be written prints no outcome."""
    if args.cert_out and outcome.found:
        _write_cert(args.cert_out, outcome.certificate)
    if args.format == "json":
        print(_dump({
            "command": "search",
            "input": presentation_to_text(start),
            "config": dict(dataclasses.asdict(cfg), seed=args.seed, workers=args.workers),
            "outcome": outcome_to_dict(outcome),
        }))
    else:
        stats = outcome.stats
        print("status: %s" % outcome.status)
        print("input: %s" % presentation_to_text(start))
        print("visited: %d" % stats.visited)
        print("frontier-peak: %d" % stats.frontier_peak)
        print("depth-reached: %d" % stats.depth_reached)
        print("max-total-length: %d" % cfg.max_total_length)
        print("max-depth: %d" % cfg.max_depth)
        print("regime: %s" % cfg.move_regime)
        print("workers: %d" % args.workers)
        print("seed: %s" % ("none" if args.seed is None else args.seed))
        if outcome.found:
            print("moves: %d" % len(outcome.certificate.moves))
            for k, move in enumerate(outcome.certificate.moves, 1):
                print("move %d: %s" % (k, _move_brief(move)))
    return _OUTCOME_EXIT[outcome.status]


def _cmd_search(args):
    start = _load_presentation(args)
    cfg = SearchConfig(
        max_total_length=args.max_len if args.max_len is not None
        else total_length(start) + 6,
        max_depth=args.max_depth,
        move_regime=args.regime,
        dedup_capacity=args.capacity,
    )

    def report(depth, visited, frontier):
        print("progress: depth=%d visited=%d frontier=%d"
              % (depth, visited, frontier), file=sys.stderr, flush=True)

    progress = report if args.progress else None
    if args.prefix is not None:
        prefix = certificate_from_dict(json.loads(_read_text(args.prefix)))
        outcome = hybrid_trivialize(start, prefix, cfg, progress)
    else:
        outcome = search(start, cfg, progress)
    return _emit_outcome(args, start, cfg, outcome)


def _cmd_verify(args):
    cert = certificate_from_dict(json.loads(_read_text(args.cert)))
    report = verify(cert, trace=True)
    if args.format == "json":
        print(_dump({
            "command": "verify",
            "start": presentation_to_text(cert.start),
            "ok": report.ok,
            "steps_applied": report.steps_applied,
            "failed_step": report.failed_step,
            "reason": report.reason,
            "final": presentation_to_text(report.final) if report.final else None,
            "trace": [{"move": move_to_dict(m), "after": presentation_to_text(p)}
                      for m, p in (report.trace or ())],
        }))
    else:
        print("start: %s" % presentation_to_text(cert.start))
        for k, (move, after) in enumerate(report.trace or (), 1):
            print("step %d: %s -> %s" % (k, _move_brief(move), presentation_to_text(after)))
        print("steps-applied: %d" % report.steps_applied)
        print("ok: %s" % _yesno(report.ok))
        if report.ok:
            print("final: %s" % presentation_to_text(report.final))
        else:
            if report.failed_step is not None:
                print("failed-step: %d" % (report.failed_step + 1))
            print("reason: %s" % report.reason)
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _cmd_family(args):
    if args.op == "show":
        P = presentation_from_w(args.n, parse_word(args.w))
        text = presentation_to_text(P)
        _emit(args, {"n": args.n, "presentation": text}, [text])
        return EXIT_OK
    if args.op == "report":
        overrides = {"move_regime": args.regime}
        if args.max_len is not None:
            overrides["max_total_length"] = args.max_len
        if args.max_depth is not None:
            overrides["max_depth"] = args.max_depth
        rows = family_report(args.n_max, **overrides)
        lines = ["n=%d total=%d det=%d status=%s visited=%d"
                 % (r["n"], r["total_length"], r["det"], r["status"], r["visited"])
                 for r in rows]
        _emit(args, {"command": "family-report", "rows": rows}, lines)
        return EXIT_OK
    # gersten
    cert = gersten_prefix_certificate() if args.prefix_only else gersten_certificate()
    if args.cert_out:
        _write_cert(args.cert_out, cert)
    else:
        print(_dump(certificate_to_dict(cert)))
    return EXIT_OK


def _cmd_kirby(args):
    M = parse_matrix(_read_text(args.infile))
    if args.op in ("slide", "blowdown"):
        M2 = (slide(M, args.component, args.over, 1 if args.sign == "+" else -1)
              if args.op == "slide" else blow_down(M, args.component))
        _emit(args, {"size": M2.size, "entries": [list(r) for r in M2.entries],
                     "kinds": list(M2.kinds)}, [matrix_to_text(M2)])
        return EXIT_OK
    if args.op == "gpr":
        ok = gpr_necessary_condition(M)
        _emit_record(args, [("det", M.determinant()), ("gpr_necessary", ok)])
        return EXIT_OK if ok else EXIT_NEGATIVE
    # weakform
    ok = is_weak_trivial_form(M)
    _emit_record(args, [("weak_trivial_form", ok)])
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_curves(args):
    labeling = _parse_labeling(args.labeling)
    if args.op == "enumerate":
        slopes = enumerate_candidates(args.height, labeling)
        doc = {"height": args.height, "count": len(slopes),
               "slopes": [list(s.direction) for s in slopes]}
        _emit(args, doc, [_slope_text(s) for s in slopes])
        return EXIT_OK
    # classify
    a, _, b = args.slope.partition("/")
    try:
        a, b = parse_int(a), parse_int(b)
    except ValueError:
        raise CurveError("slope looks like a/b, got %r" % (args.slope,)) from None
    slope = Slope(a, b)
    sides = partition(slope, labeling)
    cand = is_candidate(slope, labeling)
    _emit_record(args, [
        ("slope", list(slope.direction), _slope_text(slope)),
        ("parity", list(slope.parity), "(%d, %d)" % slope.parity),
        ("partition", [list(side) for side in sides],
         " | ".join(",".join(side) for side in sides)),
        ("z3", z3_class(slope, labeling)),
        ("candidate", cand),
    ])
    return EXIT_OK if cand else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# Parser

def _int_flag(text):
    """An integer flag's value, read by parse_int; argparse reports a
    refusal as it reports int()'s."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % (text,)) from None


def _add_format(p, default="text"):
    p.add_argument("--format", choices=("text", "json"), default=default,
                   help="output format (default %(default)s)")


def _add_budget_flags(p, len_help, depth_default, depth_help="%(default)s"):
    """--max-len, --max-depth and --regime.  --max-len defaults to None,
    which the caller fills from the start presentation as `len_help` says."""
    p.add_argument("--max-len", type=_int_flag, default=None,
                   help="total-length ceiling (default %s)" % len_help)
    p.add_argument("--max-depth", type=_int_flag, default=depth_default,
                   help="move-depth ceiling (default %s)" % depth_help)
    p.add_argument("--regime", choices=("strict", "extended"),
                   default=SearchConfig.move_regime)


def _add_presentation_inputs(p):
    """The required source group that `_load_presentation` reads."""
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--pres", help="inline presentation text, e.g. '2; xyX; y'")
    src.add_argument("--in", dest="infile", help="file with presentation text ('-' = stdin)")
    return src


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="ackirby",
        description="Workbench for balanced presentations, trivialization "
                    "search, framed-link matrices and punctured-sphere curves.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("word", help="free-group word operations")
    p.add_argument("op", choices=("reduce", "invert", "cyclic", "canon", "sums"))
    p.add_argument("word", help="word text, e.g. xyXY (uppercase = inverse)")
    p.add_argument("--rank", type=_int_flag, default=None, help="rank for sums")
    _add_format(p)
    p.set_defaults(handler=_cmd_word)

    p = sub.add_parser("pres", help="presentation operations")
    p.add_argument("op", choices=("canon", "info", "apply"))
    _add_presentation_inputs(p)
    p.add_argument("--moves", help="JSON move list file for apply ('-' = stdin)")
    _add_format(p)
    p.set_defaults(handler=_cmd_pres)

    p = sub.add_parser("search", help="bounded trivialization search")
    _add_presentation_inputs(p).add_argument(
        "--family", help="family member spec, e.g. n=2")
    p.add_argument("--family-w", default="yx",
                   help="conjugating word for --family (default %(default)s)")
    _add_budget_flags(p, "start+6", 24)
    p.add_argument("--workers", type=_int_flag, default=1,
                   help="recorded in the output; the search runs in one process, "
                        "so the value changes nothing")
    p.add_argument("--capacity", type=_int_flag, default=SearchConfig.dedup_capacity,
                   help="hard limit on the classes the deduplication table holds "
                        "(default %(default)s)")
    p.add_argument("--seed", type=_int_flag, default=None,
                   help="recorded in the output; the search is deterministic")
    p.add_argument("--progress", action="store_true",
                   help="print per-depth progress to stderr")
    p.add_argument("--prefix", help="certificate JSON to replay before searching")
    p.add_argument("--cert-out", help="also write the found certificate to this file")
    _add_format(p, default="json")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("verify", help="replay a certificate step by step")
    p.add_argument("--cert", required=True, help="certificate JSON file ('-' = stdin)")
    _add_format(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("family", help="the built-in presentation family")
    fsub = p.add_subparsers(dest="op", required=True)
    q = fsub.add_parser("show", help="print one family member")
    q.add_argument("--n", type=_int_flag, required=True)
    q.add_argument("--w", default="yx", help="conjugating word (default %(default)s)")
    _add_format(q)
    q.set_defaults(handler=_cmd_family)
    q = fsub.add_parser("report", help="survey rows for n = 0..n_max")
    q.add_argument("--n-max", type=_int_flag, required=True)
    _add_budget_flags(q, "each member's start+2", None, "each member's 8")
    _add_format(q)
    q.set_defaults(handler=_cmd_family)
    q = fsub.add_parser("gersten", help="emit the built-in n=2 certificate")
    q.add_argument("--prefix-only", action="store_true",
                   help="emit only the hand-built prefix")
    q.add_argument("--cert-out", help="write to this file instead of stdout")
    q.set_defaults(handler=_cmd_family)

    p = sub.add_parser("kirby", help="framed-link matrix operations")
    p.add_argument("op", choices=("slide", "blowdown", "gpr", "weakform"))
    p.add_argument("--in", dest="infile", required=True,
                   help="matrix text file ('-' = stdin)")
    p.add_argument("--component", type=_int_flag, help="component acted on (1-based)")
    p.add_argument("--over", type=_int_flag, help="component slid over (1-based)")
    p.add_argument("--sign", choices=("+", "-"), default="+")
    _add_format(p)
    p.set_defaults(handler=_cmd_kirby)

    p = sub.add_parser("curves", help="punctured-sphere curve enumeration")
    p.add_argument("op", choices=("enumerate", "classify"))
    p.add_argument("--height", type=_int_flag, default=10,
                   help="max |coordinate| of the direction (default %(default)s)")
    p.add_argument("--slope", help="slope a/b for classify; write a negative "
                                   "numerator as --slope=-1/2")
    p.add_argument("--labeling",
                   help="puncture labeling override, e.g. 'L1=0,0;L2=1,1;R1=1,0;R2=0,1'")
    _add_format(p)
    p.set_defaults(handler=_cmd_curves)

    return parser


# (subcommand, op) -> the flags that op needs, reported in this order
_REQUIRED_FLAGS = {
    ("pres", "apply"): ("moves",),
    ("kirby", "slide"): ("component", "over"),
    ("kirby", "blowdown"): ("component",),
    ("curves", "classify"): ("slope",),
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    op = getattr(args, "op", None)
    for flag in _REQUIRED_FLAGS.get((args.subcommand, op), ()):
        if getattr(args, flag) is None:
            parser.error("%s %s needs --%s" % (args.subcommand, op, flag))
    for flag, least in (("workers", 1), ("max_depth", 0), ("capacity", 1)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            parser.error("--%s must be >= %d, got %d"
                         % (flag.replace("_", "-"), least, value))
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:   # every library error is a ValueError
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NEGATIVE
    except RecursionError as exc:   # JSON input nested past the recursion limit
        print("error: input nested too deeply: %s" % exc, file=sys.stderr)
        return EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
