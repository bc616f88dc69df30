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
import json
import os
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
    KirbyError,
    blow_down,
    gpr_necessary_condition,
    is_weak_trivial_form,
    matrix_to_text,
    parse_matrix,
    slide,
)
from ackirby.presentations import (
    MoveError,
    abelianization_matrix,
    canonical_presentation,
    is_trivial_presentation,
    move_from_dict,
    move_to_dict,
    apply_move,
    parse_presentation,
    presentation_to_text,
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
    Word,
    WordError,
    cyclic_reduce,
    exponent_sums,
    format_word,
    invert,
    parse_word,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

ENV_MAX_LEN = "ACKIRBY_MAX_LEN"
ENV_MAX_DEPTH = "ACKIRBY_MAX_DEPTH"


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


def _move_brief(move):
    return json.dumps(move_to_dict(move), sort_keys=True, separators=(",", ":"))


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r") as fh:
        return fh.read()


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _yesno(flag):
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# Shared input loaders

def _family_param(spec):
    if not spec.startswith("n="):
        raise ValueError("family spec must look like n=2, got %r" % (spec,))
    try:
        n = int(spec[2:])
    except ValueError:
        raise ValueError("family spec must look like n=2, got %r" % (spec,))
    return n


def _load_presentation(args):
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
        item = item.strip()
        if not item:
            continue
        label, _, coords = item.partition("=")
        parts = coords.split(",")
        if len(parts) != 2:
            raise CurveError("labeling entries look like L1=0,0 — got %r" % (item,))
        assignment[label.strip()] = (int(parts[0]), int(parts[1]))
    return PunctureLabeling(assignment)


def _parse_slope(text):
    a, sep, b = text.partition("/")
    if not sep:
        raise CurveError("slope looks like a/b, got %r" % (text,))
    return Slope(int(a), int(b))


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
        _emit(args,
              {"conjugator": format_word(conj), "core": format_word(core)},
              ["conjugator: %s" % format_word(conj), "core: %s" % format_word(core)])
    elif args.op == "canon":
        c = Word(_kernel.canonical_relator(w.letters))
        _emit(args, {"word": format_word(c)}, [format_word(c)])
    else:  # sums
        rank = args.rank if args.rank is not None else max(1, w.max_generator())
        sums = exponent_sums(w, rank)
        _emit(args,
              {"rank": rank, "sums": list(sums)},
              ["rank: %d" % rank,
               "sums: %s" % " ".join(str(v) for v in sums)])
    return EXIT_OK


def _cmd_pres(args):
    P = parse_presentation(args.pres if args.pres is not None
                           else _read_text(args.infile))
    if args.op == "canon":
        text = presentation_to_text(canonical_presentation(P))
        _emit(args, {"presentation": text}, [text])
        return EXIT_OK
    if args.op == "info":
        A = abelianization_matrix(P)
        det = integer_determinant(A)
        trivial = is_trivial_presentation(P)
        doc = {
            "rank": P.rank,
            "relators": [format_word(r) for r in P.relators],
            "total_length": total_length(P),
            "abelianization": [list(row) for row in A],
            "det": det,
            "trivial": trivial,
            "canonical": presentation_to_text(canonical_presentation(P)),
        }
        lines = [
            "rank: %d" % P.rank,
            "relators: %s" % "; ".join(format_word(r) for r in P.relators),
            "total-length: %d" % total_length(P),
            "abelianization: %s" % " | ".join(
                " ".join(str(v) for v in row) for row in A),
            "det: %d" % det,
            "trivial: %s" % _yesno(trivial),
            "canonical: %s" % doc["canonical"],
        ]
        _emit(args, doc, lines)
        return EXIT_OK
    # apply
    records = json.loads(_read_text(args.moves))
    if not isinstance(records, list):
        raise ValueError("--moves must hold a JSON array of move records, got %r"
                         % (records,))
    moves = [move_from_dict(d) for d in records]
    for move in moves:
        P = apply_move(P, move)
    text = presentation_to_text(P)
    _emit(args, {"presentation": text}, [text])
    return EXIT_OK


def _build_config(args, start_total):
    """Search config with the budget defaults; main has already read the
    environment."""
    return SearchConfig(
        max_total_length=args.max_len if args.max_len is not None else start_total + 6,
        max_depth=args.max_depth if args.max_depth is not None else 24,
        move_regime=args.regime,
        dedup_capacity=args.capacity,
    )


def _progress_printer(enabled):
    if not enabled:
        return None

    def report(depth, visited, frontier):
        print("progress: depth=%d visited=%d frontier=%d"
              % (depth, visited, frontier), file=sys.stderr, flush=True)

    return report


_OUTCOME_EXIT = {"found": EXIT_OK, "exhausted": EXIT_NEGATIVE,
                 "inconclusive": EXIT_INCONCLUSIVE}


def _emit_outcome(args, start, cfg, outcome):
    doc = {
        "command": "search",
        "input": presentation_to_text(start),
        "config": dict(dataclasses.asdict(cfg), seed=args.seed, workers=args.workers),
        "outcome": outcome_to_dict(outcome),
    }
    stats = outcome.stats
    lines = [
        "status: %s" % outcome.status,
        "input: %s" % presentation_to_text(start),
        "visited: %d" % stats.visited,
        "frontier-peak: %d" % stats.frontier_peak,
        "depth-reached: %d" % stats.depth_reached,
        "max-total-length: %d" % cfg.max_total_length,
        "max-depth: %d" % cfg.max_depth,
        "regime: %s" % cfg.move_regime,
        "workers: %d" % args.workers,
        "seed: %s" % ("none" if args.seed is None else args.seed),
    ]
    if outcome.found:
        lines.append("moves: %d" % len(outcome.certificate.moves))
        for k, move in enumerate(outcome.certificate.moves, 1):
            lines.append("move %d: %s" % (k, _move_brief(move)))
    _emit(args, doc, lines)
    if args.cert_out and outcome.found:
        _write_text(args.cert_out, _dump(certificate_to_dict(outcome.certificate)))
        print("wrote certificate: %s" % args.cert_out, file=sys.stderr)
    return _OUTCOME_EXIT[outcome.status]


def _cmd_search(args):
    start = _load_presentation(args)
    cfg = _build_config(args, total_length(start))
    if args.prefix is not None:
        prefix = certificate_from_dict(json.loads(_read_text(args.prefix)))
        outcome = hybrid_trivialize(start, prefix, cfg,
                                    _progress_printer(args.progress))
    else:
        outcome = search(start, cfg, _progress_printer(args.progress))
    return _emit_outcome(args, start, cfg, outcome)


def _cmd_verify(args):
    cert = certificate_from_dict(json.loads(_read_text(args.cert)))
    report = verify(cert, trace=True)
    trace_doc = [{"move": move_to_dict(m), "after": presentation_to_text(p)}
                 for m, p in (report.trace or ())]
    doc = {
        "command": "verify",
        "start": presentation_to_text(cert.start),
        "ok": report.ok,
        "steps_applied": report.steps_applied,
        "failed_step": report.failed_step,
        "reason": report.reason,
        "final": presentation_to_text(report.final) if report.final else None,
        "trace": trace_doc,
    }
    lines = ["start: %s" % presentation_to_text(cert.start)]
    for k, (move, after) in enumerate(report.trace or (), 1):
        lines.append("step %d: %s -> %s"
                     % (k, _move_brief(move), presentation_to_text(after)))
    lines.append("steps-applied: %d" % report.steps_applied)
    lines.append("ok: %s" % _yesno(report.ok))
    if report.ok:
        lines.append("final: %s" % presentation_to_text(report.final))
    else:
        if report.failed_step is not None:
            lines.append("failed-step: %d" % (report.failed_step + 1))
        lines.append("reason: %s" % report.reason)
    _emit(args, doc, lines)
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
    payload = _dump(certificate_to_dict(cert))
    if args.cert_out:
        _write_text(args.cert_out, payload)
        print("wrote certificate: %s" % args.cert_out, file=sys.stderr)
    else:
        print(payload)
    return EXIT_OK


def _matrix_doc(M):
    return {"size": M.size, "entries": [list(r) for r in M.entries],
            "kinds": list(M.kinds)}


def _cmd_kirby(args):
    M = parse_matrix(_read_text(args.infile))
    if args.op == "slide":
        sign = 1 if args.sign == "+" else -1
        M2 = slide(M, args.component, args.over, sign)
        _emit(args, _matrix_doc(M2), [matrix_to_text(M2)])
        return EXIT_OK
    if args.op == "blowdown":
        M2 = blow_down(M, args.component)
        _emit(args, _matrix_doc(M2), [matrix_to_text(M2)])
        return EXIT_OK
    if args.op == "gpr":
        ok = gpr_necessary_condition(M)
        det = integer_determinant([list(r) for r in M.entries])
        _emit(args,
              {"det": det, "gpr_necessary": ok},
              ["det: %d" % det, "gpr-necessary: %s" % _yesno(ok)])
        return EXIT_OK if ok else EXIT_NEGATIVE
    # weakform
    ok = is_weak_trivial_form(M)
    _emit(args, {"weak_trivial_form": ok}, ["weak-trivial-form: %s" % _yesno(ok)])
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
    slope = _parse_slope(args.slope)
    sides = partition(slope, labeling)
    cand = is_candidate(slope, labeling)
    z3 = z3_class(slope, labeling)
    doc = {
        "slope": list(slope.direction),
        "parity": list(slope.parity),
        "partition": [list(side) for side in sides],
        "z3": z3,
        "candidate": cand,
    }
    lines = [
        "slope: %s" % _slope_text(slope),
        "parity: (%d, %d)" % slope.parity,
        "partition: %s" % " | ".join(",".join(side) for side in sides),
        "z3: %d" % z3,
        "candidate: %s" % _yesno(cand),
    ]
    _emit(args, doc, lines)
    return EXIT_OK if cand else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# Parser

def _add_format(p, default="text"):
    p.add_argument("--format", choices=("text", "json"), default=default,
                   help="output format (default %(default)s)")


def _add_search_flags(p):
    p.add_argument("--max-len", type=int, default=None,
                   help="total-length ceiling (default $%s, else start+6)" % ENV_MAX_LEN)
    p.add_argument("--max-depth", type=int, default=None,
                   help="move-depth ceiling (default $%s, else 24)" % ENV_MAX_DEPTH)
    p.add_argument("--regime", choices=("strict", "extended"), default="strict")
    p.add_argument("--workers", type=int, default=1,
                   help="recorded in the output; the search runs in one process, "
                        "so the value changes nothing")
    p.add_argument("--capacity", type=int, default=1_000_000,
                   help="hard limit on the classes the deduplication table holds")
    p.add_argument("--seed", type=int, default=None,
                   help="recorded in the output; the search is deterministic")
    p.add_argument("--progress", action="store_true",
                   help="print per-depth progress to stderr")


def _add_presentation_inputs(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--pres", help="inline presentation text, e.g. '2; xyX; y'")
    src.add_argument("--in", dest="infile", help="file with presentation text ('-' = stdin)")
    src.add_argument("--family", help="family member spec, e.g. n=2")
    p.add_argument("--family-w", default="yx",
                   help="conjugating word for --family (default %(default)s)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ackirby",
        description="Workbench for balanced presentations, trivialization "
                    "search, framed-link matrices and punctured-sphere curves.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("word", help="free-group word operations")
    p.add_argument("op", choices=("reduce", "invert", "cyclic", "canon", "sums"))
    p.add_argument("word", help="word text, e.g. xyXY (uppercase = inverse)")
    p.add_argument("--rank", type=int, default=None, help="rank for sums")
    _add_format(p)
    p.set_defaults(handler=_cmd_word)

    p = sub.add_parser("pres", help="presentation operations")
    p.add_argument("op", choices=("canon", "info", "apply"))
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--pres", help="inline presentation text")
    src.add_argument("--in", dest="infile", help="file with presentation text ('-' = stdin)")
    p.add_argument("--moves", help="JSON move list file for apply ('-' = stdin)")
    _add_format(p)
    p.set_defaults(handler=_cmd_pres)

    p = sub.add_parser("search", help="bounded trivialization search")
    _add_presentation_inputs(p)
    _add_search_flags(p)
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
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--w", default="yx", help="conjugating word (default %(default)s)")
    _add_format(q)
    q.set_defaults(handler=_cmd_family)
    q = fsub.add_parser("report", help="survey rows for n = 0..n_max")
    q.add_argument("--n-max", type=int, required=True)
    q.add_argument("--max-len", type=int, default=None,
                   help="total-length ceiling (default $%s, else each member's start+2)"
                   % ENV_MAX_LEN)
    q.add_argument("--max-depth", type=int, default=None,
                   help="move-depth ceiling (default $%s, else 8)" % ENV_MAX_DEPTH)
    q.add_argument("--regime", choices=("strict", "extended"), default="strict")
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
    p.add_argument("--component", type=int, help="component acted on (1-based)")
    p.add_argument("--over", type=int, help="component slid over (1-based)")
    p.add_argument("--sign", choices=("+", "-"), default="+")
    _add_format(p)
    p.set_defaults(handler=_cmd_kirby)

    p = sub.add_parser("curves", help="punctured-sphere curve enumeration")
    p.add_argument("op", choices=("enumerate", "classify"))
    p.add_argument("--height", type=int, default=10,
                   help="max |coordinate| of the direction (default %(default)s)")
    p.add_argument("--slope", help="slope a/b for classify; write a negative "
                                   "numerator as --slope=-1/2")
    p.add_argument("--labeling",
                   help="puncture labeling override, e.g. 'L1=0,0;L2=1,1;R1=1,0;R2=0,1'")
    _add_format(p)
    p.set_defaults(handler=_cmd_curves)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "kirby":
        if args.op in ("slide", "blowdown") and args.component is None:
            parser.error("kirby %s needs --component" % args.op)
        if args.op == "slide" and args.over is None:
            parser.error("kirby slide needs --over")
    if args.subcommand == "curves" and args.op == "classify" and args.slope is None:
        parser.error("curves classify needs --slope")
    if args.subcommand == "pres" and args.op == "apply" and args.moves is None:
        parser.error("pres apply needs --moves")
    if args.subcommand == "search" or (args.subcommand == "family" and args.op == "report"):
        source = {}   # budget flag -> where its value came from
        for flag, env in (("max_len", ENV_MAX_LEN), ("max_depth", ENV_MAX_DEPTH)):
            text = os.environ.get(env)
            if getattr(args, flag) is None and text:
                source[flag] = "$" + env
                try:
                    setattr(args, flag, int(text))
                except ValueError:
                    parser.error("$%s must be an integer, got %r" % (env, text))
        for flag, least in (("workers", 1), ("max_depth", 0), ("capacity", 1)):
            value = getattr(args, flag, None)
            if value is not None and value < least:
                parser.error("%s must be >= %d, got %d"
                             % (source.get(flag, "--" + flag.replace("_", "-")), least, value))
    try:
        return args.handler(args)
    except (WordError, MoveError, KirbyError, CurveError, ValueError,
            json.JSONDecodeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
