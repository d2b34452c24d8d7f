"""Command-line front end.

Every operation is scriptable with stable output; --json switches any
subcommand to a canonical single-document JSON form.  Exit status: 0 ok,
1 domain error, 2 usage error, 3 verification found discrepancies,
4 time budget exhausted, 141 (128 + SIGPIPE) the reader closed stdout.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_DISCREPANCY = 3
EXIT_BUDGET = 4
EXIT_PIPE = 141


def _load(*names: str) -> None:
    """Bind library names in this namespace, each from the package, which
    loads its module on first use.  A name already bound is kept, so a
    wrapper set on this module from outside is what the handlers call."""
    package = sys.modules[__package__]
    for name in names:
        globals().setdefault(name, getattr(package, name))


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    # what the interpreter and the imports built lives until exit, so
    # neither the job's collections nor the one at exit need walk it; the
    # job's tables hold tuples of ints, which one pass stops tracking
    gc.freeze()
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the output fd goes to devnull, so the flush at exit writes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delcodes",
        description="deletion-correcting binary codes: balls, distances, "
        "dominant pairs, code checks, and exact search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the shared options, each declared once, as parents of the subcommands
    # that take it
    js, n, t = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    js.add_argument("--json", action="store_true")
    n.add_argument("--n", type=int, required=True)
    t.add_argument("--t", type=int, required=True)

    p = sub.add_parser("ball", parents=[t, js], help="list the deletion ball of a word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("dist", parents=[js], help="distance between two words")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument(
        "--metric",
        choices=("deletion", "levenshtein", "hamming"),
        default="deletion",
    )
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser(
        "dominate", parents=[t, js], help="does u dominate v under t deletions?"
    )
    p.add_argument("u")
    p.add_argument("v")
    p.set_defaults(func=_cmd_dominate)

    p = sub.add_parser(
        "enumerate", parents=[n, t, js], help="list dominant pairs of one length"
    )
    p.add_argument("--method", choices=("brute", "closed"), default="brute")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "verify",
        parents=[n, t, js],
        help="check the closed-form tables against brute force",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("check", parents=[t, js], help="predicates for a code file")
    p.add_argument("file")
    p.add_argument("--perfect", action="store_true")
    p.add_argument("--basic", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "search", parents=[n, t, js], help="maximum code size by exact search"
    )
    p.add_argument("--no-basic-prune", action="store_true")
    p.add_argument("--no-force-constants", action="store_true")
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--canonical", action="store_true")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument(
        "--budget",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="wall-clock limit; 0 means unlimited (default: 600)",
    )
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "vt", parents=[n, js], help="emit a checksum-residue baseline code"
    )
    p.add_argument("--a", type=int, required=True)
    p.set_defaults(func=_cmd_vt)

    return parser


def _cmd_ball(args) -> int:
    _load("Word", "deletion_ball")
    w = Word(args.word)
    ball = deletion_ball(w, args.t)
    if args.json:
        print(_dumps({"word": str(w), "t": args.t, "ball": ball.strings()}))
    else:
        for s in ball.strings():
            print(s)
    return EXIT_OK


def _cmd_dist(args) -> int:
    _load("Word", "deletion_distance", "levenshtein_indel", "hamming_distance")
    u, v = Word(args.u), Word(args.v)
    fn = {
        "deletion": deletion_distance,
        "levenshtein": levenshtein_indel,
        "hamming": hamming_distance,
    }[args.metric]
    d = fn(u, v)
    if args.json:
        print(_dumps({"u": str(u), "v": str(v), "metric": args.metric, "distance": d}))
    else:
        print(d)
    return EXIT_OK


def _cmd_dominate(args) -> int:
    _load("Word", "deletion_ball")
    from .words import _check_pair

    u, v = Word(args.u), Word(args.v)
    _check_pair(u, v, args.t)
    # the balls whose sizes are reported decide dominance: is_dominant
    # would build both again
    ball_u, ball_v = deletion_ball(u, args.t), deletion_ball(v, args.t)
    dom = u != v and ball_v <= ball_u
    if args.json:
        print(
            _dumps(
                {
                    "u": str(u),
                    "v": str(v),
                    "t": args.t,
                    "dominant": dom,
                    "ball_u": len(ball_u),
                    "ball_v": len(ball_v),
                }
            )
        )
    elif dom:
        print(f"yes |D_{args.t}(v)|={len(ball_v)} <= |D_{args.t}(u)|={len(ball_u)}")
    else:
        print("no")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    _load("closed_form_generation", "enumerate_dominant_pairs")
    if args.method == "closed":
        gen = closed_form_generation(args.n, args.t)
        rows = ((p.u, p.v, gen.provenance[p]) for p in gen.pairs)
    else:
        pairs = enumerate_dominant_pairs(args.n, args.t)
        rows = ((p.u, p.v, ("brute",)) for p in pairs)
    if args.json:
        # the _dumps document, written straight from the words in its key
        # order: encoding it whole builds a dict and a list of chunks per pair
        sources = functools.cache(lambda tags: _dumps(list(tags)))
        write = sys.stdout.write
        write(f'{{"method":{_dumps(args.method)},"n":{args.n},"pairs":[')
        sep = ""
        for u, v, tags in rows:
            write(f'{sep}{{"sources":{sources(tags)},"u":"{u}","v":"{v}"}}')
            sep = ","
        write(f'],"t":{args.t}}}\n')
    else:
        for u, v, tags in rows:
            print(f"{u} {v} {','.join(tags)}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    _load("verify_characterization")
    report = verify_characterization(args.n, args.t)
    if args.json:
        print(_dumps(report.to_json_dict()))
    else:
        print(report.summary())
    return EXIT_OK if report.confirmed else EXIT_DISCREPANCY


def _cmd_check(args) -> int:
    _load("Code", "find_ball_collision", "dominant_codewords")
    code = Code.from_file(args.file)
    t = args.t
    # the union of the balls, each built once, for the perfect check
    owner: dict[int, int] = {}
    collision = find_ball_collision(code, t, owner)
    correcting = collision is None

    # undefined without disjoint balls; else is_perfect, read from the union
    perfect = None
    if args.perfect and correcting:
        perfect = len(owner) == 1 << (code.member_length - t)
    # not held while --basic builds the pair tables: about 0.12 MB of peak
    # resident memory for a 188-word code at n = 12
    del owner

    offenders: list[Word] | None = None
    if args.basic:
        offenders = dominant_codewords(code, t)

    if args.json:
        doc = {
            "words": len(code),
            "length": code.member_length,
            "t": t,
            "deletion_correcting": correcting,
            "collision": [str(collision[0]), str(collision[1])] if collision else None,
        }
        if args.perfect:
            doc["perfect"] = perfect
        if args.basic:
            doc["basic"] = not offenders
            doc["dominant_codewords"] = [str(w) for w in offenders]
        print(_dumps(doc))
    else:
        print(f"words: {len(code)} of length {code.member_length}")
        if correcting:
            print(f"deletion-correcting(t={t}): yes")
        else:
            print(
                f"deletion-correcting(t={t}): no"
                f" (balls of {collision[0]} and {collision[1]} intersect)"
            )
        if args.perfect:
            if perfect is None:
                print(f"perfect(t={t}): not applicable (balls are not disjoint)")
            else:
                print(f"perfect(t={t}): {'yes' if perfect else 'no'}")
        if args.basic:
            if offenders:
                listed = " ".join(str(w) for w in offenders)
                print(f"basic(t={t}): no (dominant codewords: {listed})")
            else:
                print(f"basic(t={t}): yes")
    return EXIT_OK


def _cmd_search(args) -> int:
    if args.enumerate and args.canonical:
        print("error: --enumerate and --canonical conflict", file=sys.stderr)
        return EXIT_USAGE
    _load(
        "SearchBudgetExceeded", "SearchConfig", "enumerate_optimal_codes",
        "max_code_size",
    )
    config = SearchConfig(
        n=args.n,
        t=args.t,
        basic_only=not args.no_basic_prune,
        force_constants=not args.no_force_constants,
        canonical_witness=args.canonical,
        time_budget=args.budget,
        workers=args.threads,
    )
    try:
        if args.enumerate:
            codes = enumerate_optimal_codes(config)
        else:
            result = max_code_size(config)
    except SearchBudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    if args.enumerate:
        if args.json:
            print(
                _dumps(
                    {
                        "n": args.n,
                        "t": args.t,
                        "optimum": len(codes[0]) if codes else 0,
                        "classes": [[str(w) for w in c] for c in codes],
                    }
                )
            )
        else:
            for idx, c in enumerate(codes, 1):
                print(f"# class {idx}")
                sys.stdout.write(c.to_text())
        return EXIT_OK

    if args.json:
        print(_dumps(result.to_json_dict()))
    else:
        if result.exhausted:
            found = f"optimum {result.optimum}"
        else:
            found = (
                f"lower-bound (budget exhausted) {result.optimum}"
                f" optimum in [{result.optimum}, {result.upper_bound}]"
            )
        print(f"{found} nodes={result.node_count} time_ms={result.wall_time_ms}")
        sys.stdout.write(result.witness.to_text())
    return EXIT_OK if result.exhausted else EXIT_BUDGET


def _cmd_vt(args) -> int:
    _load("vt_code")
    code = vt_code(args.n, args.a)
    if args.json:
        print(
            _dumps(
                {
                    "n": args.n,
                    "a": args.a,
                    "size": len(code),
                    "words": [str(w) for w in code],
                }
            )
        )
    else:
        print(f"# checksum residue {args.a} mod {args.n + 1}, {len(code)} words")
        sys.stdout.write(code.to_text())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
