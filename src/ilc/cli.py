"""Command-line front end.

Subcommands: tree (infinitary normal form), trace (run a strategy and report
convergence), dist (tree metric), order (comparison and glb), join
(confluence check for a peak), dev (complete development, both routes).
Exit codes: 0 success, 1 parse error, 2 an Unknown or Cut leaf in the
output, 3 bad configuration, an input too large or too deeply nested to
process, or a fuel budget or search limit that ran out before an answer.

Each call builds the argument parser anew, and argparse pays for every
argument it adds, so ``main`` builds only the subparser that ``argv[0]``
names.  The full parser, with all six, serves everything else: no
arguments, ``--help``, an unknown or abbreviated command, an option before
the command, and any error of the top-level parser.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import convergence, developments, meaningless
from .order import glb, tree_leq
from .rewriting import (
    Beta,
    BetaStrict,
    BohmBot,
    Eta,
    Strict,
    redexes,
    run_strategy,
    trace_export,
)
from .terms import ParseError, parse_sig, sig_str
from .trees import (
    CUT,
    UNKNOWN,
    bisimilar,
    has_kind,
    is_guarded,
    parse_tree,
    render_tree,
    render_trees,
    tree_distance,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_UNKNOWN = 2
EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


class _Reparse(Exception):
    """Raised by a narrow top-level parser instead of printing an error."""


class _NarrowParser(_Parser):
    def error(self, message):
        raise _Reparse


def _common_flags(p: _Parser) -> None:
    p.add_argument("--sig", default="111", help="strictness signature, three digits (default 111)")
    p.add_argument("--depth", type=int, default=16, help="depth bound (default 16)")
    p.add_argument("--fuel", type=int, default=10_000, help="step budget (default 10000)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    enc = p.add_mutually_exclusive_group()
    enc.add_argument("--ascii", dest="ascii_only", action="store_true", default=None)
    enc.add_argument("--unicode", dest="ascii_only", action="store_false")


def _term_arg(p: _Parser) -> None:
    p.add_argument("term")


def _pair_args(p: _Parser) -> None:
    p.add_argument("left")
    p.add_argument("right")


def _trace_args(p: _Parser) -> None:
    p.add_argument("--rules", choices=["beta", "eta", "strict", "betas", "bohm"], default="beta")
    p.add_argument("--strategy", choices=["lmo", "po", "d0"], default="lmo")
    p.add_argument("term")


def _join_args(p: _Parser) -> None:
    p.add_argument("--rules", choices=["beta", "betas"], default="betas")
    p.add_argument("term")


def _dev_args(p: _Parser) -> None:
    p.add_argument(
        "--redexes",
        default="",
        help="positions as digit strings joined by commas, e.g. 'e' for the root, '1,102'",
    )
    p.add_argument("--all", action="store_true", help="develop every beta redex")
    p.add_argument("term")


# subcommand -> (help, the function adding its own arguments after the common flags)
_COMMANDS = {
    "tree": ("infinitary normal form", _term_arg),
    "trace": ("run a reduction strategy", _trace_args),
    "dist": ("tree distance", _pair_args),
    "order": ("order comparison and glb", _pair_args),
    "join": ("joinability of two strategies' reductions", _join_args),
    "dev": ("complete development of a redex set", _dev_args),
}


def _build_parser(only: str | None = None) -> _Parser:
    """The argument parser: every subcommand, or only the one named ``only``.

    A parser with one subparser costs about a fifth of the full one, because
    argparse creates a help formatter, and so reads the terminal size, in
    every ``add_argument``.  The subparsers are the same either way, so
    their help, usage lines and errors are too.  The top-level parser is
    not: its help, and any message that names the subcommands, would list
    only ``only``.  So the narrow top-level parser prints no error of its
    own (such as unrecognized arguments after the subcommand's): it raises
    ``_Reparse``, and the caller parses again with the full parser, which
    reports the error as it always has.
    """
    top = _Parser if only is None else _NarrowParser
    p = top(prog="ilc", description="partial-order infinitary lambda calculi")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, add_args) in _COMMANDS.items():
        if only is None or name == only:
            s = sub.add_parser(name, help=help_text)
            _common_flags(s)
            add_args(s)
    return p


def _parse_args(argv: list[str]):
    """Parse with the narrow parser when ``argv[0]`` names a subcommand,
    and with the full parser otherwise or when the narrow one fails."""
    if argv and argv[0] in _COMMANDS:
        try:
            return _build_parser(argv[0]).parse_args(argv)
        except _Reparse:
            pass
    return _build_parser().parse_args(argv)


def _rules_for(name: str, sig, fuel: int):
    if name == "beta":
        return Beta()
    if name == "eta":
        return Eta()
    if name == "strict":
        return Strict(sig)
    if name == "betas":
        return BetaStrict(sig)
    if name == "bohm":
        return BohmBot(sig, lambda n: meaningless.in_bot_instances(sig, n, fuel).is_yes)
    raise ValueError(name)


def _ascii_only(args) -> bool:
    if args.ascii_only is not None:
        return args.ascii_only
    enc = getattr(sys.stdout, "encoding", None) or ""
    return enc.lower() not in ("utf-8", "utf8")


def _parse_positions(text: str) -> list[tuple[int, ...]]:
    if text == "":
        return []
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if chunk in ("", "e", "root"):
            out.append(())
        else:
            if not all(c in "012" for c in chunk):
                raise ValueError(f"bad position {chunk!r}")
            out.append(tuple(int(c) for c in chunk))
    return out


def _emit(doc, args, out) -> int:
    """Print a result and derive the exit code from its honesty markers.
    ``doc`` holds the form the format asks for, under "json" or "text"."""
    if args.format == "json":
        print(json.dumps(doc["json"], ensure_ascii=True, sort_keys=True), file=out)
    else:
        print(doc["text"], file=out)
    return EXIT_UNKNOWN if doc.get("unknown") else EXIT_OK


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        sig = parse_sig(args.sig)
    except ValueError as e:
        print(f"ilc: {e}", file=err)
        return EXIT_CONFIG
    if args.depth < 0 or args.fuel < 0:
        print("ilc: depth and fuel must be nonnegative", file=err)
        return EXIT_CONFIG
    as_json = args.format == "json"
    ascii_only = _ascii_only(args)

    def show(t):
        """The one rendering of a tree that this call prints: ASCII in
        JSON output, the chosen encoding in text output."""
        return render_tree(t, ascii_only=as_json or ascii_only)

    def load(text):
        t = parse_tree(text)
        if not is_guarded(sig, t):
            raise ParseError("the tree is not guarded for this signature", 0)
        return t

    try:
        if args.command == "tree":
            t = load(args.term)
            ap = meaningless.bohm_tree(sig, t, args.depth, args.fuel)
            rendered = show(ap.tree)
            doc = {
                "text": rendered,
                "json": {
                    "sig": sig_str(sig),
                    "tree": rendered,
                    "fuel_exhausted": ap.fuel_exhausted,
                    "non_canonical": ap.non_canonical,
                },
                "unknown": has_kind(ap.tree, UNKNOWN, CUT),
            }
            return _emit(doc, args, out)

        if args.command == "trace":
            t = load(args.term)
            rules = _rules_for(args.rules, sig, args.fuel)
            trace = run_strategy(rules, args.strategy, t, args.fuel, sig=sig)
            analysis = convergence.analyze(trace, args.depth)
            report = convergence.report_json(trace, analysis)
            unknown = report["m"] == "unknown" or has_kind(analysis.p_limit.tree, UNKNOWN, CUT)
            if as_json:
                return _emit({"json": trace_export(trace, report), "unknown": unknown}, args, out)
            # the states in one call, which reuses what a step left unchanged
            afters = render_trees([s.after for s in trace.steps], ascii_only)
            lines = [
                f"{i:4d}  {s.rule:4s} at {''.join(map(str, s.position)) or 'e'}  -> {after}"
                for i, (s, after) in enumerate(zip(trace.steps, afters))
            ]
            lines.append(f"stopped: {trace.metadata['stopped']}"
                         + (f" (cycle at {trace.cycle_at})" if trace.cycle_at is not None else ""))
            lines.append(f"m-convergence: {report['m']}")
            lines.append(f"p-limit: {report['p_limit']}")
            return _emit({"text": "\n".join(lines), "unknown": unknown}, args, out)

        if args.command == "dist":
            a, b = load(args.left), load(args.right)
            d = tree_distance(sig, a, b)
            doc = {"text": str(d), "json": {"distance": str(d)}, "unknown": False}
            return _emit(doc, args, out)

        if args.command == "order":
            a, b = load(args.left), load(args.right)
            ab = tree_leq(sig, a, b)
            ba = tree_leq(sig, b, a)
            gs = show(glb(sig, [a, b]))
            text = (
                f"left <= right: {bool(ab)}\n"
                f"right <= left: {bool(ba)}\n"
                f"glb: {gs}"
            )
            doc = {
                "text": text,
                "json": {
                    "leq": bool(ab),
                    "geq": bool(ba),
                    "glb": gs,
                },
                "unknown": False,
            }
            return _emit(doc, args, out)

        if args.command == "join":
            t = load(args.term)
            rules = _rules_for(args.rules, sig, args.fuel)
            tr1 = run_strategy(rules, "lmo", t, args.fuel, sig=sig)
            tr2 = run_strategy(rules, "d0", t, args.fuel, sig=sig)
            res = developments.joinability(sig, t, tr1, tr2, args.fuel, args.depth)
            tree_s = (
                render_tree(res.tree, ascii_only=ascii_only) if res.tree is not None else None
            )
            text = res.status + (f": {tree_s}" if tree_s else "")
            doc = {
                "text": text,
                "json": {"status": res.status, "tree": tree_s, "detail": res.detail},
                "unknown": res.status == "unknown",
            }
            return _emit(doc, args, out)

        if args.command == "dev":
            t = load(args.term)
            if args.all:
                found = redexes(BetaStrict(sig), t)
                positions = [p for p, tag in found if tag == "beta"]
            else:
                positions = _parse_positions(args.redexes)
            rs = developments.RedexSet(t, positions)
            _, result = developments.develop(sig, rs, args.fuel)
            labs = developments.path_labels(sig, rs)
            agree = bisimilar(result, labs)
            result_s, labs_s = show(result), show(labs)
            text = f"develop: {result_s}\npath labels: {labs_s}\nagree: {agree}"
            doc = {
                "text": text,
                "json": {
                    "develop": result_s,
                    "path_labels": labs_s,
                    "agree": agree,
                },
                "unknown": False,
            }
            return _emit(doc, args, out)

        raise AssertionError(args.command)
    except ParseError as e:
        print(f"ilc: parse error: {e}", file=err)
        return EXIT_PARSE
    except ValueError as e:
        print(f"ilc: {e}", file=err)
        return EXIT_CONFIG
    except (RecursionError, MemoryError) as e:
        print(f"ilc: the input is too large or too deeply nested ({type(e).__name__})", file=err)
        return EXIT_CONFIG
    except RuntimeError as e:  # a budget or limit ran out
        print(f"ilc: {e}", file=err)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
