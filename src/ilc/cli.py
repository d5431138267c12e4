"""Command-line front end.

Subcommands: tree (infinitary normal form), trace (run a strategy and report
convergence), dist (tree metric), order (comparison and glb), join
(confluence check for a peak), dev (complete development, both routes).
Exit codes: 0 success, 1 parse error, 2 an Unknown or Cut leaf in the
output, 3 bad configuration, an input too large or too deeply nested to
process, or a fuel budget or search limit that ran out before an answer.

The command line is read in one of two ways.  A well-formed one (the
subcommand first, then its options spelled out, each at most once, with
valid values, and its positionals) is read directly off the option table
``_COMMANDS``, with no argparse parser.  Everything else (no arguments,
``--help``, an unknown or abbreviated command or option, ``--opt=value``,
``--``, a negative number, and every error) goes to the full argparse
parser, built from the same table, which prints the help and the errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

from . import convergence, developments, meaningless
from .order import _glb
from .rewriting import (
    _EXPLORATION_LIMIT,
    POSITION_BOUND,
    Beta,
    NodeIndex,
    _search,
    rule_system,
    run_strategy,
    trace_export,
)
from .terms import ParseError, parse_sig, sig_str
from .trees import (
    CUT,
    UNKNOWN,
    _distance,
    bisimilar,
    has_kind,
    is_guarded,
    parse_tree,
    render_tree,
    render_trees,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_UNKNOWN = 2
EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


class _Option(NamedTuple):
    """One option of a subcommand.  ``value`` is ``int`` or ``str`` for an
    option that takes a value and converts it with that type, or the bool
    that a flag stores.  Options that store into the same ``dest`` are
    alternatives: at most one of them may be given."""

    flag: str
    dest: str
    value: type | bool
    default: object = None
    choices: tuple[str, ...] | None = None
    help: str | None = None


class _Command(NamedTuple):
    help: str
    positionals: tuple[str, ...]
    options: tuple[_Option, ...]  # in the order the help lists them


_COMMON = (
    _Option("--sig", "sig", str, "111", help="strictness signature, three digits (default 111)"),
    _Option("--depth", "depth", int, 16, help="depth bound (default 16)"),
    _Option("--fuel", "fuel", int, 10_000, help="step budget (default 10000)"),
    _Option("--format", "format", str, "text", ("text", "json")),
    _Option("--ascii", "ascii_only", True),
    _Option("--unicode", "ascii_only", False),
)

_COMMANDS = {
    "tree": _Command("infinitary normal form", ("term",), _COMMON),
    "trace": _Command("run a reduction strategy", ("term",), _COMMON + (
        _Option("--rules", "rules", str, "beta", ("beta", "eta", "strict", "betas", "bohm")),
        _Option("--strategy", "strategy", str, "lmo", ("lmo", "po", "d0")),
    )),
    "dist": _Command("tree distance", ("left", "right"), _COMMON),
    "order": _Command("order comparison and glb", ("left", "right"), _COMMON),
    "join": _Command("joinability of two strategies' reductions", ("term",), _COMMON + (
        _Option("--rules", "rules", str, "betas", ("beta", "betas")),
    )),
    "dev": _Command("complete development of a redex set", ("term",), _COMMON + (
        _Option("--redexes", "redexes", str, "", help="positions as digit strings joined by "
                "commas, e.g. 'e' for the root, '1,102'"),
        _Option("--all", "all", True, False, help="develop every beta redex"),
    )),
}


def _build_parser() -> _Parser:
    """The argparse parser of every subcommand, built from ``_COMMANDS``.
    It prints the help and every error."""
    p = _Parser(prog="ilc", description="partial-order infinitary lambda calculi")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in _COMMANDS.items():
        s = sub.add_parser(name, help=command.help)
        groups = {}
        for opt in command.options:
            target = s
            if sum(o.dest == opt.dest for o in command.options) > 1:
                if opt.dest not in groups:
                    groups[opt.dest] = s.add_mutually_exclusive_group()
                target = groups[opt.dest]
            if isinstance(opt.value, bool):
                kind = {"action": "store_true" if opt.value else "store_false"}
            else:
                kind = {"type": opt.value, "choices": opt.choices}
            target.add_argument(opt.flag, dest=opt.dest, default=opt.default, help=opt.help, **kind)
        for positional in command.positionals:
            s.add_argument(positional)
    return p


def _parse_direct(argv: list[str]) -> argparse.Namespace | None:
    """The namespace that the full parser would return for a well-formed
    ``argv``, read off ``_COMMANDS``; None for any other ``argv``.

    Well-formed: ``argv[0]`` is a subcommand; every later token that starts
    with ``-`` is one of its options, spelled out and given at most once
    (with at most one of two alternatives); each value option is followed
    by a value that does not start with ``-``, converts with its type and
    is one of its choices; and the other tokens are exactly its positionals.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = {opt.flag: opt for opt in command.options}
    given = {}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        opt = options.get(token)
        if opt is None or opt.dest in given:
            return None
        if isinstance(opt.value, bool):
            given[opt.dest] = opt.value
            continue
        text = next(tokens, None)
        if text is None or text.startswith("-"):
            return None
        try:
            value = opt.value(text)
        except ValueError:
            return None
        if opt.choices is not None and value not in opt.choices:
            return None
        given[opt.dest] = value
    if len(positionals) != len(command.positionals):
        return None
    args = argparse.Namespace(command=argv[0])
    for opt in command.options:
        setattr(args, opt.dest, given.get(opt.dest, opt.default))
    for name, token in zip(command.positionals, positionals):
        setattr(args, name, token)
    return args


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` directly when it is well-formed (see ``_parse_direct``),
    and otherwise with the full argparse parser, which prints the help and
    every error (and accepts what argparse accepts beyond the well-formed
    form, such as ``--opt=value``, abbreviations or ``--``)."""
    args = _parse_direct(argv)
    return args if args is not None else _build_parser().parse_args(argv)


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


def _emit(args, out, text, doc, unknown: bool) -> int:
    """Print a result in the format asked for, ``text`` or the JSON of
    ``doc`` (the other may be None), and derive the exit code from its
    honesty markers."""
    print(json.dumps(doc, ensure_ascii=True, sort_keys=True) if args.format == "json" else text, file=out)
    return EXIT_UNKNOWN if unknown else EXIT_OK


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    # each call starts from empty analysis state; what a call leaves stays
    # readable until the next one
    meaningless.clear_caches()
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

    # load checks each input, so the unchecked cores answer
    try:
        if args.command == "tree":
            t = load(args.term)
            ap = meaningless._bohm_tree(sig, t, args.depth, args.fuel)
            rendered = show(ap.tree)
            doc = {
                "sig": sig_str(sig),
                "tree": rendered,
                "fuel_exhausted": ap.fuel_exhausted,
                "non_canonical": ap.non_canonical,
            }
            return _emit(args, out, rendered, doc, has_kind(ap.tree, UNKNOWN, CUT))

        if args.command == "trace":
            t = load(args.term)
            rules = rule_system(args.rules, sig, args.fuel)
            trace = run_strategy(rules, args.strategy, t, args.fuel, sig=sig)
            analysis = convergence.analyze(trace, args.depth)
            report = convergence.report_json(trace, analysis)
            unknown = report["m"] == "unknown" or has_kind(analysis.p_limit.tree, UNKNOWN, CUT)
            if as_json:
                return _emit(args, out, None, trace_export(trace, report), unknown)
            # the states in one call, which reuses what a step left unchanged
            # and the run's class table
            afters = render_trees([s.after for s in trace.steps], ascii_only, trace.classes)
            lines = [
                f"{i:4d}  {s.rule:4s} at {''.join(map(str, s.position)) or 'e'}  -> {after}"
                for i, (s, after) in enumerate(zip(trace.steps, afters))
            ]
            lines.append(f"stopped: {trace.stopped}"
                         + (f" (cycle at {trace.cycle_at})" if trace.cycle_at is not None else ""))
            lines.append(f"m-convergence: {report['m']}")
            lines.append(f"p-limit: {report['p_limit']}")
            return _emit(args, out, "\n".join(lines), None, unknown)

        if args.command == "dist":
            a, b = load(args.left), load(args.right)
            d = str(_distance(sig, a, b))
            return _emit(args, out, d, {"distance": d}, False)

        if args.command == "order":
            a, b = load(args.left), load(args.right)
            g, (leq, geq) = _glb(sig, [a, b])
            gs = show(g)
            text = (
                f"left <= right: {leq}\n"
                f"right <= left: {geq}\n"
                f"glb: {gs}"
            )
            doc = {
                "leq": leq,
                "geq": geq,
                "glb": gs,
            }
            return _emit(args, out, text, doc, False)

        if args.command == "join":
            t = load(args.term)
            rules = rule_system(args.rules, sig, args.fuel)
            # one index for both runs: the d0 run reuses the lmo run's steps
            # while the two coincide, and both share their contracta
            index = NodeIndex(rules)
            tr1 = run_strategy(rules, "lmo", t, args.fuel, sig=sig, index=index)
            tr2 = run_strategy(rules, "d0", t, args.fuel, sig=sig, index=index)
            res = developments.joinability(sig, t, tr1, tr2, args.fuel, args.depth)
            tree_s = show(res.tree) if res.tree is not None else None
            text = res.status + (f": {tree_s}" if tree_s else "")
            doc = {"status": res.status, "tree": tree_s, "detail": res.detail}
            return _emit(args, out, text, doc, res.status == "unknown")

        if args.command == "dev":
            t = load(args.term)
            if args.all:
                found, cut = _search(Beta(), t, POSITION_BOUND, "all", limit=_EXPLORATION_LIMIT)
                if cut:  # the set would miss a redex, on a finite term or a cyclic one
                    raise ValueError(f"a beta redex lies past the position bound {POSITION_BOUND}")
                positions = [p for p, _ in found]
            else:
                positions = _parse_positions(args.redexes)
            rs = developments.RedexSet(t, positions)
            _, result = developments.develop(sig, rs, args.fuel)
            labs = developments.path_labels(sig, rs)
            agree = bisimilar(result, labs)
            result_s, labs_s = show(result), show(labs)
            text = f"develop: {result_s}\npath labels: {labs_s}\nagree: {agree}"
            doc = {
                "develop": result_s,
                "path_labels": labs_s,
                "agree": agree,
            }
            return _emit(args, out, text, doc, False)

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
