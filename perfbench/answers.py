"""Answer checks: compare a CLI result with the stored expected answer.

An answer is the exit code, standard output and standard error of one
``ilc.cli.main`` call.  The fast path compares a digest.  When the digest
differs, the JSON outputs are compared field by field: tree-valued fields
up to bisimulation (``parse_tree`` + ``bisimilar``), so that an equal tree
printed as a different ``rec`` literal still passes, and every other field
exactly.
"""

from __future__ import annotations

import hashlib
import json
import re

# JSON fields that hold a rendered tree, over all subcommands
TREE_FIELDS = frozenset(
    {"tree", "glb", "develop", "path_labels", "start", "before", "after", "context", "p_limit"}
)

# a lambda or rec binder keeps its dot; a free-standing "..." is a Cut leaf
_MARKERS = re.compile(r"(\\[A-Za-z_]\w*\.)|(rec\s+[A-Za-z_]\w*\.)|(\.\.\.)|(\?)")


def answer_digest(code: int, stdout: str, stderr: str) -> str:
    h = hashlib.sha256()
    h.update(json.dumps([code, stdout, stderr]).encode())
    return h.hexdigest()


def parse_output_tree(text: str):
    """Parse a rendered tree; Cut and Unknown leaves become the free
    variables ``__cut`` and ``__unk``, which no input uses."""
    from ilc.trees import parse_tree

    def repl(m: re.Match) -> str:
        if m.group(3):
            return " __cut "
        if m.group(4):
            return " __unk "
        return m.group(0)

    return parse_tree(_MARKERS.sub(repl, text))


def _same(key, want, got) -> bool:
    if key in TREE_FIELDS and isinstance(want, str) and isinstance(got, str):
        if want == got:
            return True
        from ilc.trees import bisimilar

        try:
            return bisimilar(parse_output_tree(want), parse_output_tree(got))
        except ValueError:
            return False
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and want.keys() == got.keys()
            and all(_same(k, want[k], got[k]) for k in want)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(want) == len(got)
            and all(_same(key, w, g) for w, g in zip(want, got))
        )
    return type(want) is type(got) and want == got


def answers_match(expected: dict, code: int, stdout: str, stderr: str) -> bool:
    """Field-by-field comparison, used when the digest differs."""
    if code != expected["code"] or stderr != expected["stderr"]:
        return False
    try:
        got = json.loads(stdout)
    except ValueError:
        return False
    return _same(None, json.loads(expected["stdout"]), got)
