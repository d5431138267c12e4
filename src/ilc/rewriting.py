"""Rewrite systems on lambda trees: beta, eta, strictness rules, and
bottom-collapsing rules, with single steps, redex search, strategies, and
trace recording.

Reductions of length up to omega are represented exactly: a trace is a finite
list of steps, optionally closed by a detected state repetition (a "lasso"),
which stands for the omega-length reduction that repeats the cycle forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .terms import Position, Sig, acut, adepth, sig_str
from .trees import (
    APP,
    BVAR,
    CUT,
    FVAR,
    HOLE,
    LAM,
    UNKNOWN,
    Node,
    bvar,
    canon,
    child_at,
    children,
    fvar,
    has_kind,
    hole,
    max_bvar_index,
    node_at,
    reachable,
    reaching,
    render_tree,
    parse_tree,
    transform,
)


# ---------------------------------------------------------------------------
# Rule systems


class RuleSystem:
    __slots__ = ()


@dataclass(frozen=True)
class Beta(RuleSystem):
    pass


@dataclass(frozen=True)
class Eta(RuleSystem):
    pass


@dataclass(frozen=True)
class Strict(RuleSystem):
    sig: Sig


@dataclass(frozen=True)
class BetaStrict(RuleSystem):
    sig: Sig


@dataclass(frozen=True)
class BohmBot(RuleSystem):
    """Beta plus the bottom rule for a meaningless-set oracle.

    ``oracle(tree) -> bool | None`` answers whether a subtree belongs to the
    set of trees that may be collapsed to bottom (None = unknown).  The rule
    never fires on bottom itself.
    """

    sig: Sig
    oracle: Callable[[Node], bool | None] = field(compare=False)


def rule_tags(rules: RuleSystem) -> tuple[str, ...]:
    match rules:
        case Beta():
            return ("beta",)
        case Eta():
            return ("eta",)
        case Strict(_):
            return ("s",)
        case BetaStrict(_):
            return ("beta", "s")
        case BohmBot(_, _):
            return ("beta", "bot")
    raise TypeError(rules)


# ---------------------------------------------------------------------------
# Substitution (on graphs, capture-free via de Bruijn indices)


def shift(root: Node, by: int, cutoff: int = 0) -> Node:
    """Add ``by`` to all de Bruijn indices >= cutoff."""
    if by == 0:
        return root

    def up(n: Node, c: int) -> Node | None:
        return bvar(n.a + by) if n.kind == BVAR and n.a >= c else None

    return transform(root, up, cap=max_bvar_index(root) + 1, depth=cutoff)


def substitute(body: Node, arg: Node) -> Node:
    """Replace index 0 of ``body`` by ``arg`` (and shift the rest down)."""

    def put(n: Node, d: int) -> Node | None:
        if n.kind == BVAR:
            if n.a == d:
                return shift(arg, d)
            if n.a > d:
                return bvar(n.a - 1)
        return None

    return transform(body, put, cap=max_bvar_index(body) + 1)


def unshift_free(root: Node) -> Node:
    """Shift free indices down by one (used by eta; index 0 must not occur)."""

    def down(n: Node, c: int) -> Node | None:
        if n.kind == BVAR:
            if n.a == c:
                raise ValueError("eta: the bound variable occurs in the function")
            if n.a > c:
                return bvar(n.a - 1)
        return None

    return transform(root, down, cap=max_bvar_index(root) + 1)


def occurs_index(root: Node, index: int) -> bool:
    """Does de Bruijn index ``index`` (relative to the root) occur free?"""

    def hit(n: Node, k: int) -> Node | None:
        return n if n.kind == BVAR and n.a == k else None

    found = transform(root, hit, cap=max_bvar_index(root) + 1, depth=index, copy=False)
    return found is not None


# ---------------------------------------------------------------------------
# Redexes


def _node_redex_tag(rules: RuleSystem, n: Node) -> str | None:
    """The rule tag if the node itself is a redex (bottom rules excluded)."""
    match rules:
        case Beta():
            if n.kind == APP and n.a.kind == LAM:
                return "beta"
        case Eta():
            if (
                n.kind == LAM
                and n.a.kind == APP
                and n.a.b.kind == BVAR
                and n.a.b.a == 0
                and not occurs_index(n.a.a, 0)
            ):
                return "eta"
        case Strict(sig):
            return _strict_tag(sig, n)
        case BetaStrict(sig):
            if n.kind == APP and n.a.kind == LAM:
                return "beta"
            return _strict_tag(sig, n)
        case BohmBot(sig, _):
            if n.kind == APP and n.a.kind == LAM:
                return "beta"
    return None


def _strict_tag(sig: Sig, n: Node) -> str | None:
    a0, a1, a2 = sig
    if n.kind == APP and ((a1 == 0 and n.a.kind == HOLE) or (a2 == 0 and n.b.kind == HOLE)):
        return "s"
    if n.kind == LAM and a0 == 0 and n.a.kind == HOLE:
        return "s"
    return None


def _redex_reachability(rules: RuleSystem, t: Node) -> set[Node]:
    """The nodes from which some redex node is reachable."""
    return reaching(reachable(t), lambda n: _node_redex_tag(rules, n) is not None)


def redexes(
    rules: RuleSystem, t: Node, max_len: int = 64, limit: int = 100_000
) -> set[tuple[Position, str]]:
    """All redex occurrences with position length <= max_len.

    For bottom rules the oracle is consulted per position; for the others the
    search is pruned to subtrees that contain a redex node at all.
    """
    if has_kind(t, CUT, UNKNOWN):
        raise ValueError("redex search rejects Cut/Unknown leaves")
    out: set[tuple[Position, str]] = set()
    bohm = isinstance(rules, BohmBot)
    good = None if bohm else _redex_reachability(rules, t)
    stack: list[tuple[Node, Position]] = [(t, ())]
    explored = 0
    while stack:
        n, p = stack.pop()
        explored += 1
        if explored > limit:
            raise RuntimeError("redex search exceeded its exploration limit")
        if bohm:
            tag = _node_redex_tag(rules, n)
            if tag:
                out.add((p, tag))
            if n.kind != HOLE and rules.oracle(n):
                out.add((p, "bot"))
        else:
            if n not in good:
                continue
            tag = _node_redex_tag(rules, n)
            if tag:
                out.add((p, tag))
        if len(p) < max_len:
            for i, c in reversed(children(n)):
                if bohm or c in good:
                    stack.append((c, p + (i,)))
    return out


def first_redex(rules: RuleSystem, t: Node, max_len: int = 64) -> tuple[Position, str] | None:
    """Leftmost-outermost redex: first hit in preorder (1 before 2)."""
    bohm = isinstance(rules, BohmBot)
    good = None if bohm else _redex_reachability(rules, t)
    stack: list[tuple[Node, Position]] = [(t, ())]
    while stack:
        n, p = stack.pop()
        if not bohm and n not in good:
            continue
        tag = _node_redex_tag(rules, n)
        if bohm and tag is None and n.kind != HOLE and rules.oracle(n):
            tag = "bot"
        if tag:
            return (p, tag)
        if len(p) < max_len:
            for i, c in reversed(children(n)):
                stack.append((c, p + (i,)))
    return None


def outermost_redexes(rules: RuleSystem, t: Node, max_len: int = 64) -> list[tuple[Position, str]]:
    """Redexes none of which lies below another, in preorder."""
    bohm = isinstance(rules, BohmBot)
    good = None if bohm else _redex_reachability(rules, t)
    out: list[tuple[Position, str]] = []
    stack: list[tuple[Node, Position]] = [(t, ())]
    while stack:
        n, p = stack.pop()
        if not bohm and n not in good:
            continue
        tag = _node_redex_tag(rules, n)
        if bohm and tag is None and n.kind != HOLE and rules.oracle(n):
            tag = "bot"
        if tag:
            out.append((p, tag))
            continue  # do not descend below an outermost redex
        if len(p) < max_len:
            for i, c in reversed(children(n)):
                stack.append((c, p + (i,)))
    return out


# ---------------------------------------------------------------------------
# Steps


@dataclass(frozen=True)
class Step:
    before: Node
    position: Position
    rule: str
    after: Node
    context: Node  # the step's reduction context
    depth: int


class NotARedex(ValueError):
    pass


def replace_at(t: Node, p: Position, replacement: Node) -> Node:
    """Copy the spine down to ``p`` and splice in the replacement."""
    if not p:
        return replacement
    n = t
    spine = []
    for i in p:
        spine.append((n, i))
        c = child_at(n, i)
        if c is None:
            raise KeyError(f"position {list(p)} leaves the tree")
        n = c
    out = replacement
    for n, i in reversed(spine):
        new = Node(n.kind, n.a, n.b)
        if i == 0 or (n.kind == APP and i == 1):
            new.a = out
        else:
            new.b = out
        out = new
    return out


def contractum(rules: RuleSystem, n: Node, tag: str) -> Node:
    if tag == "beta":
        if n.kind != APP or n.a.kind != LAM:
            raise NotARedex(f"no beta redex at node of kind {n.kind}")
        return substitute(n.a.a, n.b)
    if tag == "s" or tag == "bot":
        return hole()
    if tag == "eta":
        if n.kind != LAM or n.a.kind != APP or n.a.b.kind != BVAR or n.a.b.a != 0:
            raise NotARedex("no eta redex here")
        return unshift_free(n.a.a)
    raise ValueError(f"unknown rule tag {tag!r}")


def step_sig(rules: RuleSystem) -> Sig:
    match rules:
        case Strict(sig) | BetaStrict(sig) | BohmBot(sig, _):
            return sig
    return (1, 1, 1)


def try_step(rules: RuleSystem, t: Node, p: Position, tag: str | None = None, sig: Sig | None = None) -> Step:
    """Contract the redex at ``p``.

    The recorded reduction context is the tree with the subtree at the
    longest non-strict prefix of ``p`` removed.
    """
    sig = sig if sig is not None else step_sig(rules)
    n = node_at(t, p)
    if tag is None:
        tag = _node_redex_tag(rules, n)
        if tag is None and isinstance(rules, BohmBot) and n.kind != HOLE and rules.oracle(n):
            tag = "bot"
        if tag is None:
            raise NotARedex(f"no redex at {list(p)}: node kind {n.kind}")
    after = replace_at(t, p, contractum(rules, n, tag))
    context = replace_at(t, acut(sig, p), hole())
    return Step(t, p, tag, after, context, adepth(sig, p))


# ---------------------------------------------------------------------------
# Traces and strategies


@dataclass
class Trace:
    sig: Sig
    rules: RuleSystem
    steps: list[Step]
    cycle_at: int | None = None  # lasso: the state after the last step
    # equals the state before step cycle_at
    metadata: dict = field(default_factory=dict)

    @property
    def start(self) -> Node:
        if self.steps:
            return self.steps[0].before
        return self.metadata["start"]

    @property
    def final(self) -> Node:
        if self.steps:
            return self.steps[-1].after
        return self.metadata["start"]

    @property
    def is_closed(self) -> bool:
        return self.cycle_at is None and self.metadata.get("stopped") != "fuel"

    @property
    def cycle_steps(self) -> list[Step]:
        if self.cycle_at is None:
            return []
        return self.steps[self.cycle_at :]

    def check(self) -> None:
        from .trees import bisimilar

        for a, b in zip(self.steps, self.steps[1:]):
            if a.after is not b.before and not bisimilar(a.after, b.before):
                raise AssertionError("steps do not chain")
        if self.cycle_at is not None:
            if not bisimilar(self.steps[self.cycle_at].before, self.final):
                raise AssertionError("lasso closure state mismatch")


STRATEGIES = ("leftmost-outermost", "parallel-outermost", "depth0-first")
_STRATEGY_ALIASES = {
    "lmo": "leftmost-outermost",
    "po": "parallel-outermost",
    "d0": "depth0-first",
}


def run_strategy(
    rules: RuleSystem,
    strategy: str,
    t: Node,
    fuel: int,
    max_len: int = 64,
    sig: Sig | None = None,
) -> Trace:
    """Reduce until normal form, fuel exhaustion, or state repetition.

    ``sig`` overrides the signature used for depth/context bookkeeping (the
    plain beta and eta systems default to the all-non-strict 111).
    """
    strategy = _STRATEGY_ALIASES.get(strategy, strategy)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if sig is None:
        sig = step_sig(rules)
    trace = Trace(sig, rules, [], metadata={"strategy": strategy, "start": t})
    seen: dict[tuple, int] = {canon(t): 0}
    cur = t
    spent = 0
    while spent < fuel:
        if strategy == "leftmost-outermost":
            found = first_redex(rules, cur, max_len)
            picks = [found] if found else []
        elif strategy == "parallel-outermost":
            picks = outermost_redexes(rules, cur, max_len)
        else:  # depth0-first: minimal depth, ties leftmost (shortlex)
            rs = sorted(
                redexes(rules, cur, max_len),
                key=lambda pt: (adepth(sig, pt[0]), len(pt[0]), pt[0]),
            )
            picks = [rs[0]] if rs else []
        if not picks:
            trace.metadata["stopped"] = "normal_form"
            trace.metadata["fuel_spent"] = spent
            return trace
        for p, tag in picks:
            step = try_step(rules, cur, p, tag, sig)
            trace.steps.append(step)
            cur = step.after
            spent += 1
            key = canon(cur)
            if key in seen:
                trace.cycle_at = seen[key]
                trace.metadata["stopped"] = "cycle"
                trace.metadata["fuel_spent"] = spent
                return trace
            seen[key] = len(trace.steps)
            if spent >= fuel:
                break
    trace.metadata["stopped"] = "fuel"
    trace.metadata["fuel_spent"] = spent
    return trace


# ---------------------------------------------------------------------------
# Trace (de)serialization


def trace_export(trace: Trace, report: dict | None = None) -> dict:
    # each distinct node is rendered once: a step's ``before`` is the previous
    # step's ``after``, and the first step's is the start
    rendered: dict[Node, str] = {}

    def show(n: Node) -> str:
        s = rendered.get(n)
        if s is None:
            s = rendered[n] = render_tree(n, ascii_only=True)
        return s

    doc = {
        "sig": sig_str(trace.sig),
        "rules": rule_tags(trace.rules)[0] if not isinstance(trace.rules, (BetaStrict, BohmBot)) else (
            "betas" if isinstance(trace.rules, BetaStrict) else "bohm"
        ),
        "start": show(trace.start),
        "steps": [
            {
                "pos": list(s.position),
                "rule": s.rule,
                "depth": s.depth,
                "before": show(s.before),
                "after": show(s.after),
                "context": show(s.context),
            }
            for s in trace.steps
        ],
        "tail": None if trace.cycle_at is None else {"cycle_at": trace.cycle_at},
        "metadata": {
            k: v for k, v in trace.metadata.items() if isinstance(v, (str, int, bool))
        },
    }
    if report is not None:
        doc["report"] = report
    return doc


def trace_decode(doc: dict) -> Trace:
    from .terms import parse_sig

    sig = parse_sig(doc["sig"])
    name = doc.get("rules", "beta")
    rules: RuleSystem
    if name == "beta":
        rules = Beta()
    elif name == "eta":
        rules = Eta()
    elif name == "s" or name == "strict":
        rules = Strict(sig)
    elif name == "betas":
        rules = BetaStrict(sig)
    else:
        raise ValueError(f"cannot decode rule system {name!r}")
    steps = []
    for s in doc["steps"]:
        before = parse_tree(s["before"])
        after = parse_tree(s["after"])
        context = parse_tree(s["context"])
        steps.append(Step(before, tuple(s["pos"]), s["rule"], after, context, s["depth"]))
    tail = doc.get("tail")
    tr = Trace(sig, rules, steps, None if tail is None else tail["cycle_at"])
    tr.metadata.update(doc.get("metadata", {}))
    if not steps:
        tr.metadata["start"] = parse_tree(doc["start"])
    return tr
