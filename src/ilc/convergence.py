"""Convergence analysis of reduction traces.

Two limit notions coexist: m-convergence (metric limits with redex depths
tending to infinity) and p-convergence (the limit inferior of the sequence of
reduction contexts).  Lassos represent omega-length reductions exactly, so
both notions are computed exactly on them; fuel-truncated traces get honest
three-valued answers with Unknown markers in the limit tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .order import _glb, glb
from .rewriting import POSITION_BOUND, Step, Trace, replace_at
from .terms import Position, Sig, acut, sig_str
from .trees import (
    HOLE,
    Approximant,
    Node,
    child_at,
    hole,
    in_dom,
    is_guarded,
    node_at,
    render_tree,
    unknown,
)


@dataclass(frozen=True)
class MVerdict:
    value: str  # "yes" | "no" | "unknown"
    witness_depth: int | None = None
    diagnostic: str | None = None

    @property
    def is_yes(self) -> bool:
        return self.value == "yes"

    @property
    def is_no(self) -> bool:
        return self.value == "no"


@dataclass(frozen=True)
class ConvergenceReport:
    m_converges: MVerdict
    p_limit: Approximant
    volatile: frozenset[Position]
    outermost_volatile: frozenset[Position]
    destructive: bool


def volatile_positions(trace: Trace) -> tuple[frozenset[Position], frozenset[Position]]:
    """Volatile and outermost-volatile positions of a lasso, up to length
    ``POSITION_BOUND``.

    A position q is volatile iff some step in the cycle contracts a redex at
    p with acut(p) <= q <= p; since the cycle repeats forever, such steps
    recur cofinally.  Outermost-volatile positions have no volatile proper
    prefix.
    """
    if trace.cycle_at is None:
        raise ValueError("volatile positions are defined for lasso traces only")
    sig = trace.sig
    vol: set[Position] = set()
    for step in trace.cycle_steps:
        p = step.position
        lo = len(acut(sig, p))
        for k in range(lo, len(p) + 1):
            if k <= POSITION_BOUND:
                vol.add(p[:k])
    outer = {
        q for q in vol if not any(q[:k] in vol for k in range(len(q)))
    }
    return frozenset(vol), frozenset(outer)


def _poison(g: Node, q: Position) -> Node:
    """Replace the Hole at or above position q by an Unknown leaf."""
    cur: Node = g
    prefix: list[int] = []
    for i in q:
        if cur.kind == HOLE:
            break
        nxt = child_at(cur, i)
        if nxt is None:
            break
        prefix.append(i)
        cur = nxt
    if cur.kind != HOLE:
        return g  # nothing claimed bottom here
    return replace_at(g, tuple(prefix), unknown())


def p_limit(trace: Trace, depth: int = 16) -> Approximant:
    """The p-limit: the limit inferior of the reduction contexts.

    Closed traces converge to their final tree; lassos converge exactly to
    the glb of the cycle's contexts; traces cut by the fuel or the position
    bound yield the glb of a recent window of contexts with Unknown marking
    the still-active regions, and settle nothing without a step.

    The glb requires guarded contexts without Cut or Unknown leaves.  A
    trace that ``run_strategy`` made (one that carries its ``classes``)
    steps from its start by contractions, each of which replaces one
    subtree by M[N/x] or by a hole, and a context replaces one by a hole.
    Every infinite branch of the result then ends in an infinite branch of
    M, of N or of the tree before, so it crosses infinitely many non-strict
    edges if theirs do: if the start passes the check, every context does
    (``rewriting.NodeIndex``).  So only its start is checked.  Any other
    trace, or one whose start fails, has every context checked, since the
    contexts can be guarded where the start is not.
    """
    if trace.is_closed:
        return Approximant(trace.final)
    if trace.cycle_at is not None:
        ctxs = [s.context for s in trace.cycle_steps]
        return Approximant(_contexts_glb(trace, ctxs))
    window = min(len(trace.steps), max(2, 2 * depth))
    recent = trace.steps[-window:]
    g = _contexts_glb(trace, [s.context for s in recent]) if recent else unknown()
    for s in recent:
        g = _poison(g, acut(trace.sig, s.position))
    return Approximant(g, fuel_exhausted=True)


def _contexts_glb(trace: Trace, ctxs: list[Node]) -> Node:
    """``glb`` of contexts of the trace, checked as ``p_limit`` says."""
    if trace.classes is not None and ctxs:
        try:
            guarded = is_guarded(trace.sig, trace.start)
        except ValueError:  # a Cut or Unknown leaf: the full check names it
            guarded = False
        if guarded:
            return _glb(trace.sig, ctxs)[0]
    return glb(trace.sig, ctxs)


def analyze_m_convergence(trace: Trace) -> MVerdict:
    """m-convergence verdict: do the contraction depths tend to infinity?

    Finite closed traces m-converge trivially.  A lasso repeats its cycle's
    depths cofinally, so the minimum cycle depth witnesses divergence.
    Fuel-truncated traces, with or without steps, and runs cut at the
    position bound are undecided; a strictly increasing recent depth profile
    is reported as a diagnostic hint.
    """
    if trace.is_closed:
        return MVerdict("yes")
    if trace.cycle_at is not None:
        d = min(s.depth for s in trace.cycle_steps)
        return MVerdict("no", witness_depth=d)
    depths = [s.depth for s in trace.steps]
    tail = depths[-16:]
    if trace.stopped == "bound":
        diag = "a redex lies past the position bound of the redex search"
    elif len(tail) >= 2 and all(a < b for a, b in zip(tail, tail[1:])):
        diag = "observed contraction depths are strictly increasing"
    else:
        diag = "no cycle detected before fuel ran out"
    return MVerdict("unknown", diagnostic=diag)


def analyze(trace: Trace, depth: int = 16) -> ConvergenceReport:
    m = analyze_m_convergence(trace)
    pl = p_limit(trace, depth)
    if trace.cycle_at is not None:
        vol, outer = volatile_positions(trace)
    else:
        vol, outer = frozenset(), frozenset()
    return ConvergenceReport(m, pl, vol, outer, destructive=() in vol)


def context_via_glb(sig: Sig, step: Step) -> Node:
    """The reduction context computed from its order-theoretic definition:
    the greatest lower bound of the step's endpoints with the redex position
    excluded from the domain (removals propagate up through strict edges).
    """
    g = glb(sig, [step.before, step.after])
    p = step.position
    if not in_dom(g, p):  # the glb already lacks p: it is the wanted context
        return g
    out = replace_at(g, p, hole())
    for k in range(len(p) - 1, -1, -1):
        edge = p[k]
        if sig[edge] == 1:
            break
        # a strict child was deleted: the parent cannot stay either
        if node_at(out, p[: k + 1]).kind == HOLE:
            out = replace_at(out, p[:k], hole())
    return out


def report_json(trace: Trace, analysis: ConvergenceReport) -> dict:
    """The trace's convergence report as JSON; ``analysis`` is
    ``analyze(trace, ...)``."""
    m = analysis.m_converges
    doc = {
        "m": m.value,
        "p_limit": render_tree(analysis.p_limit.tree, ascii_only=True),
        "volatile": sorted(list(p) for p in analysis.volatile),
        "outermost_volatile": sorted(list(p) for p in analysis.outermost_volatile),
        "destructive": analysis.destructive,
        "sig": sig_str(trace.sig),
        "stopped": trace.stopped,
    }
    if m.witness_depth is not None:
        doc["witness_depth"] = m.witness_depth
    if m.diagnostic:
        doc["diagnostic"] = m.diagnostic
    return doc
