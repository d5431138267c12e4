"""Stability, activeness, bottom-instance membership, S-normal forms, and the
depth-bounded Bohm-like tree normalizer.

All the semi-decision procedures here return three-valued verdicts whose Yes
and No witnesses can be replayed.  Activeness of a subtree is what the
normalizer turns into a bottom leaf; signatures 001, 101 and 111 yield the
Bohm, Levy-Longo and Berarducci trees respectively.
"""

from __future__ import annotations

from dataclasses import dataclass

from .convergence import p_limit
from .rewriting import Beta, BohmBot, NodeIndex, Step, Trace, _rewrite, drive, escapes, run_strategy, try_step
from .terms import CANONICAL_SIGS, Position, Sig, parse_term
from .trees import (
    APP,
    BVAR,
    FVAR,
    HOLE,
    LAM,
    Approximant,
    Node,
    app,
    back_edges,
    children,
    cut,
    hole,
    is_guarded,
    lam,
    link_position,
    map_graph,
    reachable,
    reaching,
    tree_of_term,
    unknown,
)


@dataclass(frozen=True)
class TriVerdict:
    value: str  # "yes" | "no" | "unknown"
    witness: object = None

    @property
    def is_yes(self) -> bool:
        return self.value == "yes"

    @property
    def is_no(self) -> bool:
        return self.value == "no"

    @property
    def is_unknown(self) -> bool:
        return self.value == "unknown"


def _yes(witness=None) -> TriVerdict:
    return TriVerdict("yes", witness)


def _no(witness=None) -> TriVerdict:
    return TriVerdict("no", witness)


_UNKNOWN = TriVerdict("unknown")

OMEGA = tree_of_term(parse_term(r"(\x.x x) (\x.x x)"))


def _check_tree(sig: Sig, t: Node) -> None:
    try:
        guarded = is_guarded(sig, t)
    except ValueError:  # a Cut or Unknown leaf
        raise ValueError("analysis rejects Cut/Unknown leaves") from None
    if not guarded:
        raise ValueError("analysis requires a guarded tree")


# ---------------------------------------------------------------------------
# Head reduction: does a subtree ever expose a lambda at its root?

# The two verdict caches and the index that keys them live and die together:
# a key holds a class of ``_index``, which means nothing to another index,
# and the fuel, which decides what a run can find.
_whnf_cache: dict[tuple, TriVerdict] = {}
_active_cache: dict[tuple, TriVerdict] = {}
_index: NodeIndex | None = None


def _node_index() -> NodeIndex:
    """The index shared by every analysis until ``clear_caches``, made on
    first use."""
    global _index
    if _index is None:
        _index = NodeIndex(Beta())
    return _index


def reduces_to_lam(t: Node, fuel: int = 10_000) -> TriVerdict:
    """Semi-decides whether head beta reduction reaches a Lam root.

    Yes carries (reduct, list of contracted positions) for replay; No means
    the head is rigid, bottom, or loops (detected by exact state repetition
    or by the shifted-recurrence criterion); Unknown on fuel exhaustion.
    """
    # the cache, the states and the subtrees are all keyed through the one
    # shared index: a node indexed by an earlier call costs nothing again
    index = _node_index()
    index.add(t)
    key = (index.key(t), fuel)
    if key in _whnf_cache:
        return _whnf_cache[key]

    def next_round(cur: Node) -> list[Step]:
        # one step at the head redex, or none at a lambda, a rigid head or
        # bottom, or on a head spine that loops in the graph
        if cur.kind != APP:
            return []
        n, m = cur, 0
        spine_ids = {id(n)}
        while n.kind == APP:
            n = n.a
            m += 1
            if id(n) in spine_ids:
                return []
            spine_ids.add(id(n))
        if n.kind != LAM:
            return []
        return [try_step(Beta(), cur, (1,) * (m - 1), "beta", index=index)]

    steps, stopped, _ = drive(index, t, fuel, next_round, shifts=lambda n, _: index.key(n))
    if stopped == "fuel":
        return _UNKNOWN
    cur = steps[-1].after if steps else t
    if stopped == "normal_form" and cur.kind == LAM:
        verdict = _yes((cur, [s.position for s in steps]))
    else:
        verdict = _no(cur)
    _whnf_cache[key] = verdict
    return verdict


# ---------------------------------------------------------------------------
# Stability and activeness

def is_stable(sig: Sig, t: Node, fuel: int = 10_000) -> TriVerdict:
    """Can a beta redex ever appear at depth 0?

    Yes means stable: no reduct of t has a depth-0 redex.  The depth-0 region
    is frozen under deeper steps, so instability can only come from a present
    depth-0 redex or from a function child (under a non-strict edge) that
    head-reduces to a lambda.  No carries (preparatory positions, redex
    position, reduct) for replay.
    """
    _check_tree(sig, t)
    v = _stability(sig, t, fuel)
    if not v.is_no:
        return v
    prep, p, u = v.witness
    return _no(([s.position for s in prep], p, u))


def _stability(sig: Sig, t: Node, fuel: int) -> TriVerdict:
    """``is_stable`` on a tree already known to be guarded and free of
    Cut/Unknown leaves, whose No carries the preparatory steps, taken under
    ``sig``, the position of the redex they expose and the reduct they
    reach."""
    # the depth-0 region, the nodes reached through strict edges alone, in
    # one breadth-first walk over nodes, not paths; it reaches each node
    # first along the node's shortlex-least path, so the first redex and the
    # first function child found are those of the shortlex walk over paths.
    # ``links`` keeps that path as a parent link, made a position only for
    # a witness.
    links: dict[Node, tuple | None] = {t: None}
    region = [t]
    for n in region:  # the loop also reaches the nodes appended during it
        for i, c in children(n):
            if sig[i] == 0 and c not in links:
                links[c] = (n, i)
                region.append(c)
    for n in region:
        if n.kind == APP and n.a.kind == LAM:
            return _no(([], link_position(links, n), t))
    saw_unknown = False
    if sig[1] == 1:
        for n in region:
            if n.kind != APP:
                continue
            v = reduces_to_lam(n.a, fuel)
            if v.is_yes:
                _, poss = v.witness
                p = link_position(links, n)
                prep: list[Step] = []
                u = t
                for q in poss:
                    prep.append(try_step(Beta(), u, p + (1,) + q, "beta", sig=sig, index=_node_index()))
                    u = prep[-1].after
                return _no((prep, p, u))
            if v.is_unknown:
                saw_unknown = True
    return _UNKNOWN if saw_unknown else _yes()


def is_active(sig: Sig, t: Node, fuel: int = 10_000) -> TriVerdict:
    """Does t never reach a stable reduct?

    The strategy exposes a depth-0 redex (possibly after preparatory steps
    inside a function child), contracts it, and repeats.  An exact state
    repetition, or a shifted recurrence of the contracted subtree, shows the
    loop runs forever: Yes, with a destructive trace as witness.  Reaching a
    stable reduct gives No with that reduct.  ``t`` may be open: an index
    escaping it stands for one variable, keyed as one at every depth.

    Only ``t`` is checked for Cut/Unknown leaves and guardedness, before the
    first step (so not at all without fuel), with ``is_stable``'s messages.
    The shared index already knows whether ``t`` reaches a Cut or Unknown
    leaf, and a finite tree has no cycle to leave unguarded, so only a tree
    that reaches a cycle is searched.  A contraction replaces one subtree by
    M[N/x], whose branches are branches of M or of N at the same depths, so
    every reduct passes too (the tests check it).
    """
    index = _node_index()  # as in reduces_to_lam
    index.add(t)
    key = (sig, index.key(t), fuel)
    if key in _active_cache:
        return _active_cache[key]
    if fuel > 0:
        if t in index.stuck:
            raise ValueError("analysis rejects Cut/Unknown leaves")
        if index.classes.cls[t] < 0:
            _check_tree(sig, t)
    stability = _UNKNOWN  # the verdict on the last state

    def next_round(cur: Node) -> list[Step]:
        nonlocal stability
        stability = _stability(sig, cur, fuel)
        if not stability.is_no:
            return []
        prep, q, u = stability.witness
        return [*prep, try_step(Beta(), u, q, "beta", sig=sig, index=index)]

    def redex_key(n: Node, pos: Position) -> int | tuple:
        # under a strict lambda edge a redex may lie below b binders of t,
        # where a variable bound outside t has index e + b + k at binder
        # depth k of the redex; keyed as the name e, an int that no name of
        # t equals, it is one variable at every depth
        if sig[0] == 1:  # no contracted redex lies under a binder of t
            return index.key(n)
        b = pos.count(0)
        c = index.classes.cls[n]
        if c >= 0 and index.classes.free[c] < b:  # no name to give
            return index.key(n)

        def name(i: int, k: int) -> Node:
            return index.node(FVAR, i - k - b) if i >= k + b else index.node(BVAR, i)

        named = _rewrite(n, name, index)
        index.add(named)  # a copy of an n that reaches a cycle
        return index.key(named)

    steps, stopped, cycle_at = drive(index, t, fuel, next_round, shifts=redex_key)
    if stopped == "cycle" or stopped == "shifted":
        verdict = _yes(Trace(sig, Beta(), t, steps, stopped, cycle_at))
    elif stopped == "normal_form" and stability.is_yes:
        verdict = _no(steps[-1].after if steps else t)
    else:
        return _UNKNOWN
    _active_cache[key] = verdict
    return verdict


def in_bot_instances(sig: Sig, t: Node, fuel: int = 10_000) -> TriVerdict:
    """Is t a bottom-instance of an active tree, other than bottom itself?

    Filling every Hole of t with Omega gives the canonical total instance;
    t belongs iff that instance is active.
    """
    _check_tree(sig, t)
    if t.kind == HOLE:
        return _no(None)
    inst = map_graph(t, lambda n: OMEGA if n.kind == HOLE else None)
    return is_active(sig, inst, fuel)


# ---------------------------------------------------------------------------
# S-normal forms

def _collapsible(sig: Sig, t: Node) -> set[Node]:
    """The nodes whose subtree S-rewrites to bottom: those that reach a Hole
    through strict edges alone."""
    return reaching(reachable(t), lambda n: n.kind == HOLE, lambda i: sig[i] == 0)


def strict_nf(sig: Sig, t: Node) -> Node:
    """The unique normal form under the strictness rules alone.

    Cut and Unknown leaves are inert: they neither collapse nor seed a
    collapse.
    """
    # is_guarded's test, without its rejection of Cut and Unknown leaves
    if back_edges(t, lambda i: sig[i] == 0)[0]:
        raise ValueError("strict_nf requires a guarded tree")
    nu = _collapsible(sig, t)
    if not nu:
        return t
    return map_graph(t, lambda n: hole() if n in nu else None)


# ---------------------------------------------------------------------------
# The Bohm-like tree normalizer

def bohm_tree(
    sig: Sig,
    t: Node,
    depth: int = 16,
    fuel: int = 10_000,
) -> Approximant:
    """Depth-bounded infinitary normal form, outside in.

    Active subtrees become Hole; stable ones contribute their frozen depth-0
    skeleton, and normalization recurses into the children hanging off
    non-strict edges one depth level down.  Leaves record honesty: Cut at the
    depth bound, Unknown on fuel exhaustion.

    The result is S-normal, as ``strict_nf`` would leave it.  The
    strictness rules, the only rules beyond beta that the paper's 001 and
    101 calculi need (lambda x. bot -> bot and bot M -> bot), are applied
    as each node closes: a lambda over bottom at a strict lambda edge, and
    an application with bottom at a strict edge, become bottom.  The copy
    closes bottom-up, so a collapse reaches every node above it along
    strict edges.  Cut and Unknown are inert: they neither collapse nor
    seed a collapse.

    Each child is normalized where it stands: a de Bruijn index escaping it
    points at a lambda of the copy above it, as it pointed at the same
    lambda of the reduct.
    """
    _check_tree(sig, t)
    return _bohm_tree(sig, t, depth, fuel)


def _bohm_tree(sig: Sig, t: Node, depth: int, fuel: int) -> Approximant:
    """``bohm_tree`` on a tree already known to be guarded and free of
    Cut/Unknown leaves.

    Every node it reads is in the shared index: ``t``, the reducts that
    ``is_active`` returns, and their subgraphs.  With fuel, a finite
    subtree that reaches no beta redex (a leaf among them) is its own
    stable reduct, so it is copied without an ``is_active`` run.
    """
    if depth > 0:  # else t is a Cut leaf, found without any analysis
        index = _node_index()
        index.add(t)
        cls, free, live = index.classes.cls, index.classes.free, index.live
    flags = {"fuel": False}
    done: list[Node] = []  # finished copies
    # the work: (node, edge is strict, depth level), LAM to close a lambda
    # and APP to close an application
    stack: list = []
    lambdas = 0  # the lambdas open on the path
    strict_body, strict_fun, strict_arg = sig[0] == 0, sig[1] == 0, sig[2] == 0

    def norm(sub: Node, d: int) -> None:
        # a leaf for sub goes to done; a stable reduct is copied by the loop
        if d >= depth:
            done.append(cut())
            return
        if fuel > 0 and cls[sub] >= 0 and sub not in live:
            stack.append((sub, True, d))
            return
        v = is_active(sig, sub, fuel)
        if v.is_yes:
            done.append(hole())
        elif v.is_unknown:
            flags["fuel"] = True
            done.append(unknown())
        else:
            stack.append((v.witness, True, d))

    # copies the depth-0 region of each stable reduct, which strict edges
    # reach, and analyses the children under non-strict edges in turn
    norm(t, 0)
    while stack:
        item = stack.pop()
        if item == APP:
            arg = done.pop()
            fun = done.pop()
            if (strict_fun and fun.kind == HOLE) or (strict_arg and arg.kind == HOLE):
                done.append(hole())
            else:
                done.append(app(fun, arg))
            continue
        if item == LAM:
            lambdas -= 1
            if not (strict_body and done[-1].kind == HOLE):
                done.append(lam(done.pop()))
            continue
        n, strict, d = item
        if not strict:
            # only a child of t's own reduct can name a variable that no
            # lambda above it binds: a reduct names no variable that its
            # source does not, and every deeper child descends from one
            # checked here
            if d == 0:
                c = cls[n]
                if free[c] >= lambdas if c >= 0 else escapes(n, lambdas):
                    raise ValueError("a bound variable escapes the input tree")
            norm(n, d + 1)
        elif n.kind in (HOLE, BVAR, FVAR):
            done.append(Node(n.kind, n.a))
        elif n.kind == LAM:
            lambdas += 1
            stack += (LAM, (n.a, strict_body, d))
        elif n.kind == APP:
            stack += (APP, (n.b, strict_arg, d), (n.a, strict_fun, d))
        else:
            raise TypeError(n.kind)

    return Approximant(
        done[0],
        depth=depth,
        fuel_exhausted=flags["fuel"],
        non_canonical=sig not in CANONICAL_SIGS,
    )


# ---------------------------------------------------------------------------
# The m-route: normalization with explicit bottom steps

def m_route_tree(sig: Sig, t: Node, depth: int = 16, fuel: int = 10_000) -> Approximant:
    """Normalize by beta steps plus single bottom-steps on meaningless
    subtrees, then S-normalize.  Closed runs are exact; otherwise the trace's
    p-limit approximates, with Unknown marking the unsettled regions.
    """
    _check_tree(sig, t)
    flags = {"fuel": False}

    def oracle(n: Node) -> bool:
        v = in_bot_instances(sig, n, fuel)
        if v.is_unknown:
            flags["fuel"] = True
        return v.is_yes

    rules = BohmBot(sig, oracle, fuel)
    trace = run_strategy(rules, "leftmost-outermost", t, fuel, sig=sig)
    tree = strict_nf(sig, p_limit(trace, depth).tree)
    return Approximant(tree, fuel_exhausted=flags["fuel"] or not trace.is_closed)


def clear_caches() -> None:
    global _index
    _whnf_cache.clear()
    _active_cache.clear()
    _index = None
