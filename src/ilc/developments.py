"""Descendants, ancestors, complete developments, path labellings, and
confluence joins.

Descendants follow the classical case table for beta and strictness steps,
extended to omega-length lassos by the stabilization criterion: a position
descends through the whole lasso iff it descends through some finite prefix
and no later contraction reaches up to it.  Complete developments are
computed twice over: operationally (contract residuals until none are left)
and denotationally (path labellings), and the two must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .convergence import p_limit
from .meaningless import bohm_tree, strict_nf
from .rewriting import (
    _EXPLORATION_LIMIT,
    POSITION_BOUND,
    Beta,
    BetaStrict,
    NodeIndex,
    Step,
    Trace,
    drive,
    redex_test,
    run_strategy,
    try_step,
)
from .terms import CANONICAL_SIGS, Position, Sig, acut, sig_str
from .trees import (
    APP,
    BVAR,
    CUT,
    FVAR,
    HOLE,
    LAM,
    UNKNOWN,
    Node,
    agree_where_defined,
    bisimilar,
    build,
    bvar,
    children,
    components,
    has_kind,
    hole,
    in_dom,
    is_guarded,
    map_graph,
    max_bvar_indices,
    node_at,
    positions,
    reachable,
)


def _is_prefix(p: Position, q: Position) -> bool:
    return q[: len(p)] == p


@dataclass(frozen=True)
class RedexSet:
    """A tree together with a finite set of redex occurrences in it."""

    tree: Node
    positions: frozenset[Position]

    def __init__(self, tree: Node, positions):
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "positions", frozenset(tuple(p) for p in positions))


def _check_development_sig(sig: Sig) -> None:
    if not (sig[0] == 1 or sig[1] == 0):
        raise ValueError(
            f"developments require a signature with a0 = 1 or a1 = 0, got {sig_str(sig)}"
        )


def _validate_redexes(sig: Sig, rs: RedexSet) -> dict[Position, str]:
    test = redex_test(BetaStrict(sig))
    tags = {}
    for p in rs.positions:
        tag = test(node_at(rs.tree, p)) if in_dom(rs.tree, p) else None
        if tag is None:
            raise ValueError(f"no redex at position {list(p)}")
        tags[p] = tag
    return tags


# ---------------------------------------------------------------------------
# Descendants and ancestors


def _bound_var_positions(body: Node) -> list[Position]:
    """Positions of length <= ``POSITION_BOUND`` inside the redex body that
    hold the redex's bound variable: its index counts the lambdas above it,
    each of which the position crosses by edge 0.  A body with cycles can
    have exponentially many positions, so past ``_EXPLORATION_LIMIT`` of
    them the search raises ``RuntimeError``."""
    out: list[Position] = []
    for explored, (p, n) in enumerate(positions(body, POSITION_BOUND), 1):
        if explored > _EXPLORATION_LIMIT:
            raise RuntimeError("bound-variable search exceeded its exploration limit")
        if n.kind == BVAR and n.a == p.count(0):
            out.append(p)
    return out


def _is_bound_var_at(body: Node, w: Position) -> bool:
    n = node_at(body, w)
    return n.kind == BVAR and n.a == w.count(0)


def _desc_step(sig: Sig, step: Step, us: set[Position]) -> set[Position]:
    """Single-step descendants by the case table."""
    p = step.position
    if step.rule in ("s", "bot"):
        return {u for u in us if not _is_prefix(p, u)}
    if step.rule != "beta":
        raise ValueError(f"descendants undefined for rule {step.rule!r}")
    out: set[Position] = set()
    var_occs: list[Position] | None = None
    body = None
    for u in us:
        if not _is_prefix(p, u):
            out.add(u)
            continue
        rest = u[len(p):]
        if rest == () or rest == (1,):
            continue  # the redex node and its lambda vanish
        if body is None:
            body = node_at(step.before, p + (1, 0))
        if rest[0] == 2:
            w = rest[1:]
            if var_occs is None:
                var_occs = _bound_var_positions(body)
            for q in var_occs:
                if len(p) + len(q) + len(w) <= POSITION_BOUND:
                    out.add(p + q + w)
        elif rest[:2] == (1, 0):
            w = rest[2:]
            if not _is_bound_var_at(body, w):
                out.add(p + w)
        # rest starting ⟨1,1⟩/⟨1,2⟩ cannot occur: ⟨1⟩ holds the lambda
    return out


def descendants(trace: Trace, positions) -> frozenset[Position]:
    """Descendants of a position set through a finite trace or a lasso."""
    sig = trace.sig
    us = {tuple(p) for p in positions}
    for u in us:
        if not in_dom(trace.start, u):
            raise ValueError(f"position {list(u)} is not in the starting tree")
    if trace.cycle_at is None and not trace.is_closed:
        raise ValueError("descendants through a fuel-truncated trace are undefined")
    cur = us
    for s in trace.steps[: trace.cycle_at]:  # all of a finite trace
        cur = _desc_step(sig, s, cur)
    if trace.cycle_at is None:
        return frozenset(cur)
    cycle = trace.steps[trace.cycle_at:]
    cuts = [acut(sig, s.position) for s in cycle]
    persisting: set[Position] = set()
    seen: set[frozenset[Position]] = set()
    for _ in range(256):
        persisting |= {
            p for p in cur if all(not _is_prefix(c, p) for c in cuts)
        }
        key = frozenset(cur)
        if key in seen:
            return frozenset(persisting)
        seen.add(key)
        for s in cycle:
            cur = _desc_step(sig, s, cur)
    raise RuntimeError("descendant sets did not stabilize over the lasso")


def ancestor(trace: Trace, p: Position) -> Position:
    """The unique position the final-tree position p descends from."""
    if trace.cycle_at is not None:
        raise ValueError("ancestors are defined for finite traces only")
    if not in_dom(trace.final, p):
        raise ValueError(f"position {list(p)} is not in the final tree")
    v = tuple(p)
    for step in reversed(trace.steps):
        v = _ancestor_step(step, v)
    return v


def _ancestor_step(step: Step, v: Position) -> Position:
    q = step.position
    if step.rule in ("s", "bot"):
        return v
    if step.rule != "beta":
        raise ValueError(f"ancestors undefined for rule {step.rule!r}")
    if not _is_prefix(q, v):
        return v
    w = v[len(q):]
    body = node_at(step.before, q + (1, 0))
    for o in _bound_var_positions(body):
        if _is_prefix(o, w):
            return q + (2,) + w[len(o):]
    return q + (1, 0) + w


# ---------------------------------------------------------------------------
# Complete developments, operational route


def _develop_raw(
    sig: Sig, tree: Node, positions: set[Position], fuel: int
) -> tuple[Trace, Node]:
    """Contract residuals outermost-first; no final S-normalization.  A
    state is keyed by its class and its residual set."""
    rules = BetaStrict(sig)
    index = NodeIndex(rules)
    index.add(tree)
    us = {tuple(p) for p in positions}  # the residuals in the latest state

    def next_round(cur: Node) -> list[Step]:
        nonlocal us
        if not us:
            return []
        p = min(us, key=lambda q: (len(q), q))
        tag = index.test(node_at(cur, p))
        if tag is None:
            raise RuntimeError(f"residual at {list(p)} stopped being a redex")
        st = try_step(rules, cur, p, tag, sig=sig, index=index)
        us = _desc_step(sig, st, us - {p})
        return [st]

    steps, stopped, cycle_at = drive(
        index, tree, fuel, next_round, key=lambda n: (index.key(n), frozenset(us))
    )
    if us and len(steps) >= fuel:  # also when the state at fuel closes a lasso
        raise RuntimeError("development did not finish within fuel")
    # with no residual left the development is done, even if the fuel ran
    # out on the last one
    tr = Trace(sig, rules, tree, steps, stopped if us else "normal_form", cycle_at)
    return tr, p_limit(tr).tree


def develop(sig: Sig, rs: RedexSet, fuel: int = 10_000) -> tuple[Trace, Node]:
    """Complete development of a redex set, then S-normalization."""
    _check_development_sig(sig)
    _validate_redexes(sig, rs)
    if not is_guarded(sig, rs.tree):
        raise ValueError("development requires a guarded tree")
    trace, raw = _develop_raw(sig, rs.tree, set(rs.positions), fuel)
    return trace, strict_nf(sig, raw)


# ---------------------------------------------------------------------------
# Complete developments, denotational route (path labellings)


def path_labels(sig: Sig, rs: RedexSet, state_limit: int = 100_000) -> Node:
    """The development result read off from paths, without rewriting.

    A path state is (node, environment, relative redex set).  Entering a
    marked redex silently jumps into the lambda body, remembering the
    argument state; reading the bound variable of a consumed redex silently
    jumps to that argument state.  Real lambdas push a plain binder entry.
    Silent cycles mean a diverging path and produce bottom, as do result
    cycles that never cross a non-strict edge.  The result graph is
    ``trees.build`` over the path states, each resolved through its silent
    edges; more than ``state_limit + 1`` states raise ``RuntimeError``.
    """
    _check_development_sig(sig)
    tags = _validate_redexes(sig, rs)
    if not is_guarded(sig, rs.tree):
        raise ValueError("path labelling requires a guarded tree")
    # strictness redexes in the set are equivalent to leaving them alone and
    # S-normalizing at the end, which happens anyway
    us = frozenset(p for p in rs.positions if tags[p] == "beta")

    maxidx = max_bvar_indices(rs.tree)  # path states visit only its nodes

    def mk_state(n: Node, env: tuple, rel: frozenset) -> tuple:
        # keep just enough entries to cover the subtree's variable indices;
        # offset entries occupy no index position and ride along for free
        cap = maxidx[n] + 1
        kept: list = []
        count = 0
        for e in reversed(env):
            if e[0] != "o":
                if count == cap:
                    break
                count += 1
            kept.append(e)
        if len(kept) < len(env):
            env = tuple(reversed(kept))
        return (n, env, rel)

    def suffixes(rel: frozenset, i: int) -> frozenset:
        return frozenset(u[1:] for u in rel if u and u[0] == i)

    def resolve(st: tuple):
        """Follow silent edges; returns ('leaf', node) | ('emit', state) | ('div',).

        An environment holds binder entries ('b',), suspended argument states
        ('s', state), and offsets ('o', k): jumping into an argument plugs its
        result in under k output binders the argument's environment has never
        seen, so escaping indices are raised past them.
        """
        n, env, rel = st
        seen: set[tuple] = set()
        while True:
            st = mk_state(n, env, rel)
            if st in seen:
                return ("div",)
            seen.add(st)
            if () in rel and n.kind == APP and n.a.kind == LAM:
                arg_state = mk_state(n.b, env, suffixes(rel, 2))
                env = env + (("s", arg_state),)
                rel = suffixes(suffixes(rel, 1), 0)
                n = n.a.a
                continue
            if n.kind == BVAR:
                i = n.a
                above = 0  # output binders between here and the entry sought
                entry = None
                pos = len(env) - 1
                while pos >= 0:
                    e = env[pos]
                    if e[0] == "o":
                        above += e[1]
                    elif i == 0:
                        entry = e
                        break
                    else:
                        i -= 1
                        if e[0] == "b":
                            above += 1
                    pos -= 1
                if entry is None:
                    return ("leaf", bvar(above + i))  # escapes the whole tree
                if entry[0] == "s":
                    n, env, rel = entry[1]
                    if above:
                        if env and env[-1][0] == "o":
                            env = env[:-1] + (("o", env[-1][1] + above),)
                        else:
                            env = env + (("o", above),)
                    continue
                return ("leaf", bvar(above))
            return ("emit", mk_state(n, env, rel))

    expanded = 0

    def expand(st: tuple):
        nonlocal expanded
        if expanded > state_limit:
            raise RuntimeError("path-state graph exceeded its size limit")
        expanded += 1
        r = resolve(st)
        if r[0] == "div":
            return hole()  # a diverging silent cycle: bottom
        if r[0] == "leaf":
            return r[1]
        n, env, rel = r[1]
        if n.kind in (FVAR, HOLE):
            return n
        if n.kind == LAM:
            return LAM, mk_state(n.a, env + (("b",),), suffixes(rel, 0))
        if n.kind == APP:
            return APP, mk_state(n.a, env, suffixes(rel, 1)), mk_state(n.b, env, suffixes(rel, 2))
        raise TypeError(n.kind)

    result = build(mk_state(rs.tree, (), us), expand)
    result = _unguarded_to_hole(sig, result)
    return strict_nf(sig, result)


def _unguarded_to_hole(sig: Sig, t: Node) -> Node:
    """Replace nodes on strict-edge-only cycles by bottom (paths that extend
    forever without crossing a non-strict edge diverge).

    A node lies on such a cycle iff its component under the strict edges
    has one: more than one node, or a strict edge from its node to itself.
    """
    bad: set[Node] = set()
    for comp in components(reachable(t), lambda i: sig[i] == 0):
        n = comp[0]
        if len(comp) > 1 or any(c is n for i, c in children(n) if sig[i] == 0):
            bad.update(comp)
    if not bad:
        return t
    return map_graph(t, lambda n: hole() if n in bad else None)


# ---------------------------------------------------------------------------
# Strip-lemma joins


def strip_join(
    sig: Sig, long: Trace, single: Step, fuel: int = 10_000
) -> tuple[Trace, Trace, Node]:
    """Project a single step over a (possibly omega-length) reduction.

    Returns the joining reductions from both ends and the common tree; the
    projection is built tile by tile from complete developments of residuals.
    """
    if sig not in CANONICAL_SIGS:
        raise ValueError(
            "the strip lemma is only available for signatures 001, 101, 111; "
            "others admit unjoinable peaks"
        )
    if not bisimilar(long.start, single.before):
        raise ValueError("the two reductions must start from the same tree")
    rules = BetaStrict(sig)
    index = NodeIndex(rules)  # keys the tile rows
    u0 = frozenset({single.position})

    def tile(t_cur: Node, us: set[Position], step: Step, u_cur: Node):
        tr_u, _ = _develop_raw(sig, t_cur, us, fuel)
        if tr_u.cycle_at is not None:
            raise RuntimeError("a tile development diverged")
        vs = {step.position}
        for s in tr_u.steps:
            vs = _desc_step(sig, s, vs)
        tr_v, u_next = _develop_raw(sig, u_cur, vs, fuel)
        if tr_v.cycle_at is not None:
            raise RuntimeError("a tile projection diverged")
        return _desc_step(sig, step, us), tr_v.steps, u_next

    t_cur = long.start
    us: set[Position] = set(u0)
    u_cur = single.after
    top_steps: list[Step] = []

    for step in long.steps[: long.cycle_at]:
        us, seg, u_cur = tile(t_cur, us, step, u_cur)
        top_steps.extend(seg)
        t_cur = step.after

    if long.cycle_at is None:
        if not long.is_closed:
            raise ValueError("cannot join over a fuel-truncated reduction")
        bottom_tr, bottom_raw = _develop_raw(sig, t_cur, us, fuel)
        common = strict_nf(sig, bottom_raw)
        top_tr = Trace(sig, rules, single.after, top_steps, "normal_form")
        top_end = strict_nf(sig, u_cur)
        if not bisimilar(common, top_end):
            raise AssertionError("the two sides of the strip diagram disagree")
        return bottom_tr, top_tr, common

    # lasso: unroll the cycle until the whole tile row repeats
    cycle = long.steps[long.cycle_at:]
    boundaries: dict[tuple, int] = {}
    top_cycle_at: int | None = None
    for _ in range(256):
        index.add(t_cur)
        index.add(u_cur)
        bkey = (index.key(t_cur), frozenset(us), index.key(u_cur))
        if bkey in boundaries:
            top_cycle_at = boundaries[bkey]
            break
        boundaries[bkey] = len(top_steps)
        for step in cycle:
            us, seg, u_cur = tile(t_cur, us, step, u_cur)
            top_steps.extend(seg)
            t_cur = step.after
    if top_cycle_at is None:
        raise RuntimeError("the strip tiling over the lasso did not stabilize")

    if top_cycle_at == len(top_steps):
        # the projected side stopped producing steps: it is already settled
        top_tr = Trace(sig, rules, single.after, top_steps, "normal_form")
        common = strict_nf(sig, u_cur)
    else:
        top_tr = Trace(sig, rules, single.after, top_steps, "cycle", top_cycle_at)
        common = strict_nf(sig, p_limit(top_tr).tree)

    long_end = p_limit(long).tree
    u_omega = descendants(long, u0)
    bottom_tr, bottom_raw = _develop_raw(sig, long_end, set(u_omega), fuel)
    bottom_end = strict_nf(sig, bottom_raw)
    if not bisimilar(common, bottom_end):
        raise AssertionError("the two sides of the strip diagram disagree")
    return bottom_tr, top_tr, common


# ---------------------------------------------------------------------------
# Joinability of peaks


@dataclass(frozen=True)
class JoinResult:
    status: str  # "joined" | "failed" | "unknown"
    tree: Node | None = None
    detail: str = ""

    @property
    def joined(self) -> bool:
        return self.status == "joined"


def _beta_normalize(sig: Sig, tree: Node, fuel: int, depth: int) -> Node:
    cur = tree
    for _ in range(32):
        if has_kind(cur, UNKNOWN, CUT):
            return cur
        tr = run_strategy(Beta(), "leftmost-outermost", cur, fuel, sig=sig)
        nxt = p_limit(tr, depth).tree
        if tr.is_closed or bisimilar(nxt, cur):
            return nxt
        cur = nxt
    return cur


def _same_run(a: Trace, b: Trace) -> bool:
    """Do two traces hold the same steps, one for one, from the same start
    with the same stop, so that ``p_limit`` gives both the same endpoint?"""
    return (
        a.start is b.start
        and a.sig == b.sig
        and (a.classes is None) == (b.classes is None)
        and (a.stopped, a.cycle_at) == (b.stopped, b.cycle_at)
        and len(a.steps) == len(b.steps)
        and all(x is y for x, y in zip(a.steps, b.steps))
    )


def joinability(
    sig: Sig,
    t: Node,
    trace1: Trace,
    trace2: Trace,
    fuel: int = 10_000,
    depth: int = 16,
) -> JoinResult:
    """Do the two reductions from t reach a common tree?

    Both endpoints are normalized under the traces' own rule discipline:
    plain beta traces get iterated beta normalization (no bottom rules), any
    other discipline gets the full infinitary normal form.  A second trace
    that holds the first one's ``Step`` objects one for one, from the same
    start with the same stop, as the two runs of ``ilc join`` on one index
    often do, has the first one's endpoint and normal form, which are not
    taken again.
    """
    for tr in (trace1, trace2):
        if not bisimilar(tr.start, t):
            raise ValueError("both reductions must start at the given tree")
    pure_beta = isinstance(trace1.rules, Beta) and isinstance(trace2.rules, Beta)
    norms = []
    for tr in (trace1, trace2):
        if norms and _same_run(trace1, trace2):
            norms.append(norms[0])
            continue
        end = p_limit(tr, depth).tree
        if pure_beta:
            norms.append(_beta_normalize(sig, end, fuel, depth))
        else:
            if has_kind(end, UNKNOWN, CUT):
                return JoinResult("unknown", detail="an endpoint limit is undetermined")
            ap = bohm_tree(sig, end, depth, fuel)
            norms.append(ap.tree)
    agree = agree_where_defined(norms[0], norms[1])
    if agree is False:
        return JoinResult("failed", detail="the normal forms disagree")
    if agree is None:
        return JoinResult("unknown", detail="undetermined leaves prevent a verdict")
    return JoinResult("joined", norms[0])
