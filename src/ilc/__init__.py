"""Partial-order infinitary lambda calculi.

Eight calculi, one per strictness signature, over possibly infinite lambda
trees represented as finite regular graphs: the approximation order and its
glbs/lubs, beta/eta/strictness rewriting with omega-length lassos, m- and
p-convergence analysis, meaningless-term detection, depth-bounded Bohm-like
tree normal forms (Bohm, Levy-Longo, Berarducci for 001, 101, 111),
residuals and complete developments, and confluence joins.
"""

from .convergence import (
    ConvergenceReport,
    MVerdict,
    analyze,
    analyze_m_convergence,
    context_via_glb,
    p_limit,
    volatile_positions,
)
from .developments import (
    JoinResult,
    RedexSet,
    ancestor,
    descendants,
    develop,
    joinability,
    path_labels,
    strip_join,
)
from .meaningless import (
    TriVerdict,
    bohm_tree,
    in_bot_instances,
    is_active,
    is_stable,
    m_route_tree,
    reduces_to_lam,
    strict_nf,
)
from .order import Lasso, OrderVerdict, compare, glb, liminf_approx, lub_chain, term_leq, tree_leq
from .rewriting import (
    Beta,
    BetaStrict,
    BohmBot,
    Eta,
    RuleSystem,
    Step,
    Strict,
    Trace,
    first_redex,
    redexes,
    rule_system,
    run_strategy,
    trace_decode,
    trace_export,
    try_step,
)
from .terms import (
    ALL_SIGS,
    CANONICAL_SIGS,
    ParseError,
    Position,
    Sig,
    Term,
    acut,
    adepth,
    parse_sig,
    parse_term,
    render_term,
    sig_str,
)
from .trees import (
    Approximant,
    Node,
    alpha_eq,
    bisimilar,
    canon,
    conflicts,
    is_guarded,
    parse_tree,
    render_tree,
    term_distance,
    term_height,
    term_of_tree,
    tree_distance,
    tree_of_term,
    truncate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
