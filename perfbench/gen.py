"""Seeded input generators for the benchmark workloads.

The random-term generators are ported from the test suite's generators
(``random_term``, ``random_redexy_term``, ``random_loopy_tree`` and the
hole-free filter) so that an edit to the tests cannot change a workload.
Terms are plain tuples rendered to CLI source text; nothing here imports the
library, so the inputs do not depend on the code being measured.

    ("bot",) | ("var", name) | ("lam", name, body) | ("app", fun, arg)

Each ``*_pool`` function returns a list of pool items ``{"argv": [...],
"family": str}``, some with a ``cell``: a round of the benchmark takes one
item of each cell.  ``make_corpus.py`` adds the expected answers and pairs
the items that have no cell.
"""

from __future__ import annotations

import math
import random

SIGS = ["000", "001", "010", "011", "100", "101", "110", "111"]
STRATEGIES = ["lmo", "po", "d0"]

OMEGA = r"(\x.x x) (\x.x x)"
GROWER = r"(\x.x x y) (\x.x x y)"
Y = r"(\f.(\x.f (x x)) (\x.f (x x)))"


# ---------------------------------------------------------------------------
# Tuple terms


def render(t) -> str:
    """ASCII source text: application is left-associative, lambda scopes right."""
    kind = t[0]
    if kind == "bot":
        return "bot"
    if kind == "var":
        return t[1]
    if kind == "lam":
        return f"\\{t[1]}.{render(t[2])}"
    f, a = t[1], t[2]
    fs = f"({render(f)})" if f[0] == "lam" else render(f)
    as_ = f"({render(a)})" if a[0] in ("lam", "app") else render(a)
    return f"{fs} {as_}"


def random_term(rng: random.Random, size: int, depth: int = 0, free=("x", "y")):
    if size <= 1:
        kinds = ["bot", "free"] + (["bound"] if depth else [])
        k = rng.choice(kinds)
        if k == "bot":
            return ("bot",)
        if k == "bound":
            return ("var", f"v{rng.randrange(depth)}")
        return ("var", rng.choice(free))
    k = rng.choice(["lam", "app", "app"]) if size >= 3 else "lam"
    if k == "lam":
        return ("lam", f"v{depth}", random_term(rng, size - 1, depth + 1, free))
    ls = rng.randrange(1, size - 1)
    return (
        "app",
        random_term(rng, ls, depth, free),
        random_term(rng, size - 1 - ls, depth, free),
    )


def random_redexy_term(rng: random.Random, size: int):
    """Random terms biased toward containing beta redexes."""
    if size < 4 or rng.random() < 0.3:
        return random_term(rng, max(size, 1))
    body = random_term(rng, (size - 2) // 2, depth=1)
    arg = random_term(rng, size - 2 - (size - 2) // 2)
    t = ("app", ("lam", "v0", _use_v0(rng, body)), arg)
    if rng.random() < 0.4:
        t = ("app", t, random_term(rng, 2))
    return t


def _use_v0(rng: random.Random, t):
    # sprinkle occurrences of the binder into a body generated blind
    kind = t[0]
    if kind == "bot":
        return ("var", "v0") if rng.random() < 0.5 else t
    if kind == "var":
        return ("var", "v0") if rng.random() < 0.3 else t
    if kind == "lam":
        return ("lam", t[1], _use_v0(rng, t[2]))
    return ("app", _use_v0(rng, t[1]), _use_v0(rng, t[2]))


def random_loopy_term(rng: random.Random) -> str:
    """A random redex term, in 60% of draws combined with a looping term."""
    t = render(random_redexy_term(rng, rng.randrange(3, 9)))
    if rng.random() < 0.6:
        base = rng.choice([OMEGA, GROWER, rf"(\x.y) ({OMEGA})"])
        shape = rng.randrange(3)
        if shape == 0:
            return f"({t}) ({base})"
        if shape == 1:
            return f"({base}) ({t})"
        return rf"\w.w ({base})"
    return t


def hole_free_term(rng: random.Random) -> str:
    """A random redex term without bottom leaves."""
    while True:
        s = render(random_redexy_term(rng, rng.randrange(2, 10)))
        if "bot" not in s:
            return s


# ---------------------------------------------------------------------------
# Structured families


def church(n: int) -> str:
    body = "x"
    for _ in range(n):
        body = f"f ({body})"
    return rf"(\f.\x.{body})"


def cyclic_tree(period: int, leaf: str) -> str:
    """``rec M. \\a0.a0 y (\\a1.a1 y (... M))``: period lambdas per cycle."""
    inner = "M"
    for i in reversed(range(period)):
        inner = rf"(\a{i}.a{i} {leaf} {inner})"
    return f"rec M. {inner}"


# The glb of two cycles with coprime periods p and q has a cycle of p*q
# lambdas; render_tree recurses once per node and overflows the interpreter
# stack near 250 lambdas.  Deeper inputs belong to the deep-nesting series.
MAX_GLB_CYCLE = 200


def _guarded_for_cycle(sig: str) -> bool:
    # the cycle of ``cyclic_tree`` crosses lambda-body and argument edges only
    return sig[0] == "1" or sig[2] == "1"


NF_GENERATORS = [
    rf"{Y} (\f.\x.x (f x))",
    rf"{Y} (\s.\c.c a s)",
    rf"{Y} (\f.\x.f)",
    GROWER,
    rf"{church(2)} {church(3)}",
    rf"{church(3)} {church(2)}",
    rf"\x.{OMEGA}",
    rf"({OMEGA}) y",
]

# exhausts --fuel under these signatures; its cost climbs steeply with fuel
NF_FUEL_OUT = rf"{Y} (\f.\x.f (x f))"
NF_FUEL_OUT_SIGS = ["100", "101", "110", "011"]
# at --fuel 150 one such op takes 2-4 s, which would swamp the workload
NF_FUEL_OUT_FUEL = 50


# ---------------------------------------------------------------------------
# Pools


def _item(family: str, argv: list[str], cell: str | None = None) -> dict:
    item = {"family": family, "argv": argv}
    if cell is not None:
        item["cell"] = cell
    return item


def lasso_pool(rng: random.Random, per_sig: int) -> list[dict]:
    out = []
    k = 0
    for sig in SIGS:
        for _ in range(per_sig):
            term = random_loopy_term(rng)
            strategy = STRATEGIES[k % 3]
            k += 1
            out.append(_item("loopy", [
                "trace", "--format", "json", "--ascii", "--rules", "betas", "--fuel", "40",
                "--sig", sig, "--strategy", strategy, term,
            ]))
    return out


def growth_pool(rng: random.Random, trace_fuel: int, join_fuel: int) -> list[dict]:
    """Church arithmetic traces and stream joins.

    Each m, n <= 6 gives two church cells, ``m n g z`` and ``m n``, whose
    items differ only in the signature.  No term holds a bottom, so no strictness rule fires and the signature changes
    only the recorded depths and contexts: the items of a cell cost about
    the same, and a round takes one item per cell.  Each join is a cell of
    its own, so that a round holds more than 100 ops and its 90th latency
    percentile has more than ten ops beyond it.
    """
    out = []
    for m in range(1, 7):
        for n in range(1, 7):
            for shape in (" g z", ""):
                term = f"{church(m)} {church(n)}{shape}"
                rules = rng.choice(["beta", "betas"])
                strategy = rng.choice(STRATEGIES)
                for sig in rng.sample(SIGS, 2):
                    out.append(_item("church", [
                        "trace", "--format", "json", "--ascii", "--rules", rules,
                        "--fuel", str(trace_fuel), "--sig", sig, "--strategy", strategy, term,
                    ], cell=f"church {m} {n}{shape}"))
    streams = [
        rf"{Y} (\s.c a s)",
        rf"{Y} (\s.\c.c a s)",
        rf"{Y} (\s.s a)",
        rf"{Y} (\f.\x.x (f x))",
        GROWER,
        rf"({GROWER}) z",
    ]
    for j, term in enumerate(streams):
        for rules in ("beta", "betas"):
            for sig in ("001", "101", "111"):
                out.append(_item("stream", [
                    "join", "--format", "json", "--ascii", "--rules", rules,
                    "--fuel", str(join_fuel), "--sig", sig, term,
                ], cell=f"stream {j} {rules} {sig}"))
    return out


def normal_form_pool(rng: random.Random, randoms: int) -> list[dict]:
    out = []

    def tree(family, term, sig, depth, fuel=150, cell=None):
        out.append(_item(family, [
            "tree", "--format", "json", "--ascii", "--fuel", str(fuel), "--depth", str(depth),
            "--sig", sig, term,
        ], cell))

    # the generator grid is in every round: one cell per item
    for term in NF_GENERATORS:
        for sig in SIGS:
            tree("generator", term, sig, rng.choice([16, 32, 48]), cell=f"{term} {sig}")
    for sig in NF_FUEL_OUT_SIGS:
        tree("fuel-out", NF_FUEL_OUT, sig, rng.choice([16, 32, 48]), NF_FUEL_OUT_FUEL,
             cell=f"fuel-out {sig}")
    for _ in range(randoms):
        tree("random", hole_free_term(rng), rng.choice(SIGS), rng.choice([16, 32, 48]))
    return out


def order_dev_pool(rng: random.Random, pairs: int, finite_pairs: int, devs: int) -> list[dict]:
    out = []
    guarded = [s for s in SIGS if _guarded_for_cycle(s)]
    while len(out) < pairs:
        p, q = rng.randrange(3, 18), rng.randrange(3, 18)
        if math.gcd(p, q) != 1 or p * q > MAX_GLB_CYCLE:
            continue
        a = cyclic_tree(p, "y")
        b = cyclic_tree(q, rng.choice(["y", "z"]))
        cmd = rng.choice(["order", "dist"])
        out.append(_item("cyclic-pair", [
            cmd, "--format", "json", "--ascii", "--sig", rng.choice(guarded), a, b,
        ]))
    # small finite pairs, whose glb the brute-force oracle can confirm
    for _ in range(finite_pairs):
        a = render(random_term(rng, rng.randrange(1, 7)))
        b = render(random_term(rng, rng.randrange(1, 7)))
        out.append(_item("finite-pair", [
            "order", "--format", "json", "--ascii", "--sig", rng.choice(SIGS), a, b,
        ]))
    for _ in range(devs):
        term = render(random_redexy_term(rng, rng.randrange(4, 13)))
        out.append(_item("dev", [
            "dev", "--format", "json", "--ascii", "--all", "--sig", rng.choice(["001", "101", "111"]), term,
        ]))
    return out
