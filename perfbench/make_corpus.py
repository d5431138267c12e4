"""Build the benchmark corpus: input pools with their expected answers.

    python3 perfbench/make_corpus.py [--gen-seed 1] [--out perfbench/corpus]

For each workload this draws a pool of CLI invocations from the seeded
generators in ``gen.py``, runs each one through ``ilc.cli.main`` with empty
caches, and stores the exit code and the output.  Every answer is checked
against an independent route before it is stored:

* ``tree`` on a hole-free input: ``m_route_tree`` agrees with ``bohm_tree``
  wherever neither has a Cut/Unknown leaf;
* ``trace``: the exported trace decodes, passes ``Trace.check()``, and every
  step's recorded context is bisimilar to ``context_via_glb``;
* ``dev``: the two development routes report ``agree: true``;
* ``order`` on finite trees: the glb equals the brute-force glb of
  ``tests/oracles.py``.

A disagreement is a defect of the library: the input stays in the corpus
with the disagreement recorded in its ``crosscheck`` field, and the script
lists it at the end.  An op that raises stops the script, because a workload
may hold only inputs on which no operation fails.

The committed corpus uses generator seed 1.  Generator seed 0 is kept
unused so that a claimed gain can be confirmed on inputs no one tuned on:
build it with ``--gen-seed 0 --out DIR`` and run ``run.py --corpus DIR``.
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from answers import answer_digest, parse_output_tree  # noqa: E402

# workload -> (pool, items per cell for items without a cell of their own).
# A round takes one item of each cell: larger cells give shorter rounds, so
# each op runs more often in the timed phase, but a wider cost range within
# a cell.  Lasso ops are costly and take cells of 4; the cheap workloads take
# pairs.  Growth items all bring their own cells; at trace fuel 14 its round
# of 108 ops takes about as long as the others' rounds.
POOLS = {
    "lasso": (lambda rng: gen.lasso_pool(rng, per_sig=50), 4),
    "growth": (lambda rng: gen.growth_pool(rng, trace_fuel=14, join_fuel=20), 2),
    "normal-form": (lambda rng: gen.normal_form_pool(rng, randoms=200), 2),
    "order-dev": (lambda rng: gen.order_dev_pool(rng, pairs=120, finite_pairs=80, devs=120), 2),
}

# the m-route replays every step through the bottom oracle; on the infinite
# generators it needs seconds per 100 steps, so it cross-checks at this fuel
MROUTE_FUEL = 40


def run_op(main, clear, argv):
    clear()
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def stratum(item: dict, code: int, doc) -> str:
    """Outcome class used to stratify the per-round sample."""
    parts = [item["family"], item["argv"][0], str(code)]
    if item["argv"][0] == "trace":
        parts.append(doc["metadata"]["stopped"])
    return ":".join(parts)


def assign_cells(items: list[dict], size: int) -> None:
    """Group the items that have no cell yet, ``size`` at a time.

    Within each outcome stratum such items are ordered by size (input plus
    expected output, a proxy for cost) and grouped with their neighbours, so
    that whichever item of a cell a round takes, every round holds the same
    mix of cheap and costly ops.
    """
    strata: dict[str, list[int]] = {}
    for k, item in enumerate(items):
        if "cell" not in item:
            strata.setdefault(item["stratum"], []).append(k)
    for name, ks in strata.items():
        ks.sort(key=lambda k: (items[k]["size"], k))
        for j, k in enumerate(ks):
            items[k]["cell"] = f"{name}#{j // size}"


def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def crosscheck(item: dict, doc) -> str | None:
    """None if the independent route agrees, else a description."""
    from ilc.convergence import context_via_glb
    from ilc.meaningless import clear_caches, m_route_tree
    from ilc.rewriting import trace_decode
    from ilc.terms import parse_sig, parse_term
    from ilc.trees import CUT, UNKNOWN, bisimilar, children, parse_tree, tree_of_term
    from oracles import glb_oracle

    argv = item["argv"]
    cmd, sig = argv[0], parse_sig(_opt(argv, "--sig", "111"))
    if cmd == "tree" and "bot" not in argv[-1]:
        clear_caches()
        depth = int(_opt(argv, "--depth"))
        fuel = min(int(_opt(argv, "--fuel")), MROUTE_FUEL)
        other = m_route_tree(sig, parse_tree(argv[-1]), depth, fuel).tree
        mine = parse_output_tree(doc["tree"])
        seen, stack = set(), [(mine, other)]
        while stack:
            x, y = stack.pop()
            if (id(x), id(y)) in seen:
                continue
            seen.add((id(x), id(y)))
            if x.kind in (CUT, UNKNOWN) or y.kind in (CUT, UNKNOWN):
                continue
            if x.kind == "fvar" and x.a.startswith("__"):  # an Unknown/Cut marker
                continue
            if x.kind != y.kind or x.kind in ("fvar", "bvar") and x.a != y.a:
                return "bohm_tree and m_route_tree disagree on the defined region"
            stack.extend(zip((c for _, c in children(x)), (c for _, c in children(y))))
    elif cmd == "trace":
        tr = trace_decode(doc)
        tr.check()
        for i, step in enumerate(tr.steps):
            if not bisimilar(context_via_glb(sig, step), step.context):
                return f"step {i}: recorded context differs from context_via_glb"
    elif cmd == "dev":
        if doc["agree"] is not True:
            return "develop and path_labels disagree"
    elif cmd == "order" and item["family"] == "finite-pair":
        want = glb_oracle(sig, parse_term(argv[-2]), parse_term(argv[-1]))
        if want is not None and not bisimilar(tree_of_term(want), parse_output_tree(doc["glb"])):
            return "glb differs from the brute-force glb"
    return None


def build(workload: str, gen_seed: int, out_dir: Path) -> list[str]:
    from ilc import cli, meaningless

    rng = random.Random(f"{workload}/{gen_seed}")
    make_pool, cell_size = POOLS[workload]
    pool = make_pool(rng)
    items, answers, problems = [], [], []
    for k, item in enumerate(pool):
        code, out, err = run_op(cli.main, meaningless.clear_caches, item["argv"])
        if code not in (0, 2) or err:
            raise SystemExit(f"{workload} item {k} failed with exit {code}: {err.strip()}\n{item['argv']}")
        doc = json.loads(out)
        note = crosscheck(item, doc)
        if note:
            problems.append(f"{workload} item {k}: {note}: {' '.join(item['argv'])}")
        items.append({
            **item,
            "stratum": stratum(item, code, doc),
            "digest": answer_digest(code, out, err),
            "size": len(out) + sum(map(len, item["argv"])),
            **({"crosscheck": note} if note else {}),
        })
        answers.append({"code": code, "stdout": out, "stderr": err})
    assign_cells(items, cell_size)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {"workload": workload, "gen_seed": gen_seed, "items": items}
    (out_dir / f"{workload}.json").write_text(json.dumps(meta, indent=0) + "\n")
    # mtime=0 keeps the file byte-identical when nothing changed
    with gzip.GzipFile(out_dir / f"{workload}.answers.json.gz", "wb", mtime=0) as f:
        f.write(json.dumps(answers).encode())
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gen-seed", type=int, default=1)
    ap.add_argument("--out", type=Path, default=HERE / "corpus")
    args = ap.parse_args()
    problems = []
    for w in sorted(POOLS):
        problems += build(w, args.gen_seed, args.out)
        print(f"{w}: written", flush=True)
    for p in problems:
        print("DISAGREEMENT", p)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
