"""Closed-loop benchmark of the ilc CLI, end to end and per layer.

    python3 perfbench/run.py --workload lasso --seed 3 --seconds 20 --trace 0

Run it from the repository root; it imports the library from ``src/``.  One
process, one thread, one caller: each op is one in-process call of
``ilc.cli.main(argv, out=..., err=...)`` and the next op starts when it
returns.  Before each op the library caches are cleared, as a fresh ``ilc``
process would find them.

The inputs come from the stored corpus (``corpus/<workload>.json``, built by
``make_corpus.py``).  ``--seed`` draws a round from it: one item of each
cell of items of about equal cost, shuffled (see ``Corpus.round``).  After
one warm-up op per subcommand, the timed phase runs whole rounds, at least
``MIN_ROUNDS`` and until ``--seconds`` seconds have passed, so every run
measures the same mix of ops.  Every op's answer is checked against the
stored one; checking time is excluded from the timed phase.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each op of
the round untraced and then traced, whole rounds until ``--seconds`` have
passed, and prints the per-layer metrics per round (see ``tracer.py``); it writes the
spans to ``perfbench/out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("lasso", "growth", "normal-form", "order-dev")
# fresh interpreters timed for setup_s, half before and half after the timed
# phase, so that the median spans the run's machine conditions
SETUP_RUNS = 20
MIN_ROUNDS = 3  # every op runs at least this often in the timed phase


class Corpus:
    def __init__(self, directory: Path, workload: str):
        self.answers_path = directory / f"{workload}.answers.json.gz"
        self.items = json.loads((directory / f"{workload}.json").read_text())["items"]
        self._answers = None

    def round(self, seed: int, workload: str) -> list[int]:
        """The seed picks one item of each cell; the picks are shuffled.

        Cells group items of about the same cost (see ``make_corpus.py``),
        so every round holds the same mix of cheap and costly ops.
        """
        rng = random.Random(f"{workload}/{seed}")
        cells: dict[str, list[int]] = defaultdict(list)
        for k, item in enumerate(self.items):
            cells[item["cell"]].append(k)
        picked = [rng.choice(cells[c]) for c in sorted(cells)]
        rng.shuffle(picked)
        return picked

    def check(self, k: int, code, stdout: str, stderr: str) -> bool:
        from answers import answer_digest, answers_match

        if code is None:
            return False
        if answer_digest(code, stdout, stderr) == self.items[k]["digest"]:
            return True
        if self._answers is None:  # loaded only when a digest differs
            with gzip.open(self.answers_path, "rt", encoding="utf-8") as f:
                self._answers = json.load(f)
        return answers_match(self._answers[k], code, stdout, stderr)


class Runner:
    """Runs single ops and keeps the tallies."""

    def __init__(self, corpus: Corpus):
        from ilc import cli, meaningless

        self.cli, self.meaningless = cli, meaningless
        self.corpus = corpus
        self.attempted = 0
        self.failed = 0
        self.check_time = 0.0

    def clear_caches(self) -> None:
        clear = getattr(self.meaningless, "clear_caches", None)
        if clear is not None:
            clear()

    def op(self, k: int, count: bool = True) -> float:
        """Run item k once; return the wall time of clearing the caches
        and the main call, which every op pays."""
        out, err = io.StringIO(), io.StringIO()
        argv = list(self.corpus.items[k]["argv"])
        t0 = perf_counter()
        self.clear_caches()
        try:
            code = self.cli.main(argv, out=out, err=err)
        except Exception as e:  # a crash is a failed op, not a stopped run
            code = None
            print(f"op {k} raised {type(e).__name__}: {e}", file=sys.stderr)
        t1 = perf_counter()
        ok = self.corpus.check(k, code, out.getvalue(), err.getvalue())
        self.check_time += perf_counter() - t1
        if count:
            self.attempted += 1
            self.failed += not ok
        if not ok:
            print(f"op {k} failed its answer check: {' '.join(argv)}", file=sys.stderr)
        return t1 - t0

    def warm_up(self, rnd: list[int]) -> None:
        """One uncounted op per subcommand, before anything is timed."""
        seen = set()
        for k in rnd:
            cmd = self.corpus.items[k]["argv"][0]
            if cmd not in seen:
                seen.add(cmd)
                self.op(k, count=False)


def setup_samples(count: int) -> list[float]:
    """Times for fresh interpreters to import ilc.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = (
        "import time; t = time.perf_counter(); import ilc.cli; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(count):
        r = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(r.stdout))
    return times


def percentile(xs: list[float], q: int) -> float:
    """The q-th percentile (inclusive method, as statistics.quantiles)."""
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_timed(runner: Runner, rnd: list[int], seconds: float) -> dict:
    """End-to-end metrics.

    Each op of the round runs once per round, and its latency is the least
    wall time of its runs.  On a shared machine, interference only ever adds
    time, and its slow phases last seconds; the least of runs spread over
    the whole timed phase is what the code itself costs.  The percentiles
    are taken over these per-op latencies (every round holds more than 100
    ops, so more than ten lie beyond the 90th), and ``ops_per_s`` is the
    passed share of the round's ops over their sum: the throughput of the
    timed phase with each op at its least wall time.
    """
    runner.warm_up(rnd)
    setup_samples(1)  # the first one may compile bytecode
    setup = setup_samples(SETUP_RUNS // 2)
    lat: dict[int, list[float]] = defaultdict(list)
    runner.check_time = 0.0
    start = perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() - start - runner.check_time < seconds:
        for k in rnd:
            lat[k].append(runner.op(k))
        rounds += 1
    wall = perf_counter() - start - runner.check_time
    setup += setup_samples(SETUP_RUNS - len(setup))
    per_op = [min(lat[k]) for k in rnd]
    passed = (runner.attempted - runner.failed) / runner.attempted
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(per_op)
    print(f"{runner.attempted} ops in {wall:.3f} s: {rounds} rounds of {n}, failed {runner.failed}")
    print(f"ops_failed_frac {runner.failed / runner.attempted:.6f}")
    m = {
        "ops_per_s": metric(passed * n / sum(per_op), "1/s"),
        "latency_p50_ms": metric(statistics.median(per_op) * 1e3, "ms"),
        "latency_p90_ms": metric(percentile(per_op, 90) * 1e3, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    for name, v in m.items():
        extra = f"  (n={n} ops x {rounds} rounds)" if name.startswith("latency") else ""
        print(f"{name} {v['value']:.6g} {v['unit']}{extra}")
    return m


def run_traced(runner: Runner, rnd: list[int], seconds: float, spans_path: Path) -> dict:
    from tracer import SPANS, Tracer

    def cache_size(name: str) -> int | None:
        # the module-global caches, while the library keeps them there
        cache = getattr(runner.meaningless, f"_{name}_cache", None)
        return None if cache is None else len(cache)

    runner.warm_up(rnd)
    tracer = Tracer()
    untraced = traced = 0.0
    entries = {name: 0 for name in ("active", "whnf") if cache_size(name) is not None}
    rounds = 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds:
        for k in rnd:
            # the untraced run of the same op, just before, gives the overhead
            untraced += runner.op(k)
            tracer.op += 1
            runner.clear_caches()  # so that the sizes below start empty
            before = {name: cache_size(name) for name in entries}
            tracer.install()
            try:
                traced += runner.op(k)
            finally:
                tracer.uninstall()
            for name in entries:
                entries[name] += cache_size(name) - before[name]
        rounds += 1
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)

    per = 1.0 / rounds
    selfs = tracer.self_times()
    m: dict[str, dict] = {}
    sized = {name for name, _, _, size, _ in SPANS if size is not None}
    for name in dict.fromkeys(name for name, *_ in SPANS):
        m[f"{name}.calls"] = metric(tracer.calls[name] * per, "count")
        if name in sized:
            m[f"{name}.nodes"] = metric(tracer.nodes[name] * per, "count")
        m[f"{name}.self_s"] = metric(selfs.get(name, 0.0) * per, "s")
    m["rewriting.run_strategy.steps"] = metric(tracer.extra["rewriting.run_strategy.steps"] * per, "count")
    m["trees.reachable.calls"] = metric(tracer.calls["trees.reachable"] * per, "count")
    m["trees.reachable.nodes"] = metric(tracer.nodes["trees.reachable"] * per, "count")
    for cache, fn in (("active", "is_active"), ("whnf", "reduces_to_lam")):
        if cache not in entries:
            continue
        calls = tracer.calls[f"meaningless.{fn}"]
        hits = calls - entries[cache] - tracer.extra[f"meaningless.{fn}.unknown"]
        m[f"meaningless.{cache}_cache.hit_ratio"] = metric(hits / calls if calls else 0.0, "ratio")
    main_total = sum(s[5] for s in tracer.spans if s[1] == "cli.main")
    m["trace.overhead_frac"] = metric(traced / untraced - 1.0, "ratio")
    print(f"rounds {rounds} of {len(rnd)} ops; traced main {main_total * per:.4f} s per round")
    for name, v in sorted(m.items(), key=lambda kv: kv[0]):
        share = ""
        if name.endswith(".self_s") and main_total:
            share = f"  ({v['value'] / (main_total * per):.1%} of main)"
        print(f"{name} {v['value']:.6g} {v['unit']}{share}")
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description="ilc CLI benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus", type=Path, default=HERE / "corpus",
                    help="corpus directory (default: the committed one)")
    args = ap.parse_args()

    if not (SRC / "ilc" / "cli.py").is_file():
        print(f"run.py: no library at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if not (args.corpus / f"{args.workload}.json").is_file():
        print(f"run.py: no corpus for {args.workload} in {args.corpus}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import ilc

    if Path(ilc.__file__).resolve().parent != SRC / "ilc":
        print(f"run.py: imported ilc from {ilc.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    corpus = Corpus(args.corpus, args.workload)
    rnd = corpus.round(args.seed, args.workload)
    runner = Runner(corpus)
    if args.trace:
        spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        metrics = run_traced(runner, rnd, args.seconds, spans)
    else:
        metrics = run_timed(runner, rnd, args.seconds)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
