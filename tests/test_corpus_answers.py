"""Every answer of the stored benchmark corpora is byte-identical.

The benchmark's own check accepts a tree printed as a different but
bisimilar ``rec`` literal; this one does not.  Each item of
``perfbench/corpus/<workload>.json`` runs through ``cli.main``, with the
``meaningless`` caches cleared first as ``perfbench/run.py`` clears them, and
its exit code, standard output and standard error must have the stored
digest: the sha256 of ``json.dumps([code, stdout, stderr])``, as
``perfbench/answers.py`` computes it.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from ilc import cli, meaningless

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"
WORKLOADS = ("lasso", "growth", "normal-form", "order-dev")


def answer_digest(code: int, stdout: str, stderr: str) -> str:
    return hashlib.sha256(json.dumps([code, stdout, stderr]).encode()).hexdigest()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_corpus_answer_is_byte_identical(workload):
    items = json.loads((CORPUS / f"{workload}.json").read_text())["items"]
    assert items
    wrong = []
    for item in items:
        out, err = io.StringIO(), io.StringIO()
        meaningless.clear_caches()
        code = cli.main(list(item["argv"]), out=out, err=err)
        if answer_digest(code, out.getvalue(), err.getvalue()) != item["digest"]:
            wrong.append(item["argv"])
    assert not wrong, f"{len(wrong)} of {len(items)} answers differ, first: {wrong[0]}"
