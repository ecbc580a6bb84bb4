"""Smoke test of the benchmark at tiny sizes, with every checker on.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs one tiny round untraced and one traced run; the only
failures allowed are the known defects of defects.py.  It also checks
that BENCHMARK.json names exactly the metrics the runs print, that work
counts repeat for a seed, and that the benchmark refuses to run without
refshift's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, str(run.SRC))
run.OUT.mkdir(exist_ok=True)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7
EXACT = ("calls", "gens_out", "runs_out", "digits_out", "steps", "words_out", "tables", "ratio")


def tiny(name):
    rounds, ctx, _ = run.set_up(run.WORKLOADS[name], SEED, tiny=True)
    return rounds, ctx


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_only_known_defects_fail(name):
    rounds, _ = tiny(name)
    tally = run.closed_loop(rounds, spans.NullTracer(), n_rounds=1)
    assert tally.attempted == sum(map(len, rounds))
    assert tally.unexpected == []
    assert set(tally.defect_failures) <= {op.defect for rnd in rounds for op in rnd if op.defect}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    rounds, ctx = tiny(name)
    tally, metrics = run.traced_run(run.WORKLOADS[name], rounds, ctx, SimpleNamespace(seed=SEED))
    assert tally.unexpected == []
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert [u for _, u in metrics.values()] == [m["unit"] for m in SPEC["per_layer"]]
    assert (run.OUT / f"spans-{name}-{SEED}.jsonl").is_file()


@pytest.mark.parametrize("name", ["shift-deep", "godel-runs", "engines-mix"])
def test_work_counts_repeat_for_a_seed(name):
    counts = []
    for _ in range(2):
        rounds, ctx = tiny(name)
        _, metrics = run.traced_run(run.WORKLOADS[name], rounds, ctx, SimpleNamespace(seed=SEED))
        counts.append({k: v for k, (v, _) in metrics.items() if k.endswith(EXACT)})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_spec_matches_the_harness():
    assert [m["name"] for m in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [n for n, _ in layers.PER_LAYER] == [m["name"] for m in SPEC["per_layer"]]
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert names == ["setup_s", "ops_per_s", "op_p50_ms", "op_p95_ms", "pass_rate", "peak_rss_mb"]


def test_refuses_to_run_without_sources():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "shift-deep", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                       timeout=180)
    shutil.rmtree(bare)
    assert p.returncode != 0
    assert "{" not in p.stdout
