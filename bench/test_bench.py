"""Smoke tests of the benchmark itself.

    python3 -m pytest -q bench

Every workload runs at a tiny size, untraced and traced; corrupted outputs
must show up as failed items; the command-line result at each workload's
own size matches BENCHMARK.json.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import chargraph.duke  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {"fuzz-k10": 140, "fuzz-k7-certs": 160, "psl2-sweep": 300, "corpus-verify": 60}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, size: int | None = None):
    wl = copy.copy(workloads.WORKLOADS[name])
    wl.size = size or TINY[name]
    return wl


def untraced(name: str, seed: int = 5):
    wl = tiny(name)
    inp = wl.prepare(seed)
    return wl, inp, wl.run(inp, None, workloads.untimed)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_is_correct_and_replay_matches(name):
    wl, inp, out = untraced(name)
    assert wl.check(inp, out) == (0, [])

    tr = tracer.Tracer()
    undo = tracer.install(tr)
    try:
        inp_t = wl.prepare(5)
        out_t = wl.run(inp_t, tr, workloads.untimed)
    finally:
        undo()
    assert wl.check(inp_t, out_t) == (0, [])
    assert wl.digests(inp_t, out_t) == wl.digests(inp, out)
    incl, own = tr.durations()
    assert incl and all(d >= 0 for ds in own.values() for d in ds)
    assert set(wl.layers) <= set(incl)
    if name.startswith("fuzz"):
        assert len(incl["cli.fuzz_trial"]) == wl.size
        assert len(incl["cli.splitmix64"]) == wl.size * wl.k * (wl.k - 1) // 2


def test_install_restores_every_binding():
    before = chargraph.duke.find_duke, chargraph.graphs.PrimeGraph.__dict__["masks"]
    undo = tracer.install(tracer.Tracer())
    assert chargraph.duke.find_duke is not before[0]
    undo()
    assert (chargraph.duke.find_duke, chargraph.graphs.PrimeGraph.__dict__["masks"]) == before


def test_install_refuses_a_missing_binding(monkeypatch):
    before = chargraph.graphs.PrimeGraph.__dict__["masks"]
    monkeypatch.delattr(chargraph.duke, "find_duke")
    with pytest.raises(tracer.MissingBinding, match="duke.find_duke"):
        tracer.install(tracer.Tracer())
    assert chargraph.graphs.PrimeGraph.__dict__["masks"] is before


def test_flipped_fuzz_stat_fails_every_trial():
    wl, inp, outs = untraced("fuzz-k10")
    stats = json.loads(outs[0])
    stats["diam3_duke"] += 1
    failed, notes = wl.check(inp, [workloads.dumps(stats)] + outs[1:])
    assert failed == inp[0].trials and notes


def test_edited_certificate_fails_its_trial():
    wl, inp, out = untraced("fuzz-k7-certs")
    files = inp[0].out_dir.files
    report = min(name for name in files if name.endswith(".json"))
    files[report] = files[report].replace("DIAM3_NOT_DUKE", "DIAM3_LEMMA31_FAILS", 1)
    assert wl.check(inp, out)[0] == 1


def test_wrong_crosscheck_fails_its_item():
    wl, inp, (qs, agrees) = untraced("psl2-sweep")
    flipped = agrees.copy()
    flipped[3] = False
    assert wl.check(inp, (qs, flipped))[0] == 1
    assert wl.check(inp, (qs[1:], agrees[1:]))[0] == 1


def test_wrong_corpus_count_fails_its_record():
    wl, inp, texts = untraced("corpus-verify")
    doc = json.loads(texts[0])
    entry = next(e for e in doc["entries"] if e["summary"])
    entry["summary"]["edges"] += 1
    assert wl.check(inp, [json.dumps(doc)] + texts[1:])[0] == 1


def test_generated_corpus_has_every_record_kind():
    inp = workloads.make_corpus(3, 300)
    k0 = {e.k0_field for e in inp.expected}
    diameters = {workloads._diameter_and_components(e.vertices, e.edges)[0]
                 for e in inp.expected if e.k0_field is None}
    assert {None, "degrees", "notes"} <= k0
    assert {3, 4} <= diameters
    assert any('"order"' in line for line in inp.lines)
    assert any(e.solvable for e in inp.expected)


@pytest.mark.parametrize("name", list(workloads.PINNED))
def test_pins_match_the_program(name):
    seed, size = workloads.PINNED[name]
    wl = tiny(name, size)
    inp = wl.prepare(seed)
    pins = json.loads((BENCH / "pins.json").read_text())
    assert wl.digests(inp, wl.run(inp, None, workloads.untimed)) == pins[name]


def test_workload_tables_agree():
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert list(run.PINNED) == list(workloads.PINNED)
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


def _result(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, last


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(name, trace):
    # One repeat (and, traced, one replay) at the workload's own size.
    proc, last = _result("--workload", name, "--seed", "9", "--seconds", "0.05", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert "failed_ratio" in proc.stdout


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, last = _result("--workload", "fuzz-k10", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and last is None


def test_compare_verdicts():
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert compare.verdict(parent, [v * 1.2 for v in parent], True, 0.1, False)[0] == "improved"
    assert compare.verdict(parent, [v * 1.2 for v in parent], True, 0.1, True)[0] == "unresolved"
    assert compare.verdict(parent, [v * 0.8 for v in parent], True, 0.1, False)[0] == "worse"
    assert compare.verdict(parent, list(reversed(parent)), True, 0.1, False)[0] == "unchanged"
    noisy = [60.0, 140, 70, 130, 80, 120, 90, 110, 100, 100]
    assert compare.verdict(noisy, [v * 0.9 for v in noisy], True, 0.1, False)[0] == "unresolved"
