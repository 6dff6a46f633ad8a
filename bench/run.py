"""chargraph benchmark: runs a workload in fresh worker processes and
prints its metrics.

    python3 bench/run.py --workload fuzz-k10 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --out results.jsonl
    python3 bench/run.py --pin

Each repeat of a workload runs in its own fresh, single-threaded worker
process (worker.py), one after another, until the timed work adds up to
--seconds.  --trace 0 reports the end-to-end metrics; --trace 1 alternates
untraced repeats with traced replays of the same inputs and reports the
per-layer metrics and the tracing overhead.  The last line of output is one
JSON object with the keys correct, attempted, failed and metrics, where
metrics holds the metrics BENCHMARK.json lists; the lines before it print
every metric by name with its unit, listed or not.  --out appends a full
record per workload for compare.py.  --pin rewrites pins.json from the
current program; do that only in a change that means to alter the output.

The program is imported from src/ next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# The same names as workloads.WORKLOADS and workloads.PINNED; this process
# never imports the program, so it lists them itself.
WORKLOADS = ("fuzz-k10", "fuzz-k7-certs", "psl2-sweep", "corpus-verify")
PINNED = ("fuzz-k10", "fuzz-k7-certs", "corpus-verify")

# Import-only workers per run, besides the workload's own: a run of
# psl2-sweep has only about five workload workers, too few for a steady
# median of set-up time.
SETUP_SAMPLES = 10
WALL_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 120.0

# Span name and the unit its p50/p99 are reported in.
TIMED_LAYERS = (
    ("cli.splitmix64", "ns"),
    ("cli.fuzz_trial", "us"),
    ("graphs.construct", "us"),
    ("graphs.masks", "us"),
    ("graphs.diameter", "us"),
    ("graphs.complement", "us"),
    ("graphs.bipartition", "us"),
    ("graphs.to_dot", "us"),
    ("graphs.build_graph", "us"),
    ("duke.find_duke", "us"),
    ("duke.lemma31", "us"),
    ("duke.screen", "us"),
    ("duke.screen_self", "us"),
    ("duke.report_json", "us"),
    ("io.write", "us"),
    ("primes.factorize", "us"),
    ("psl2.crosscheck", "us"),
    ("psl2.degrees", "us"),
    ("psl2.lemma24", "us"),
    ("corpus.parse_record", "us"),
    ("corpus.report_json", "us"),
)
# Self time of duke.screen has the same calls as duke.screen itself.
NO_CALLS = frozenset({"duke.screen_self"})
# Counters, reported per traced repeat, and ratios.
COUNTERS = (
    ("duke.duke_found_ratio", "ratio"),
    ("duke.certificates_emitted", "1/repeat"),
    ("io.files_written", "1/repeat"),
    ("io.bytes_written", "B/repeat"),
    ("primes.is_prime_hit_ratio", "ratio"),
    ("primes.is_prime_cache_entries", "count"),
    ("corpus.records_checked", "1/repeat"),
    ("corpus.screens_run", "1/repeat"),
    ("trace.overhead_ratio", "ratio"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


# -- worker processes -------------------------------------------------------------


def child(workload: str, mode: str, seed: int = 0, repeat: int = 0) -> dict[str, Any]:
    """Run worker.py once and return its JSON result."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(ROOT), workload, mode,
           str(seed), str(repeat)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} worker timed out after {exc.timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rank(sorted_values: list[int], q: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def calibrate_ms() -> float:
    """Median time of the fixed reference kernel: the host's speed right now."""
    return statistics.median(reference.seconds() for _ in range(5)) * 1e3


# -- one workload ------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    start = time.monotonic()
    host: dict[str, Any] = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "calib_ms_start": calibrate_ms(),
    }
    child(workload, "import")  # compiles bytecode once; not a sample
    imports = [child(workload, "import") for _ in range(SETUP_SAMPLES)]
    done = [child(workload, "pinned")] if workload in PINNED else []
    untraced: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    notes: list[str] = []
    timed, repeat, last_wall = 0.0, 0, 0.0
    while timed < seconds or not untraced:
        if untraced and time.monotonic() - start + last_wall > WALL_LIMIT_S:
            notes.append(f"stopped at the {WALL_LIMIT_S:.0f} s wall limit")
            break
        t0 = time.monotonic()
        modes = ["run", "trace"] if trace else ["run"]
        if repeat % 2:
            modes.reverse()
        pair = {m: child(workload, m, seed, repeat) for m in modes}
        untraced.append(pair["run"])
        timed += pair["run"]["elapsed_s"]
        if trace:
            traced.append(pair["trace"])
            timed += pair["trace"]["elapsed_s"]
            if pair["trace"]["digests"] != pair["run"]["digests"]:
                pair["trace"]["failed"] = pair["trace"]["items"]
                pair["trace"]["notes"].append(f"repeat {repeat}: traced replay output differs")
        last_wall = time.monotonic() - t0
        repeat += 1
    done += untraced + traced
    host.update(loadavg_end=list(os.getloadavg()), calib_ms_end=calibrate_ms())

    attempted = sum(r["items"] for r in done)
    failed = sum(r["failed"] for r in done)
    notes += [n for r in done for n in r.get("notes", [])][:10]
    metrics: dict[str, dict[str, Any]] = {}
    detail: dict[str, str] = {}
    if trace:
        per_layer(untraced, traced, metrics, detail)
    else:
        timed_ok = [r for r in untraced if r["elapsed_s"] > 0]
        for name, unit, key in (("items_per_s", "1/s", "elapsed_s"), ("items_per_ref", "1/ref", "ref_units")):
            rates = [r["items"] / r[key] for r in timed_ok] or [0.0]
            q1, med, q3 = quartiles(rates)
            metrics[name] = {"value": med, "unit": unit}
            detail[name] = f"median of {len(timed_ok)} repeats; q1 {q1:.4g}, q3 {q3:.4g}"
        setups = [r["setup_s"] * reference.NOMINAL_S / r["ref_s"] for r in imports + done]
        raw = statistics.median(r["setup_s"] for r in imports + done)
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        detail["setup_s"] = (f"median of {len(setups)} fresh imports at the reference speed; "
                             f"{raw:.4f} s as measured")
        rss = [r["rss_kb"] / 1024 for r in untraced if "rss_kb" in r]
        metrics["peak_rss_mb"] = {"value": statistics.median(rss) if rss else 0.0, "unit": "MB"}
        detail["peak_rss_mb"] = f"median over {len(rss)} worker processes; max {max(rss, default=0):.2f}"
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics, "detail": detail, "host": host, "notes": notes,
        "samples": {key: [[r["items"], r[key]] for r in untraced] for key in ("elapsed_s", "ref_units")},
    }


def per_layer(untraced: list[dict[str, Any]], traced: list[dict[str, Any]],
              metrics: dict[str, dict[str, Any]], detail: dict[str, str]) -> None:
    samples: dict[str, list[int]] = {}
    counters: dict[str, int] = {}
    for r in traced:
        for name, values in r.get("samples", {}).items():
            samples.setdefault(name, []).extend(values)
        for name, n in r.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + n
    traced_ns = sum(r["elapsed_s"] for r in traced) * 1e9
    for span, unit in TIMED_LAYERS:
        values = sorted(samples.get(span, []))
        scale = 1.0 if unit == "ns" else 1e-3
        for q in (0.50, 0.99):
            name = f"{span}_{unit}.p{round(q * 100)}"
            metrics[name] = {"value": rank(values, q) * scale if values else 0.0, "unit": unit}
            if not values:
                detail[name] = "0: this workload does not reach the layer"
        if span not in NO_CALLS:
            metrics[f"{span}_calls"] = {"value": len(values) / len(traced), "unit": "1/repeat"}
        if values and traced_ns:
            # Printed, not listed: where the traced time goes (spans nest,
            # so shares of nested layers overlap).
            metrics[f"{span}_share"] = {"value": sum(values) / traced_ns, "unit": "ratio"}
    duke_calls = len(samples.get("duke.find_duke", []))
    factorize_calls = len(samples.get("primes.factorize", []))
    trials = len(samples.get("cli.fuzz_trial", []))
    hits = sum(r.get("is_prime", {}).get("hits", 0) for r in traced)
    lookups = hits + sum(r.get("is_prime", {}).get("misses", 0) for r in traced)
    entries = [r["is_prime"]["entries"] for r in traced if r.get("is_prime")]
    # In reference-kernel units: wall time moves with the host by more than
    # the tracing costs.
    ratios = [t["ref_units"] / u["ref_units"] for t, u in zip(traced, untraced) if u["ref_units"] > 0] or [0.0]
    values = {
        "duke.duke_found_ratio": counters.get("duke.find_duke_found", 0) / duke_calls if duke_calls else 0.0,
        "primes.is_prime_hit_ratio": hits / lookups if lookups else 0.0,
        "primes.is_prime_cache_entries": statistics.median(entries) if entries else 0,
        "trace.overhead_ratio": statistics.median(ratios),
    }
    for name, unit in COUNTERS:
        value = values[name] if name in values else counters.get(name, 0) / len(traced)
        metrics[name] = {"value": value, "unit": unit}
    # Printed, not listed: the traffic each workload was chosen for.
    if trials:
        metrics["cli.diam3_share"] = {"value": counters.get("cli.diam3_trials", 0) / trials, "unit": "ratio"}
    if factorize_calls and traced_ns:
        metrics["primes.factorize_large_calls_share"] = {
            "value": counters.get("primes.factorize_large", 0) / factorize_calls, "unit": "ratio"}
        metrics["primes.factorize_large_share"] = {
            "value": counters.get("primes.factorize_large_ns", 0) / traced_ns, "unit": "ratio"}
        detail["primes.factorize_large_calls_share"] = "factorize calls on operands >= 10^6"
        detail["primes.factorize_large_share"] = "traced time in factorize on operands >= 10^6"


# -- output ------------------------------------------------------------------------


def print_record(rec: dict[str, Any]) -> None:
    host = rec["host"]
    print(f"# workload {rec['workload']}: seed {rec['seed']}, {rec['seconds']} s, trace {rec['trace']}")
    print(f"# host: python {host['python']}, {host['cpus']} cpus, load "
          f"{' '.join(f'{x:.2f}' for x in host['loadavg_start'])}, reference kernel "
          f"{host['calib_ms_start']:.2f} ms at start, {host['calib_ms_end']:.2f} ms at end")
    for name, m in rec["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']:6s} {rec['detail'].get(name, '')}")
    ratio = rec["failed"] / rec["attempted"]
    print(f"{'failed_ratio':40s} {ratio:>16.6g} {'ratio':6s} "
          f"{rec['failed']} of {rec['attempted']} items failed or were wrong")
    for note in rec["notes"]:
        print(f"# note: {note}")


def write_pins() -> None:
    pins = {w: child(w, "pin")["digests"] for w in PINNED}
    (BENCH_DIR / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote pins for {', '.join(PINNED)}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="append one JSON record per workload to this file")
    ap.add_argument("--pin", action="store_true", help="rewrite pins.json and exit")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "chargraph" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'chargraph'}", file=sys.stderr)
        return 2
    try:
        if args.pin:
            write_pins()
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for rec in records:
        print_record(rec)
        if args.out:
            with args.out.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if len(records) == 1:
        metrics = {k: v for k, v in records[0]["metrics"].items() if k in listed}
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in r["metrics"].items() if k in listed}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
