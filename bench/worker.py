"""One repeat of one workload, in a fresh single-threaded process.

    python3 bench/worker.py ROOT WORKLOAD MODE SEED REPEAT

MODE is `import` (time the import and the reference kernel only), `run` (untraced), `trace` (the
traced replay), `pinned` (untraced, at the workload's pinned seed and
size, checked against pins.json) or `pin` (as `pinned`, unchecked).
Prints one JSON object.  run.py starts this; it is not meant for users.
"""

import sys
import time

# Nothing but the interpreter's own start-up precedes this import, so the
# time covers everything `import chargraph.cli` pulls in, as for a user.
ROOT, WORKLOAD, MODE = sys.argv[1], sys.argv[2], sys.argv[3]
sys.path.insert(0, ROOT + "/src")
_t0 = time.perf_counter()
import chargraph  # noqa: E402
import chargraph.cli  # noqa: E402,F401

SETUP_S = time.perf_counter() - _t0

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class Clock:
    """The `timed` callback of workloads.run: times each call into the
    program, and the reference kernel before the first and after each."""

    def __init__(self) -> None:
        reference.kernel()  # warm-up, untimed
        self.work: list[float] = []
        self.ref: list[float] = [reference.seconds()]

    def __call__(self, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.work.append(time.perf_counter() - t0)
            self.ref.append(reference.seconds())

    def ref_units(self) -> float:
        """Work time in units of the reference kernel's time around it."""
        return sum(w / ((a + b) / 2) for w, a, b in zip(self.work, self.ref, self.ref[1:]))


def _samples(tr: tracer.Tracer) -> dict[str, list[int]]:
    incl, own = tr.durations()
    if "duke.screen" in own:
        incl["duke.screen_self"] = own["duke.screen"]
    return incl


def _peak_rss_kb() -> int:
    """Peak resident memory less the file-backed pages resident now.

    The file-backed part (the interpreter's libraries and mapped files,
    about 10 MB) depends on the host's page cache rather than on the
    program, and moved the median of whole-process peaks by 4% between
    runs.  File-backed pages stay mapped once touched, so VmHWM - RssFile
    at the end approximates the peak of the rest.  Without /proc, the
    whole-process peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            status = dict(line.split(":", 1) for line in fh)
        return int(status["VmHWM"].split()[0]) - int(status["RssFile"].split()[0])
    except (OSError, KeyError, ValueError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _is_prime_cache() -> dict[str, int]:
    info = getattr(chargraph.primes.is_prime, "cache_info", None)
    if info is None:
        return {}
    ci = info()
    return {"hits": ci.hits, "misses": ci.misses, "entries": ci.currsize}


def main() -> int:
    if not Path(chargraph.__file__).resolve().is_relative_to(Path(ROOT, "src").resolve()):
        print(f"chargraph imported from {chargraph.__file__}, not {ROOT}/src", file=sys.stderr)
        return 3
    result: dict = {"setup_s": SETUP_S}
    if MODE == "import":
        reference.kernel()  # warm-up, untimed
        result["ref_s"] = sorted(reference.seconds() for _ in range(5))[2]
        print(json.dumps(result))
        return 0

    seed, repeat = int(sys.argv[4]), int(sys.argv[5])
    wl = workloads.WORKLOADS[WORKLOAD]
    if MODE in ("pin", "pinned"):
        seed, wl.size = workloads.PINNED[WORKLOAD]
    else:
        seed = workloads.repeat_seed(seed, repeat)
    inp = wl.prepare(seed)
    items = wl.items(inp)
    tr = tracer.Tracer() if MODE == "trace" else None
    clock = Clock()
    digests: dict[str, str] = {}
    try:
        undo = tracer.install(tr) if tr is not None else None
        try:
            output = wl.run(inp, tr, clock)
        finally:
            if undo is not None:
                undo()
        result["rss_kb"] = _peak_rss_kb()
        failed, notes = wl.check(inp, output)
        digests = wl.digests(inp, output)
    except Exception as exc:  # raised, or output too broken to check
        failed, notes = items, [f"{type(exc).__name__}: {exc}"]
    if tr is not None and not failed:
        reached = set(tr.names)
        missing = [layer for layer in wl.layers if layer not in reached]
        if missing:
            failed = items
            notes.append(f"traced replay recorded no spans for {missing}")
    if MODE == "pinned":
        pins = json.loads(Path(__file__).with_name("pins.json").read_text())[WORKLOAD]
        bad = sorted(k for k in set(pins) | set(digests) if pins.get(k) != digests.get(k))
        if bad:
            failed = items
            notes.append(f"pinned digests differ for {bad[:5]}")
    result.update(elapsed_s=sum(clock.work), ref_units=clock.ref_units(),
                  ref_s=sorted(clock.ref)[len(clock.ref) // 2], items=items,
                  failed=failed, notes=notes[:5], digests=digests)
    if tr is not None:
        result["samples"] = _samples(tr)
        result["counters"] = tr.counters
        result["is_prime"] = _is_prime_cache()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
