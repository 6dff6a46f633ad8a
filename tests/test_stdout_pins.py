"""Byte-identity pins for the stdout of analyze, psl2, screen and verify.

`tests/test_fuzz_pins.py` pins `fuzz`; these pin the other four
subcommands, each as the sha256 of its stdout plus its exit code.  The
cases carry the shapes the report emitter has to get right: the DOT text
inside a JSON string (quotes and newlines), null and boolean values,
nested lists of lists, and record names with non-ASCII, astral-plane,
quote, backslash and control characters, which stdout writes as
ASCII-only escapes.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from chargraph.cli import run
from chargraph.primes import first_primes

C7_EDGES = "2-3,3-5,5-7,7-11,11-13,13-17,17-2"

NAMES = [
    "Gruppe \u00c4\u00df \u00e9t\u00e9",
    "\U0001d516 astral \U0001f600",
    'quote " and backslash \\',
    "control \x00 \x01 \t \n \x1f \x7f",
    "Gruppe \u00c4 raw",
    "separators \u2028 \u2029",
]


def corpus_text() -> str:
    """A small corpus: passing PSL2 records under awkward names, the even
    ones written with raw UTF-8 and the odd ones with JSON escapes (a raw
    U+2028 would split the line), a failing record, and a 65-prime record
    that verify reports as a K0 entry."""
    lines = []
    for i, name in enumerate(NAMES):
        record = {"name": name, "degrees": [1, 5, 10, 11, 12], "order": 660, "source": f"src {name}"}
        lines.append(json.dumps(record, ensure_ascii=bool(i % 2)))
    lines.append(json.dumps({"name": "bad ü", "order": 10, "degrees": [1, 7], "source": "t"}))
    lines.append(json.dumps({"name": "wide ß", "degrees": [1, *first_primes(65)], "source": "t"}))
    return "\n".join(lines) + "\n"


def stdout_digest(capsys, argv) -> tuple[int, str]:
    code = run(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


STDOUT_PINS = {
    ("analyze", "--degrees", "1,5,10,11,12"): (
        0, "5be7f671c4160074543497bca5e4ba09557c669c59c665460bc8855114e9d846"),
    ("psl2", "--q", "11"): (
        0, "f835488d9cbfecceddb976f640e017e746e46707e284287432ec5bf798f242c5"),
    ("psl2", "--q", "8"): (
        0, "39be17acee427abfde27e026fb212753f48c024b20d89509832dc6ae9b16ebba"),
    ("screen", "--edges", C7_EDGES): (
        1, "2ee8c10738ef2a68d0b10283fc565fb10859e705ff74eceb32a5216e2a99a874"),
    ("verify", "--bundled"): (
        0, "8a08783d1a17c3830a6be79459180be7ba9fbf771b548d2eac065c8250b2fce7"),
}

CORPUS_PIN = (1, "62c11804a2f4ad21c1ac697ecd4ffa50caab3c8f11c3e7fdb5ce2d9bc8b7e947")


@pytest.mark.parametrize("argv", sorted(STDOUT_PINS))
def test_stdout_is_pinned(capsys, argv):
    assert stdout_digest(capsys, list(argv)) == STDOUT_PINS[argv]


def test_verify_stdout_with_awkward_names_is_pinned(capsys, tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(corpus_text(), encoding="utf-8")
    assert stdout_digest(capsys, ["verify", str(path)]) == CORPUS_PIN
    assert run(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.isascii()
    entries = json.loads(out)["entries"]
    assert [e["name"] for e in entries[: len(NAMES)]] == NAMES
    assert "K0" in entries[-1]["checks"]
