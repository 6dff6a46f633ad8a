import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import chargraph
from chargraph.cli import FuzzStats, SplitMix64, fuzz, run
from chargraph.corpus import bundled_corpus_path
from chargraph.duke import screen
from chargraph.graphs import PrimeGraph
from chargraph.primes import PRIME_LIMIT, first_primes


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- screen ----------------------------------------------------------------------


def test_screen_path_passes(capsys):
    code, doc = run_json(capsys, ["screen", "--edges", "2-3,3-5,5-7"])
    assert code == 0
    assert doc["passed"] is True
    assert doc["reasons"] == []


def test_screen_c7_fails(capsys):
    edges = "2-3,3-5,5-7,7-11,11-13,13-17,17-2"
    code, doc = run_json(capsys, ["screen", "--edges", edges])
    assert code == 1
    assert set(doc["reasons"]) == {
        "DIAM3_NOT_DUKE",
        "DIAM3_COMPLEMENT_NOT_BIPARTITE",
        "DIAM3_LEMMA31_FAILS",
    }


def test_screen_empty_graph_is_usage_error(capsys):
    assert run(["screen", "--edges", ""]) == 2


def test_screen_rejects_non_prime_vertex(capsys):
    assert run(["screen", "--edges", "4-5"]) == 2


@pytest.mark.parametrize("flag,value", [("--isolated", "{}"), ("--edges", "2-{}"), ("--edges", "{}-3")])
def test_screen_rejects_vertex_at_prime_limit(capsys, flag, value):
    assert run(["screen", flag, value.format(PRIME_LIMIT)]) == 2
    assert "PRIME_LIMIT" in capsys.readouterr().err


# -- analyze ----------------------------------------------------------------------


def test_analyze_json_document(capsys):
    code, doc = run_json(capsys, ["analyze", "--degrees", "1,5,10,11,12"])
    assert code == 0
    assert doc["graph"]["vertices"] == [2, 3, 5, 11]
    assert doc["graph"]["edges"] == [[2, 3], [2, 5]]
    assert doc["screen"]["passed"] is True
    assert doc["dot"].startswith("graph G {")


def test_analyze_trivial_degrees(capsys):
    code, doc = run_json(capsys, ["analyze", "--degrees", "1"])
    assert code == 0
    assert doc["graph"]["vertices"] == []
    assert doc["screen"] is None


def test_analyze_dot_format(capsys):
    code = run(["analyze", "--degrees", "1,6", "--format", "dot"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == 'graph G {\n  "2";\n  "3";\n  "2" -- "3";\n}\n'


def test_analyze_missing_one_is_input_error(capsys):
    assert run(["analyze", "--degrees", "2,3"]) == 2


def test_analyze_large_prime_degree(capsys):
    # a 60-bit prime degree: trial division up to its square root would run for minutes
    code, doc = run_json(capsys, ["analyze", "--degrees", "1,1000000000000000003"])
    assert code == 0
    assert doc["graph"]["vertices"] == [10**18 + 3]


@pytest.mark.parametrize("degree", [PRIME_LIMIT, PRIME_LIMIT + 1, 2**100])
def test_analyze_rejects_degree_at_prime_limit(capsys, degree):
    assert run(["analyze", "--degrees", f"1,{degree}"]) == 2
    assert "PRIME_LIMIT" in capsys.readouterr().err


def test_analyze_screen_failure_exits_1(capsys):
    # one degree per edge of the 7-cycle on the first 7 primes
    degrees = "1,6,15,35,77,143,221,34"
    code, doc = run_json(capsys, ["analyze", "--degrees", degrees])
    assert code == 1
    assert doc["screen"]["passed"] is False
    assert doc["graph"]["diameter"] == 3


def test_analyze_writes_dot_file(tmp_path, capsys):
    code = run(["analyze", "--degrees", "1,6,10,15", "--out", str(tmp_path)])
    assert code == 0
    g = PrimeGraph.from_dot((tmp_path / "graph.dot").read_text())
    assert g.vertices == (2, 3, 5)
    assert g.is_complete()


# -- psl2 -------------------------------------------------------------------------


def test_psl2_json(capsys):
    code, doc = run_json(capsys, ["psl2", "--q", "11"])
    assert code == 0
    assert doc["degrees"] == [1, 5, 10, 11, 12]
    assert doc["crosscheck"] is True
    assert doc["p"] == 11 and doc["f"] == 1


def test_psl2_not_prime_power(capsys):
    assert run(["psl2", "--q", "12"]) == 2
    assert "prime power" in capsys.readouterr().err


@pytest.mark.parametrize("q", [PRIME_LIMIT, 2**100])
def test_psl2_rejects_q_at_prime_limit(capsys, q):
    assert run(["psl2", "--q", str(q)]) == 2
    assert "PRIME_LIMIT" in capsys.readouterr().err


def test_psl2_dot(capsys):
    code = run(["psl2", "--q", "8", "--format", "dot"])
    assert code == 0
    assert capsys.readouterr().out == 'graph G {\n  "2";\n  "3";\n  "7";\n}\n'


# -- verify -------------------------------------------------------------------------


def test_verify_bundled_corpus(capsys):
    code, doc = run_json(capsys, ["verify", "--bundled"])
    assert code == 0
    assert doc["overall_pass"] is True
    assert doc["totals"]["records"] >= 10


def test_verify_strict_is_the_default(tmp_path, capsys):
    def verify(argv):
        code = run(argv)
        return code, capsys.readouterr().out

    assert verify(["verify", "--strict", "--bundled"]) == verify(["verify", "--bundled"])
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"name":"x","degrees":[1],"source":"t","note":"hi"}\n', encoding="utf-8")
    strict = verify(["verify", "--strict", str(path)])
    assert strict == verify(["verify", str(path)])
    assert strict[0] == 1


def test_verify_corpus_path(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    path.write_text(bundled_corpus_path().read_text(encoding="utf-8"), encoding="utf-8")
    code, doc = run_json(capsys, ["verify", str(path)])
    assert code == 0 and doc["overall_pass"] is True


def test_verify_failing_record_exits_1(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"name":"bad","order":10,"degrees":[1,7],"source":"t"}\n', encoding="utf-8"
    )
    code, doc = run_json(capsys, ["verify", str(path)])
    assert code == 1
    assert doc["entries"][0]["name"] == "bad"


def test_verify_wide_record_is_checked_in_band(tmp_path, capsys):
    # 65 distinct primes exceed the 64-vertex graph: a K0 entry, not an abort
    wide = json.dumps({"name": "wide", "degrees": [1, *first_primes(65)], "source": "t"})
    psl = '{"name":"PSL(2,11)","degrees":[1,5,10,11,12],"source":"t"}'
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join([psl, wide, psl]) + "\n", encoding="utf-8")
    code, doc = run_json(capsys, ["verify", str(path)])
    assert code == 1
    assert doc["totals"] == {"records": 3, "records_passed": 2, "records_failed": 1}
    k0 = doc["entries"][1]["checks"]["K0"]
    assert doc["entries"][1]["name"] == "wide" and not k0["pass"]
    assert k0["certificate"]["field"] == "degrees"
    assert "at most 64 vertices supported, got 65" in k0["certificate"]["message"]


def test_verify_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    path.write_text("{oops\n", encoding="utf-8")
    assert run(["verify", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_verify_deeply_nested_line_exits_2(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    path.write_text("[" * 200_000 + "\n", encoding="utf-8")
    assert run(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: invalid JSON") and err.count("\n") == 1


def test_verify_missing_file_exits_2(tmp_path):
    assert run(["verify", str(tmp_path / "absent.jsonl")]) == 2


def test_verify_lax_allows_unknown_fields(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"name":"x","degrees":[1],"source":"t","note":"hi"}\n', encoding="utf-8"
    )
    assert run(["verify", str(path)]) == 1  # strict: unknown field is a data error
    capsys.readouterr()
    with pytest.warns(UserWarning):
        code, doc = run_json(capsys, ["verify", "--lax", str(path)])
    assert code == 0 and doc["overall_pass"] is True


# -- fuzz ---------------------------------------------------------------------------


def test_splitmix64_reference_values():
    # first outputs of the published SplitMix64 recurrence
    rng = SplitMix64(1234567)
    assert [rng.next64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]
    rng = SplitMix64(0)
    assert [rng.next64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


_THRESHOLDS = st.one_of(st.sampled_from([0, 1, 1 << 63, (1 << 64) - 1, 1 << 64]), st.integers(0, 1 << 64))


@given(n=st.integers(0, 2016), threshold=_THRESHOLDS, seed=st.integers())
def test_draw_bits_matches_next64(n, threshold, seed):
    one_by_one, together = SplitMix64(seed), SplitMix64(seed)
    expected = sum(1 << b for b in range(n) if one_by_one.next64() < threshold)
    assert together.draw_bits(n, threshold) == expected
    assert together.state == one_by_one.state


@pytest.mark.parametrize("n, threshold", [(-1, 1 << 63), (45, -1), (45, (1 << 64) + 1)])
def test_draw_bits_rejects_bad_arguments(n, threshold):
    rng = SplitMix64(7)
    with pytest.raises(ValueError):
        rng.draw_bits(n, threshold)
    assert rng.state == SplitMix64(7).state


def test_fuzz_zero_trials():
    stats = fuzz(5, Fraction(1, 2), 0, 99)
    assert stats.graphs_generated == 0
    assert stats.by_diameter == {}


def test_fuzz_complete_graphs_at_prob_one():
    stats = fuzz(4, Fraction(1), 50, 7)
    assert stats.by_diameter == {1: 50}
    assert stats.diam3_duke == stats.diam3_nonduke == 0


def test_fuzz_invariant_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    s1 = fuzz(7, Fraction(1, 2), 200, 42, out_dir=out1)
    s2 = fuzz(7, Fraction(1, 2), 200, 42, out_dir=out2)
    assert s1 == s2
    assert s1.diam3_duke + s1.diam3_nonduke == s1.by_diameter.get(3, 0)
    # duke graphs always have bipartite complements
    assert s1.diam3_complement_bipartite >= s1.diam3_duke
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2 and files1
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_fuzz_emitted_certificates_revalidate(tmp_path):
    stats = fuzz(6, Fraction(1, 2), 150, 5, out_dir=tmp_path)
    dots = sorted(tmp_path.glob("*.dot"))
    assert len(dots) == stats.nonfeasible_emitted
    for dot in dots:
        g = PrimeGraph.from_dot(dot.read_text())
        stored = json.loads(dot.with_suffix(".json").read_text())
        fresh = screen(g)
        assert not fresh.passed
        assert fresh.to_json_dict() == stored


def test_fuzz_cli_rejects_bad_params(capsys):
    assert run(["fuzz", "--k", "3", "--edge-prob", "1/2", "--trials", "1", "--seed", "1"]) == 2
    assert run(["fuzz", "--k", "5", "--edge-prob", "0", "--trials", "1", "--seed", "1"]) == 2
    assert run(["fuzz", "--k", "5", "--edge-prob", "x", "--trials", "1", "--seed", "1"]) == 2
    assert run(["fuzz", "--k", "5", "--edge-prob", "1/0", "--trials", "1", "--seed", "1"]) == 2


@pytest.mark.parametrize(
    "text, reason",
    [("1/0", "zero denominator"), ("0/0", "zero denominator"), ("1e-100000", "exponent")],
)
def test_fuzz_cli_bad_edge_prob_is_a_one_line_error(capsys, text, reason):
    argv = ["fuzz", "--k", "7", "--edge-prob", text, "--trials", "1", "--seed", "1"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err and err.count("\n") == 1


def test_fuzz_cli_accepts_a_four_digit_exponent(capsys):
    code, doc = run_json(
        capsys, ["fuzz", "--k", "5", "--edge-prob", "1e-9999", "--trials", "2", "--seed", "1"]
    )
    assert code == 0 and doc["by_diameter"] == {"0": 2}


def test_fuzz_cli_stats_document(capsys, tmp_path):
    code, doc = run_json(
        capsys,
        ["fuzz", "--k", "5", "--edge-prob", "0.5", "--trials", "20", "--seed", "3",
         "--out", str(tmp_path)],
    )
    assert code == 0
    assert doc["graphs_generated"] == 20
    assert doc["seed"] == 3
    assert sum(doc["by_diameter"].values()) == 20


# -- usage ---------------------------------------------------------------------------


def test_unknown_subcommand_exits_2():
    assert run(["frobnicate"]) == 2


def test_unknown_flag_exits_2():
    assert run(["screen", "--bogus"]) == 2


def test_module_entry_point():
    # the child does not inherit pytest's `pythonpath`, so point it at the
    # package this test imported, installed or not
    src = str(Path(chargraph.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "chargraph", "psl2", "--q", "9"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["crosscheck"] is True
