import json

import pytest

from chargraph.corpus import (
    GroupRecord,
    InvalidRecord,
    MalformedRecord,
    RecordWarning,
    bundled_corpus_path,
    parse_record,
    serialize_record,
    verify_corpus,
    verify_lines,
)
from chargraph.graphs import DegreeSet
from chargraph.primes import PRIME_LIMIT, first_primes


PSL2_11 = '{"name":"PSL(2,11)","order":660,"degrees":[1,5,10,11,12],"solvable":false,"source":"psl2 formula"}'


def test_parse_record_example():
    record = parse_record(PSL2_11)
    assert record.name == "PSL(2,11)"
    assert record.order == 660
    assert record.degrees.sorted() == [1, 5, 10, 11, 12]
    assert record.solvable is False


def test_parse_minimal_record():
    record = parse_record('{"name":"trivial","degrees":[1],"source":"test"}')
    assert record.order is None and record.solvable is None
    assert record.degrees.sorted() == [1]


def test_parse_rejects_bad_divisibility():
    with pytest.raises(InvalidRecord) as info:
        parse_record('{"name":"bad","order":10,"degrees":[1,7],"source":"test"}')
    assert info.value.field == "degrees"
    assert "divide" in str(info.value)


def test_parse_rejects_degree_square_at_least_order():
    with pytest.raises(InvalidRecord):
        GroupRecord(name="x", degrees=DegreeSet.of({1, 5}), order=25, source="test")


def test_parse_malformed_line():
    with pytest.raises(MalformedRecord):
        parse_record("{not json")
    with pytest.raises(MalformedRecord):
        parse_record('["a", "list"]')


def test_parse_unreadable_json_is_malformed():
    # nesting past the recursion limit and an integer past Python's digit
    # limit are refused by the decoder like any other syntax error
    with pytest.raises(MalformedRecord, match="invalid JSON"):
        parse_record("[" * 200_000)
    with pytest.raises(MalformedRecord, match="invalid JSON"):
        parse_record('{"order": ' + "1" * 5000 + "}")


def test_verify_lines_deeply_nested_line_raises_with_line_number():
    with pytest.raises(MalformedRecord) as info:
        verify_lines([PSL2_11, "[" * 200_000])
    assert str(info.value).startswith("line 2: invalid JSON")


def test_parse_field_errors():
    with pytest.raises(InvalidRecord):
        parse_record('{"name":"","degrees":[1],"source":"s"}')
    with pytest.raises(InvalidRecord):
        parse_record('{"name":"x","degrees":[2,3],"source":"s"}')  # missing 1
    with pytest.raises(InvalidRecord):
        parse_record('{"name":"x","degrees":[1],"solvable":"yes","source":"s"}')
    with pytest.raises(InvalidRecord):
        parse_record('{"name":"x","degrees":[1]}')  # no source


def test_unknown_field_strict_vs_lax():
    line = '{"name":"x","degrees":[1],"source":"s","extra":1}'
    with pytest.raises(InvalidRecord) as info:
        parse_record(line)
    assert info.value.field == "extra"
    with pytest.warns(RecordWarning):
        record = parse_record(line, strict=False)
    assert record.name == "x"


def test_duplicate_degrees_collapse_with_warning():
    with pytest.warns(RecordWarning):
        record = parse_record('{"name":"x","degrees":[1,3,3],"source":"s"}')
    assert record.degrees.sorted() == [1, 3]


def test_serialize_round_trip():
    record = parse_record(PSL2_11)
    assert parse_record(serialize_record(record)) == record
    minimal = parse_record('{"name":"trivial","degrees":[1],"source":"test"}')
    assert parse_record(serialize_record(minimal)) == minimal


def test_verify_corpus_psl2_backed_records():
    from chargraph.psl2 import psl2_degrees

    records = [
        GroupRecord(name=f"PSL(2,{q})", degrees=psl2_degrees(q), source="psl2 formula")
        for q in (4, 5, 7, 8, 9, 11, 13)
    ]
    report = verify_corpus(records)
    assert report.overall_pass
    assert [e["name"] for e in report.entries] == [r.name for r in records]


def test_verify_solvable_record():
    record = parse_record(
        '{"name":"SL(2,3)","degrees":[1,2,3],"solvable":true,"source":"hand"}'
    )
    report = verify_corpus([record])
    assert report.overall_pass
    entry = report.entries[0]
    assert entry["checks"]["K3"]["pass"]
    assert entry["summary"]["vertices"] == 2 and entry["summary"]["edges"] == 0


def test_verify_a7_record():
    record = parse_record(
        '{"name":"A7","order":2520,"degrees":[1,6,10,14,15,21,35],"source":"hand"}'
    )
    entry = verify_corpus([record]).entries[0]
    assert entry["summary"] == {"vertices": 4, "edges": 6, "components": 1, "diameter": 1}
    assert entry["checks"]["K1"]["pass"]


def test_verify_lines_invalid_record_becomes_failing_entry():
    lines = [
        PSL2_11,
        '{"name":"broken","order":10,"degrees":[1,7],"source":"test"}',
    ]
    report = verify_lines(lines)
    assert not report.overall_pass
    assert report.totals == {"records": 2, "records_passed": 1, "records_failed": 1}
    bad = report.entries[1]
    assert bad["name"] == "broken"
    assert not bad["checks"]["K0"]["pass"]
    assert bad["checks"]["K0"]["certificate"]["field"] == "degrees"


def test_degree_at_prime_limit_is_a_failing_k0_entry():
    big = f'{{"name":"huge","degrees":[1,{PRIME_LIMIT}],"source":"test"}}'
    with pytest.raises(InvalidRecord) as info:
        parse_record(big)
    assert info.value.field == "degrees"
    assert "PRIME_LIMIT" in str(info.value)
    report = verify_lines([big, PSL2_11])
    assert report.totals == {"records": 2, "records_passed": 1, "records_failed": 1}
    k0 = report.entries[0]["checks"]["K0"]
    assert not k0["pass"] and k0["certificate"]["field"] == "degrees"


def test_degrees_with_more_primes_than_vertices_are_a_failing_k0_entry():
    wide = GroupRecord(name="wide", degrees=DegreeSet.of([1, *first_primes(65)]), source="test")
    report = verify_corpus([wide])
    assert report.totals == {"records": 1, "records_passed": 0, "records_failed": 1}
    k0 = report.entries[0]["checks"]["K0"]
    assert not k0["pass"] and k0["certificate"]["field"] == "degrees"
    assert "at most 64 vertices" in k0["certificate"]["message"]
    assert report.entries[0]["name"] == "wide"


def test_verify_lines_malformed_raises_with_line_number():
    with pytest.raises(MalformedRecord) as info:
        verify_lines([PSL2_11, "{oops"])
    assert "line 2" in str(info.value)


def test_verify_lines_failing_solvable_record():
    # empty graph on three primes: complement is a triangle
    line = '{"name":"fake","degrees":[1,3,5,7],"solvable":true,"source":"test"}'
    report = verify_lines([line])
    assert not report.overall_pass
    entry = report.entries[0]
    assert not entry["checks"]["K3"]["pass"]
    assert len(entry["checks"]["K3"]["certificate"]["odd_cycle"]) % 2 == 1


def test_bundled_corpus_is_valid_and_passes():
    text = bundled_corpus_path().read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert len(lines) >= 10
    report = verify_lines(lines)
    assert report.overall_pass
    names = [e["name"] for e in report.entries]
    for q in (4, 5, 7, 8, 9, 11, 13):
        assert f"PSL(2,{q})" in names
    records = [parse_record(ln) for ln in lines]
    solvable_123 = [
        r for r in records if r.solvable and r.degrees.sorted() == [1, 2, 3]
    ]
    assert solvable_123
    assert any(r.degrees.sorted() == [1, 6, 10, 14, 15, 21, 35] for r in records)


def test_bundled_psl2_records_match_generators():
    from chargraph.psl2 import psl2_degrees

    text = bundled_corpus_path().read_text(encoding="utf-8")
    for line in text.splitlines():
        if not line.strip():
            continue
        record = parse_record(line)
        if record.name.startswith("PSL(2,"):
            q = int(record.name[len("PSL(2,") : -1])
            assert record.degrees == psl2_degrees(q)


def test_entry_order_matches_input_order():
    text = bundled_corpus_path().read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    report = verify_lines(lines)
    assert [e["name"] for e in report.entries] == [json.loads(ln)["name"] for ln in lines]
