"""Wire-format tests: JSONL samples and live-stream replay."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.taxonomist import DatasetConfig, TaxonomistDatasetGenerator
from repro.serve import (
    NetListener,
    ProtocolError,
    Sample,
    ServeConfig,
    interleave_records,
    parse_sample,
    read_samples,
    record_samples,
)

METRIC = "nr_mapped_vmstat"


def _key(sample: Sample):
    """Comparable identity that treats NaN values (and times) as equal."""
    value = "nan" if math.isnan(sample.value) else sample.value
    time = "nan" if math.isnan(sample.time) else sample.time
    return (sample.job, sample.node, time, value, sample.n_nodes)


@pytest.fixture(scope="module")
def records():
    config = DatasetConfig(
        metrics=(METRIC,), repetitions=1, seed=5, duration_cap=150.0,
        apps=("ft", "mg"),
    )
    return list(TaxonomistDatasetGenerator(config).generate())


class TestSampleCodec:
    def test_round_trip(self):
        sample = Sample(job="j-1", node=2, time=61.5, value=1234.0, n_nodes=4)
        assert parse_sample(sample.to_json()) == sample

    def test_round_trip_without_nodes(self):
        sample = Sample(job="j-1", node=0, time=0.0, value=-1.5)
        assert parse_sample(sample.to_json()) == sample

    def test_nan_value_encodes_as_null(self):
        sample = Sample(job="j", node=0, time=1.0, value=float("nan"))
        line = sample.to_json()
        assert "null" in line
        parsed = parse_sample(line)
        assert math.isnan(parsed.value)

    def test_invalid_json_names_line(self):
        with pytest.raises(ValueError, match="line 7"):
            parse_sample("{nope", lineno=7)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="expected a JSON object"):
            parse_sample("[1, 2]")

    @pytest.mark.parametrize("field", ["job", "node", "t", "value"])
    def test_missing_field_named(self, field):
        obj = {"job": "j", "node": 0, "t": 1.0, "value": 2.0}
        del obj[field]
        import json

        with pytest.raises(ValueError, match=field):
            parse_sample(json.dumps(obj))

    def test_negative_node_rejected(self):
        with pytest.raises(ValueError, match="node"):
            parse_sample('{"job": "j", "node": -1, "t": 1.0, "value": 2.0}')

    def test_empty_job_rejected(self):
        with pytest.raises(ValueError, match="job"):
            parse_sample('{"job": "", "node": 0, "t": 1.0, "value": 2.0}')

    def test_bad_nodes_rejected(self):
        with pytest.raises(ValueError, match="nodes"):
            parse_sample(
                '{"job": "j", "node": 0, "t": 1.0, "value": 2.0, "nodes": 0}'
            )


class TestReadSamples:
    def test_skips_blanks_and_comments(self):
        lines = [
            "# header comment",
            "",
            '{"job": "a", "node": 0, "t": 1.0, "value": 2.0}',
            "   ",
            '{"job": "b", "node": 1, "t": 2.0, "value": 3.0}',
        ]
        out = list(read_samples(lines))
        assert [s.job for s in out] == ["a", "b"]

    def test_error_carries_line_number(self):
        lines = ['{"job": "a", "node": 0, "t": 1.0, "value": 2.0}', "broken"]
        with pytest.raises(ValueError, match="line 2"):
            list(read_samples(lines))


# ---------------------------------------------------------------------------
# One parser: the fast path agrees with the canonical decoder
# ---------------------------------------------------------------------------

class _ConfigOnly:
    """All the listener's line parser reads from its service; lines are
    kept under its byte limit, so only the parser can refuse them."""

    config = ServeConfig(max_line_bytes=1 << 20)


def _canonical(lines):
    """``parse_sample`` per line, the reference: the samples up to the
    first bad line, then that line's error message (or ``None``)."""
    out = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            out.append(parse_sample(text, lineno))
        except ValueError as exc:
            return out, str(exc)
    return out, None


def _via_read_samples(lines):
    out = []
    try:
        for sample in read_samples(line + "\n" for line in lines):
            out.append(sample)
    except ValueError as exc:
        return out, str(exc)
    return out, None


def _via_listener(lines):
    listener = NetListener(_ConfigOnly(), port=0)
    out = []
    try:
        listener._parse_lines([l.encode("utf-8") for l in lines], 0, out)
    except ProtocolError as exc:
        return out, str(exc)
    return out, None


def _assert_same(lines):
    expected, error = _canonical(lines)
    for got, got_error in (_via_read_samples(lines), _via_listener(lines)):
        assert [_key(s) for s in got] == [_key(s) for s in expected]
        assert all(type(s) is Sample for s in got)
        assert got_error == error


_MISSING = object()
_numbers = st.one_of(
    st.integers(-3, 10**6), st.floats(allow_nan=True, allow_infinity=True),
)
_oddballs = st.one_of(
    st.booleans(), st.none(), st.sampled_from(["", "x", "1", "2.5", "-1",
                                               "1e3", "nan", "inf"]),
    st.just([1]), st.just({"a": 1}), st.just(10**400),
)
_field = st.one_of(_numbers, _oddballs, st.just(_MISSING))


@st.composite
def _sample_line(draw):
    obj = {}
    for name, good in (
        ("job", st.sampled_from(["a", "j-1", "", "ü"])),
        ("node", st.sampled_from([-2, -1, 0, 1, 7])),
        ("t", st.one_of(st.sampled_from([0, 61, -1.5, 61.25]), _numbers)),
        ("value", st.one_of(st.sampled_from([None, 0, 3, 2.5e5]), _numbers)),
        ("nodes", st.sampled_from([-1, 0, 1, 4, None])),
    ):
        value = draw(st.one_of(good, good, good, _field))
        if name == "nodes" and draw(st.booleans()):
            value = _MISSING
        if value is not _MISSING:
            obj[name] = value
    line = json.dumps(obj)  # NaN/Infinity become their JSON literals
    shape = draw(st.sampled_from([
        "plain", "plain", "plain", "spaces", "garbage", "two", "bom",
        "comment", "blank", "open-array",
    ]))
    if shape == "spaces":
        line = "  " + line + "\t "
    elif shape == "garbage":
        line += draw(st.sampled_from([" x", "}", ",", " 1", "]"]))
    elif shape == "two":
        line = line + " " + line
    elif shape == "bom":
        line = "\ufeff" + line
    elif shape == "comment":
        line = "# " + line
    elif shape == "blank":
        line = draw(st.sampled_from(["", "   ", "\t"]))
    elif shape == "open-array":
        line = line[:-1] + ', "x": [1'
    return line


_text_line = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30,
).filter(lambda line: "\n" not in line and "\r" not in line)


class TestOneParser:
    """``read_samples`` (str) and ``NetListener._parse_lines`` (bytes)
    share one fast parser; on every line it must give exactly what the
    canonical ``parse_sample`` gives: the same sample, or the same
    error with the same line number."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(st.lists(st.one_of(_sample_line(), _sample_line(), _text_line),
                    min_size=1, max_size=6))
    def test_fast_path_equals_canonical(self, lines):
        _assert_same(lines)
        for line in lines:  # past the first bad line of the list, too
            _assert_same([line])

    @pytest.mark.parametrize("line", [
        '{"job": "a", "node": 0, "t": 5, "value": 1.5}',           # int t
        '{"job": "a", "node": true, "t": 5.0, "value": 1.5}',      # bool node
        '{"job": "a", "node": 1.0, "t": 5.0, "value": 1.5}',       # float node
        '{"job": "a", "node": -1, "t": 5.0, "value": 1.5}',
        '{"job": "a", "node": "2", "t": "5", "value": "1.5"}',     # strings
        '{"job": 7, "node": 0, "t": 5.0, "value": 1.5}',           # int job
        '{"job": "a", "node": 0, "t": 5.0, "value": true}',        # bool value
        '{"job": "a", "node": 0, "t": 5.0, "value": 1, "nodes": 0}',
        '{"job": "a", "node": 0, "t": 5.0, "value": 1, "nodes": 2.0}',
        '{"job": "a", "node": 0, "t": 5.0, "value": 1, "nodes": null}',
        '{"job": "a", "node": 0, "t": NaN, "value": Infinity}',
        '{"job": "a", "node": 0, "t": -Infinity, "value": NaN}',
        '{"job": "a", "node": Infinity, "t": 1.0, "value": 1.0}',
        '{"job": "a", "node": 0, "t": 1e999, "value": 1.0}',
        '{"job": "a", "node": 0, "t": 1' + "0" * 400 + ', "value": 1.0}',
        '{"job": "a", "node": 0, "t": 1.0, "value": [1]}',
        '{"job": "a", "node": 0, "t": 1.0, "value": "abc"}',
        '{"job": "", "node": 0, "t": 1.0, "value": "abc"}',
        '{"job": "a", "node": 0, "t": 1.0, "value": 1.0} x',       # garbage
        '{"job": "a", "node": 0, "t": 1.0, "value": 1.0}{"job": "b"}',
        '\ufeff{"job": "a", "node": 0, "t": 1.0, "value": 1.0}',  # BOM
        '[{"job": "a", "node": 0, "t": 1.0, "value": 1.0}]',
        "[" * 100_000,
    ])
    def test_named_cases(self, line):
        _assert_same(["# a comment", "", line])

    def test_split_array_pair_fails_on_its_own_line(self):
        """Two lines that only parse as one joined JSON array must fail
        by the first line's number."""
        lines = [
            '{"job": "a", "node": 0, "t": 1.0, "value": 2.0, "x": [1',
            '2]}, {"job": "b", "node": 0, "t": 1.0, "value": 2.0}',
        ]
        json.loads("[" + ",".join(lines) + "]")  # the trap is real
        _assert_same(lines)
        _, error = _via_listener(lines)
        assert error.startswith("sample line 1: invalid JSON")

    def test_fast_path_builds_plain_samples(self):
        line = '{"job": "j", "node": 3, "t": 61, "value": null, "nodes": 4}'
        (sample,) = read_samples([line])
        assert type(sample) is Sample
        assert sample.time == 61.0 and type(sample.time) is float
        assert math.isnan(sample.value)
        assert sample.n_nodes == 4


class TestReplay:
    def test_record_samples_time_ordered_and_complete(self, records):
        record = records[0]
        samples = list(record_samples(record, METRIC, "j-0"))
        expected = sum(
            len(record.series(METRIC, node).values)
            for node in range(record.n_nodes)
        )
        assert len(samples) == expected
        times = [(s.time, s.node) for s in samples]
        assert times == sorted(times)
        assert all(s.job == "j-0" for s in samples)
        assert all(s.n_nodes == record.n_nodes for s in samples)

    def test_interleave_round_robin(self, records):
        two = records[:2]
        stream = list(interleave_records(two, METRIC, job_ids=["a", "b"]))
        # Per-job subsequences must equal the job's own stream order.
        for job, record in zip(["a", "b"], two):
            own = [_key(s) for s in stream if s.job == job]
            assert own == [_key(s) for s in record_samples(record, METRIC, job)]
        # Round-robin: the first two samples come from different jobs.
        assert {stream[0].job, stream[1].job} == {"a", "b"}

    def test_interleave_default_job_ids(self, records):
        stream = interleave_records(records[:2], METRIC)
        jobs = {s.job for s in stream}
        assert jobs == {"job-0000", "job-0001"}

    def test_interleave_job_id_mismatch(self, records):
        with pytest.raises(ValueError, match="job ids"):
            list(interleave_records(records[:2], METRIC, job_ids=["only-one"]))
