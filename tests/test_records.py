import csv
import io
import json
import random
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistrank.records import OutputRecord


def sample_record():
    return OutputRecord(
        command="dist",
        params={"p": "3", "flavor": "uni", "rmax": "2"},
        rows=[("D(0)", "0.719879965067"), ("D(1)", "0.269954986900"), ("D(2)", "0.0101")],
    )


def test_json_round_trip():
    rec = sample_record()
    assert OutputRecord.from_json(rec.to_json()) == rec


def test_csv_round_trip():
    rec = sample_record()
    assert OutputRecord.from_csv(rec.to_csv()) == rec


def test_cross_format_round_trip():
    rec = sample_record()
    via_csv = OutputRecord.from_csv(rec.to_csv())
    via_json = OutputRecord.from_json(via_csv.to_json())
    assert via_json == rec


def test_round_trip_with_awkward_strings():
    rng = random.Random(2718)
    alphabet = string.ascii_letters + string.digits + ',;"\' =|#\n\ré'
    for _ in range(50):
        rec = OutputRecord(
            command="".join(rng.choice(alphabet) for _ in range(8)),
            params={
                "".join(rng.choice(alphabet) for _ in range(5)):
                "".join(rng.choice(alphabet) for _ in range(9))
                for _ in range(3)
            },
            rows=[
                (
                    "".join(rng.choice(alphabet) for _ in range(6)),
                    "".join(rng.choice(alphabet) for _ in range(11)),
                )
                for _ in range(4)
            ],
        )
        assert OutputRecord.from_csv(rec.to_csv()) == rec
        assert OutputRecord.from_json(rec.to_json()) == rec


# arbitrary text, weighted toward what JSON must escape: quote, backslash,
# control characters, U+2028, and non-ASCII in and beyond the BMP
AWKWARD = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\n\r\t\u2028\u2029é\U0001f600'),
    st.characters()))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(command=AWKWARD, params=st.dictionaries(AWKWARD, AWKWARD, max_size=4),
       rows=st.lists(st.tuples(AWKWARD, AWKWARD), max_size=5))
@example(command="", params={}, rows=[])
@example(command="dist", params={}, rows=[("D(0)", "1")])
@example(command="dist", params={"p": "2"}, rows=[])
def test_json_is_json_dumps_indent_2(command, params, rows):
    rec = OutputRecord(command=command, params=params, rows=rows)
    payload = {"command": command, "params": params,
               "rows": [[label, value] for label, value in rows]}
    assert rec.to_json() == json.dumps(payload, indent=2) + "\n"
    assert OutputRecord.from_json(rec.to_json()) == rec


def csv_writer_line(fields):
    r"""A row as csv.writer writes it, with its "\r\n" row end cut to "\n"."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(fields)
    line = buffer.getvalue()
    assert line.endswith("\r\n")
    return line[:-2] + "\n"


# arbitrary text, weighted toward what CSV must quote: comma, quote, CR and
# LF (alone and as a pair), empty fields, edge spaces and non-ASCII; NUL is
# left out because csv.reader refuses it before Python 3.11
CSV_AWKWARD = st.one_of(
    st.sampled_from(["", " ", " a", "a ", "\r", "\n", "\r\n", ",", '"', '""', "é"]),
    st.text(st.one_of(st.sampled_from(',"\r\n \té\u2028\U0001f600'),
                      st.characters(exclude_characters="\x00"))))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(command=CSV_AWKWARD, params=st.dictionaries(CSV_AWKWARD, CSV_AWKWARD, max_size=4),
       rows=st.lists(st.tuples(CSV_AWKWARD, CSV_AWKWARD), max_size=5))
@example(command="", params={}, rows=[])
@example(command="\r", params={"": " "}, rows=[("a\rb", ' "x" '), ("", ",")])
@example(command='say "hi"', params={"p": "2"}, rows=[("D(0)", "1\n2\r\n3")])
def test_csv_is_csv_writer_with_lf_row_ends(command, params, rows):
    rec = OutputRecord(command=command, params=params, rows=rows)
    lines = [["section", "key", "value"], ["command", "", command]]
    lines += [["param", key, value] for key, value in params.items()]
    lines += [["row", label, value] for label, value in rows]
    assert rec.to_csv() == "".join(csv_writer_line(fields) for fields in lines)
    assert OutputRecord.from_csv(rec.to_csv()) == rec


def test_json_schema_keys_stable():
    payload = json.loads(sample_record().to_json())
    assert set(payload) == {"command", "params", "rows"}


def test_csv_uses_lf_endings():
    text = sample_record().to_csv()
    assert "\r" not in text
    assert text.endswith("\n")


def test_from_csv_rejects_garbage():
    with pytest.raises(ValueError):
        OutputRecord.from_csv("a,b\n1,2\n")


def test_table_rendering_contains_rows():
    text = sample_record().to_table()
    assert "# command: dist" in text
    assert "D(0)" in text


def test_render_unknown_format():
    with pytest.raises(ValueError):
        sample_record().render("xml")
