r"""Structured command output, rendered as a table, CSV or JSON.

All payload values are carried as strings; formatting happens once, when
a record is built, so every encoding of the same record is byte-stable.

Both encoders write their bytes in one pass: to_json those of
json.dumps(indent=2), to_csv those of csv.writer's excel dialect with "\n"
row ends (see _csv_field), quoted per column (see _csv_column). Each is
lossless: json.loads, or csv.reader, gives back every string of the record.

A record's rows may end with one Run: the rows label.format(i),
value.format(i) for i in range(start, stop), such as dist's zero tail or
the ramified lines of isotropic. A run is never expanded into row tuples:
each encoder encodes its templates once and writes the run through
_run_lines, which fills the index digits into a byte grid with numpy, in
chunks of at most RUN_CHUNK rows. The bytes are those of the same record
with the run expanded into plain rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

# rows per grid of _run_lines, so its memory is bounded for any run length
RUN_CHUNK = 1 << 16


@dataclass(frozen=True)
class Run:
    """The rows (label.format(i), value.format(i)) for i in range(start, stop),
    0 <= start. The templates are ASCII; each holds at most one '{}', the slot
    for the index, and no other braces."""

    label: str
    value: str
    start: int
    stop: int


def _run_lines(out: list[str], run: Run, line) -> None:
    """Append to out the lines of run, where line(i) is the encoded line
    template, with '{}' slots, of the rows whose index has as many digits as
    i. Digits never need quoting or escaping in any of the formats, so each
    line is its template with the index written into every slot."""
    start, stop = run.start, run.stop
    while start < stop:
        digits = len(str(start))
        end = min(stop, 10**digits)
        pieces = line(start).encode("ascii").split(b"{}")
        text = (b"0" * digits).join(pieces)
        # the column of the last digit of each slot
        ones = list(accumulate(len(piece) + digits for piece in pieces[:-1]))
        for lo in range(start, end, RUN_CHUNK):
            hi = min(end, lo + RUN_CHUNK)
            buffer = bytearray(text * (hi - lo))
            grid = np.frombuffer(buffer, np.uint8).reshape(hi - lo, len(text))
            # the narrowest unsigned type that holds every index
            index = np.arange(lo, hi, dtype=np.min_scalar_type(hi))
            for k in range(1, digits + 1):
                index, digit = np.divmod(index, 10)
                digit += 48  # ord("0")
                for column in ones:
                    grid[:, column - k] = digit
            out.append(buffer.decode("ascii"))
        start = end


def _csv_field(text: str) -> str:
    r"""The field as QUOTE_MINIMAL writes it under the excel dialect's "\r\n"
    terminator: quoted, each '"' doubled, when it holds ',', '"', CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_column(items: list[str]) -> list[str]:
    """_csv_field of each item. The column is scanned once, joined: without
    a '"', CR or LF in it, a field needs quoting only when it holds ','."""
    text = "".join(items)
    if '"' in text or "\r" in text or "\n" in text:
        return [_csv_field(item) for item in items]
    if "," not in text:
        return items
    return [f'"{item}"' if "," in item else item for item in items]


def _container(open_: str, items: list[str], close: str) -> str:
    """A value of the top-level object, laid out as json.dumps(indent=2) does."""
    if not items:
        return open_ + close
    return f"{open_}\n    " + ",\n    ".join(items) + f"\n  {close}"


def _split_run(rows: list) -> tuple[list[tuple[str, str]], Run | None]:
    """The plain rows and the run that ends rows, if one does."""
    if rows and type(rows[-1]) is Run:
        return rows[:-1], rows[-1]
    return rows, None


@dataclass
class OutputRecord:
    command: str
    params: dict[str, str] = field(default_factory=dict)
    # plain (label, value) rows, optionally followed by one Run
    rows: list = field(default_factory=list)

    def to_json(self) -> str:
        """json.dumps(payload, indent=2) + "\n", byte for byte. With an indent,
        dumps walks the document in pure-Python generators, so the layout is
        written here, and each string is quoted by the C function dumps uses."""
        plain, run = _split_run(self.rows)
        params = [f"{_quote(key)}: {_quote(value)}" for key, value in self.params.items()]
        rows = [f"[\n      {_quote(label)},\n      {_quote(value)}\n    ]"
                for label, value in plain]
        if run is not None and run.start < run.stop:
            # each line of the run opens with the separator, cut from the first
            # item of the container
            out = [",\n    ".join(rows)]
            _run_lines(out, run, lambda _: f",\n    [\n      {_quote(run.label)},"
                                           f"\n      {_quote(run.value)}\n    ]")
            rows = ["".join(out).removeprefix(",\n    ")]
        return (f'{{\n  "command": {_quote(self.command)},\n'
                f'  "params": {_container("{", params, "}")},\n'
                f'  "rows": {_container("[", rows, "]")}\n}}\n')

    def to_csv(self) -> str:
        plain, run = _split_run(self.rows)
        keys = _csv_column(list(self.params))
        params = _csv_column(list(self.params.values()))
        labels = _csv_column([label for label, _ in plain])
        values = _csv_column([value for _, value in plain])
        text = (f"section,key,value\ncommand,,{_csv_field(self.command)}\n"
                + "".join([f"param,{key},{value}\n" for key, value in zip(keys, params)])
                + "".join([f"row,{label},{value}\n" for label, value in zip(labels, values)]))
        if run is None:
            return text
        out = [text]
        line = f"row,{_csv_field(run.label)},{_csv_field(run.value)}\n"
        _run_lines(out, run, lambda _: line)
        return "".join(out)

    def to_table(self) -> str:
        plain, run = _split_run(self.rows)
        lines = [f"# command: {self.command}"]
        for key, value in self.params.items():
            lines.append(f"# {key}: {value}")
        labels = [label for label, _ in plain]
        if run is not None and run.start < run.stop:
            # the run's labels grow with the index, so its last is its widest
            labels.append(run.label.format(run.stop - 1))
        if labels:
            width = max(map(len, labels))
            for label, value in plain:
                lines.append(f"{label.ljust(width)}  {value}")
        text = "\n".join(lines) + "\n"
        if run is None:
            return text
        out = [text]
        _run_lines(out, run, lambda i: f"{run.label}"
                   f"{' ' * (width - len(run.label.format(i)))}  {run.value}\n")
        return "".join(out)

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "table":
            return self.to_table()
        raise ValueError(f"unknown format {fmt!r}: expected csv, json, or table")
