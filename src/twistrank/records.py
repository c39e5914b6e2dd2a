r"""Structured command output, rendered as a table, CSV or JSON.

All payload values are carried as strings; formatting happens once, when
a record is built, so every encoding of the same record is byte-stable.

Both encoders write their bytes in one pass: to_json those of
json.dumps(indent=2), to_csv those of csv.writer's excel dialect with "\n"
row ends (see _csv_field). Each is lossless: json.loads, or csv.reader,
gives back every string of the record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote


def _csv_field(text: str) -> str:
    r"""The field as QUOTE_MINIMAL writes it under the excel dialect's "\r\n"
    terminator: quoted, each '"' doubled, when it holds ',', '"', CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _container(open_: str, items: list[str], close: str) -> str:
    """A value of the top-level object, laid out as json.dumps(indent=2) does."""
    if not items:
        return open_ + close
    return f"{open_}\n    " + ",\n    ".join(items) + f"\n  {close}"


@dataclass
class OutputRecord:
    command: str
    params: dict[str, str] = field(default_factory=dict)
    rows: list[tuple[str, str]] = field(default_factory=list)

    def to_json(self) -> str:
        """json.dumps(payload, indent=2) + "\n", byte for byte. With an indent,
        dumps walks the document in pure-Python generators, so the layout is
        written here, and each string is quoted by the C function dumps uses."""
        params = [f"{_quote(key)}: {_quote(value)}" for key, value in self.params.items()]
        rows = [f"[\n      {_quote(label)},\n      {_quote(value)}\n    ]"
                for label, value in self.rows]
        return (f'{{\n  "command": {_quote(self.command)},\n'
                f'  "params": {_container("{", params, "}")},\n'
                f'  "rows": {_container("[", rows, "]")}\n}}\n')

    def to_csv(self) -> str:
        params = [f"param,{_csv_field(key)},{_csv_field(value)}\n"
                  for key, value in self.params.items()]
        rows = [f"row,{_csv_field(label)},{_csv_field(value)}\n" for label, value in self.rows]
        return (f"section,key,value\ncommand,,{_csv_field(self.command)}\n"
                + "".join(params) + "".join(rows))

    def to_table(self) -> str:
        lines = [f"# command: {self.command}"]
        for key, value in self.params.items():
            lines.append(f"# {key}: {value}")
        if self.rows:
            width = max(len(label) for label, _ in self.rows)
            for label, value in self.rows:
                lines.append(f"{label.ljust(width)}  {value}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "table":
            return self.to_table()
        raise ValueError(f"unknown format {fmt!r}: expected csv, json, or table")
