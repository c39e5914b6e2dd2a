r"""Structured command output, rendered as a table, CSV or JSON.

All payload values are carried as strings; formatting happens once, when
a record is built, so every encoding of the same record is byte-stable.

Both encoders write their bytes in one pass: to_json those of
json.dumps(indent=2), to_csv those of csv.writer's excel dialect with "\n"
row ends (see _csv_field), quoted per column (see _csv_column). Each is
lossless: json.loads, or csv.reader, gives back every string of the record.
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
        keys = _csv_column(list(self.params))
        params = _csv_column(list(self.params.values()))
        labels = _csv_column([label for label, _ in self.rows])
        values = _csv_column([value for _, value in self.rows])
        return (f"section,key,value\ncommand,,{_csv_field(self.command)}\n"
                + "".join([f"param,{key},{value}\n" for key, value in zip(keys, params)])
                + "".join([f"row,{label},{value}\n" for label, value in zip(labels, values)]))

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
