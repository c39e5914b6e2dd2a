"""Structured command output with lossless CSV/JSON round-tripping.

All payload values are carried as strings; formatting happens once, when
a record is built, so every encoding of the same record is byte-stable.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field


class _LineSink(list):
    r"""csv.writer target keeping each row with its "\r\n" cut to "\n"."""

    def write(self, line: str) -> None:
        self.append(line[:-2] + "\n")


@dataclass
class OutputRecord:
    command: str
    params: dict[str, str] = field(default_factory=dict)
    rows: list[tuple[str, str]] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "params": self.params,
            "rows": [[label, value] for label, value in self.rows],
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "OutputRecord":
        payload = json.loads(text)
        return cls(
            command=payload["command"],
            params=dict(payload["params"]),
            rows=[(label, value) for label, value in payload["rows"]],
        )

    def to_csv(self) -> str:
        lines = _LineSink()
        # the default "\r\n" terminator makes the writer quote a lone "\r"
        # as well as "\n"; the sink ends each row in "\n" alone
        writer = csv.writer(lines)
        writer.writerow(["section", "key", "value"])
        writer.writerow(["command", "", self.command])
        for key, value in self.params.items():
            writer.writerow(["param", key, value])
        for label, value in self.rows:
            writer.writerow(["row", label, value])
        return "".join(lines)

    @classmethod
    def from_csv(cls, text: str) -> "OutputRecord":
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header != ["section", "key", "value"]:
            raise ValueError("not an OutputRecord CSV: bad header")
        command = ""
        params: dict[str, str] = {}
        rows: list[tuple[str, str]] = []
        for section, key, value in reader:
            if section == "command":
                command = value
            elif section == "param":
                params[key] = value
            elif section == "row":
                rows.append((key, value))
            else:
                raise ValueError(f"not an OutputRecord CSV: unknown section {section!r}")
        return cls(command=command, params=params, rows=rows)

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
