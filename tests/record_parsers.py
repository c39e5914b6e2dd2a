"""Parse rendered CSV and JSON output back into an OutputRecord, and expand
the Run that may end a record's rows.

The CLI only writes records; the tests read them back to check values and
that both encodings are lossless.
"""

import csv
import io
import json

from twistrank.records import OutputRecord, Run


def expanded(rows: list) -> list[tuple[str, str]]:
    """The rows of a record or a command, with the Run that may end them
    written out as plain rows by str.format."""
    if rows and isinstance(rows[-1], Run):
        run = rows[-1]
        return [*rows[:-1], *((run.label.format(i), run.value.format(i))
                              for i in range(run.start, run.stop))]
    return list(rows)


def record_from_json(text: str) -> OutputRecord:
    payload = json.loads(text)
    return OutputRecord(
        command=payload["command"],
        params=dict(payload["params"]),
        rows=[(label, value) for label, value in payload["rows"]],
    )


def record_from_csv(text: str) -> OutputRecord:
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
    return OutputRecord(command=command, params=params, rows=rows)
