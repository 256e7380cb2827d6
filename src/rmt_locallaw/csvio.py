"""The one CSV writer: a `# rmt-locallaw v1 schema=<name>` line, a header row,
then the rows, with floats in full round-trip precision."""

from __future__ import annotations

import csv
import io


def csv_text(schema: str, columns, rows) -> str:
    buf = io.StringIO()
    buf.write(f"# rmt-locallaw v1 schema={schema}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()


def write_csv(path, schema: str, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(schema, columns, rows))
