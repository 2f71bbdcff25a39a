"""CSV emission with self-describing provenance headers.

Every output file starts with one ``#`` comment carrying the tool
version, the base seed, and a digest of the resolved scenario config, so
a results file can be traced back to its exact inputs. Nothing
time-dependent is written: identical invocations produce byte-identical
files.

``write_csv`` is the one writer: it writes the provenance line and the
header, then the file's rows as CSV text, chunk by chunk as they come,
so a streamed file is never held in memory whole. Every field is
written as its ``str``: no field of an output file holds a comma, a
quote or a line break, and ``str`` of a float is its ``repr``, so the
bytes are those ``csv.writer`` writes for the same rows, which the tests
hold them to. Tuple rows (the aggregates, and the audit and table
presets' files) are formatted by ``csv_text``; a caller passes
``map(csv_text, [rows])`` so they are formatted inside the writer. The
per-window files (``metrics_raw.csv``, ``audits.csv``, ``outcomes.csv``
and ``<preset>_raw.csv``) come from ``MetricsColumns``, which formats
them from its columns one run at a time.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from .types import ScenarioConfig, config_hash

__version__ = "0.1.0"


def provenance_line(seed: int, config: ScenarioConfig, note: str) -> str:
    return f"# skymarket {__version__} seed={seed} config={config_hash(config)} {note}"


def csv_text(rows: Iterable[Sequence]) -> str:
    """CSV text of ``rows``, one ``\\n``-terminated line per row."""
    # a list display beats map(str, row) on rows of a few fields
    return "".join([",".join([str(field) for field in row]) + "\n" for row in rows])


def write_csv(path, header: Sequence[str], chunks: Iterable[str], provenance: str) -> Path:
    """Create ``path`` with its provenance line and header, then write
    each chunk of ``chunks`` (whole ``\\n``-terminated lines) as it comes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{provenance}\n{','.join(header)}\n")
        fh.writelines(chunks)
    return path
