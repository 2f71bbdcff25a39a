"""CSV emission with self-describing provenance headers.

Every output file starts with one ``#`` comment carrying the tool
version, the base seed, and a digest of the resolved scenario config, so
a results file can be traced back to its exact inputs. Nothing
time-dependent is written: identical invocations produce byte-identical
files.

``write_csv`` writes tuple rows through ``csv.writer``: the aggregates
and the audit and table presets' files. ``write_csv_text`` writes rows
its caller already formatted as CSV text, chunk by chunk as they come,
so a streamed file is never held in memory whole. It writes the
per-window files of ``run`` and the fig presets (``metrics_raw.csv``,
``audits.csv``, ``outcomes.csv`` and ``<preset>_raw.csv``), which
``MetricsColumns`` formats from its columns one run at a time, with the
bytes ``csv.writer`` would write for their tuple rows, in a fraction of
its time.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .types import ScenarioConfig, config_hash

__version__ = "0.1.0"


def provenance_line(seed: int, config: Optional[ScenarioConfig] = None, note: str = "") -> str:
    parts = [f"# skymarket {__version__}", f"seed={seed}"]
    if config is not None:
        parts.append(f"config={config_hash(config)}")
    if note:
        parts.append(note)
    return " ".join(parts)


@contextmanager
def _open_csv(path: Path, header: Sequence[str], provenance: str):
    """Create ``path`` with its provenance line and header written; yield
    the open file and a ``csv.writer`` on it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(provenance + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        yield fh, writer


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence], provenance: str) -> Path:
    path = Path(path)
    with _open_csv(path, header, provenance) as (_, writer):
        writer.writerows(rows)
    return path


def write_csv_text(path, header: Sequence[str], chunks: Iterable[str], provenance: str) -> Path:
    """Like ``write_csv``, for rows already formatted as CSV text: each
    chunk holds whole ``\\n``-terminated lines and is written as it comes."""
    path = Path(path)
    with _open_csv(path, header, provenance) as (fh, _):
        fh.writelines(chunks)
    return path
