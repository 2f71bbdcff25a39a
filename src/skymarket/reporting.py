"""CSV emission with self-describing provenance headers.

Every output file starts with one ``#`` comment carrying the tool
version, the base seed, and a digest of the resolved scenario config, so
a results file can be traced back to its exact inputs. Nothing
time-dependent is written: identical invocations produce byte-identical
files.
"""

from __future__ import annotations

import csv
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


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence], provenance: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(provenance + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path
