"""Discrete datasets stored as category codes, plus contingency counting.

A dataset is column oriented: one integer code vector per variable. Codes
are nonnegative and live in ``range(cardinality)``. Cardinalities normally
come from a sidecar file so that categories unseen in a sample keep their
slot in downstream tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """Malformed dataset file or inconsistent dataset construction."""


@dataclass(frozen=True)
class Dataset:
    """Discrete data matrix with named, fixed-cardinality variables.

    Attributes:
        names: variable names, one per column of the source file.
        cardinalities: number of categories per variable, each >= 2.
        columns: int32 array of shape (n_vars, n_rows); ``columns[i]`` is
            the code vector of variable ``i``.
    """

    names: tuple[str, ...]
    cardinalities: tuple[int, ...]
    columns: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise DatasetError("duplicate variable names")
        if len(self.cardinalities) != len(self.names):
            raise DatasetError("cardinalities do not match variable count")
        if any(r < 2 for r in self.cardinalities):
            raise DatasetError("every cardinality must be at least 2")
        if self.columns.ndim != 2 or self.columns.shape[0] != len(self.names):
            raise DatasetError("columns must be a (n_vars, n_rows) array")
        for i, r in enumerate(self.cardinalities):
            col = self.columns[i]
            if col.size and (col.min() < 0 or col.max() >= r):
                raise DatasetError(
                    f"variable {self.names[i]!r} has codes outside range({r})"
                )

    @property
    def n_vars(self) -> int:
        return len(self.names)

    @property
    def n_rows(self) -> int:
        return self.columns.shape[1]

    def column(self, i: int) -> np.ndarray:
        return self.columns[i]

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DatasetError(f"unknown variable {name!r}") from None


@dataclass(frozen=True)
class ContingencyTable:
    """Joint counts of two variables within every observed stratum of a
    conditioning set.

    Attributes:
        counts: int64 array of shape (rx, ry, n_strata). Strata with zero
            rows are not materialized; the rest follow the lexicographic
            order of their conditioning-value tuples (tuple positions
            follow the ascending variable indexes of the conditioning set).
        n: total row count (equals counts.sum()).
    """

    counts: np.ndarray = field(repr=False)
    n: int

    @property
    def dims(self) -> tuple[int, int, int]:
        rx, ry, s = self.counts.shape
        return rx, ry, s


def _card_path(path: Path) -> Path:
    return path.with_suffix(".card")


def load_csv(path: str | Path, cardinalities=None) -> Dataset:
    """Load a dataset from a header+integer-codes CSV file.

    The file is UTF-8, comma separated, first line is the header. Cells
    are base-10 nonnegative integers. If a ``.card`` sidecar file exists
    next to ``path`` (one integer per line, header order) it fixes the
    cardinalities; otherwise they are inferred as ``max code + 1`` per
    column (floored at 2 so the type invariant holds). An explicit
    ``cardinalities`` argument overrides both.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise DatasetError(f"{path}: empty file, expected a header row")
    names = tuple(cell.strip() for cell in lines[0].split(","))
    if any(not n for n in names):
        raise DatasetError(f"{path}: empty name in header")
    if len(set(names)) != len(names):
        raise DatasetError(f"{path}: duplicate name in header")

    n_vars = len(names)
    rows = np.empty((max(len(lines) - 1, 0), n_vars), dtype=np.int32)
    kept = 0
    for rownum, line in enumerate(lines[1:], start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != n_vars:
            raise DatasetError(
                f"{path}: row {rownum} has {len(cells)} cells, expected {n_vars}"
            )
        for j, cell in enumerate(cells):
            s = cell.strip()
            if not (s.isascii() and s.isdigit()):
                raise DatasetError(
                    f"{path}: row {rownum}, column {names[j]!r}: "
                    f"{cell.strip()!r} is not a nonnegative base-10 integer"
                )
            rows[kept, j] = int(s)
        kept += 1
    columns = rows[:kept].T.copy()

    if cardinalities is None:
        sidecar = _card_path(path)
        if sidecar.exists():
            cardinalities = _load_cards(sidecar, n_vars)
        else:
            maxima = columns.max(axis=1, initial=-1)
            cardinalities = tuple(max(int(m) + 1, 2) for m in maxima)
    return Dataset(names, tuple(cardinalities), columns)


def _load_cards(path: Path, n_vars: int) -> tuple[int, ...]:
    entries = [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines()]
    entries = [e for e in entries if e]
    if len(entries) != n_vars:
        raise DatasetError(
            f"{path}: {len(entries)} cardinalities for {n_vars} variables"
        )
    cards = []
    for i, e in enumerate(entries):
        if not e.isdigit():
            raise DatasetError(f"{path}: line {i + 1}: {e!r} is not an integer")
        cards.append(int(e))
    return tuple(cards)


def save_csv(data: Dataset, path: str | Path, sidecar: bool = True) -> None:
    """Write ``data`` as CSV plus, by default, a ``.card`` sidecar.

    Loading the result reproduces the dataset exactly, including
    cardinalities when the sidecar is written.
    """
    path = Path(path)
    out = [",".join(data.names)]
    out.extend(",".join(str(int(v)) for v in row) for row in data.columns.T)
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    if sidecar:
        _card_path(path).write_text(
            "\n".join(str(r) for r in data.cardinalities) + "\n", encoding="utf-8"
        )


def contingency(data: Dataset, x: int, y: int, z=()) -> ContingencyTable:
    """Count the joint distribution of variables ``x`` and ``y`` within
    every observed stratum of the conditioning set ``z``.

    Strata are indexed in lexicographic order of the conditioning tuples
    (tuple positions follow ascending variable index). Unobserved strata
    do not appear.

    The stratum code grows one conditioning variable at a time and is
    renumbered by rank once its range outgrows the row count, which keeps
    the order and bounds the single ``bincount`` by the rows.
    """
    z = sorted(set(z))
    if x == y or x in z or y in z:
        raise DatasetError("x, y and z must be distinct")
    rx, ry = data.cardinalities[x], data.cardinalities[y]
    n = data.n_rows
    code = np.zeros(n, dtype=np.int64)
    n_strata = 1
    for j in z:
        code *= data.cardinalities[j]
        code += data.columns[j]
        n_strata *= data.cardinalities[j]
        if n_strata > n:
            uniq, code = np.unique(code, return_inverse=True)
            n_strata = len(uniq)
    flat = (data.columns[x].astype(np.int64) * ry + data.columns[y]) * n_strata
    flat += code
    counts = np.bincount(flat, minlength=rx * ry * n_strata).reshape(rx, ry, n_strata)
    return ContingencyTable(counts.compress(counts.any(axis=(0, 1)), axis=2), n)
