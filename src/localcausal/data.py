"""Discrete datasets stored as category codes, plus contingency counting.

A dataset is column oriented: one integer code vector per variable. Codes
are nonnegative and live in ``range(cardinality)``. Cardinalities normally
come from a sidecar file so that categories unseen in a sample keep their
slot in downstream tables.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """Malformed dataset file or inconsistent dataset construction."""


@dataclass(frozen=True)
class Dataset:
    """Discrete data matrix with named, fixed-cardinality variables.

    Attributes:
        names: variable names, one per column of the source file.
        cardinalities: int category counts, one per variable, each >= 2.
        columns: C-contiguous int32 array of shape (n_vars, n_rows);
            ``columns[i]`` is the code vector of variable ``i``. Integer or
            bool input with codes in range(min(cardinality, 2**31)) is kept
            as int32, int32 input uncopied; anything else is a DatasetError.
    """

    names: tuple[str, ...]
    cardinalities: tuple[int, ...]
    columns: np.ndarray = field(repr=False)

    def __post_init__(self):
        try:
            cards = tuple(map(operator.index, self.cardinalities))
        except TypeError:
            raise DatasetError("every cardinality must be an integer") from None
        object.__setattr__(self, "cardinalities", cards)
        if len(set(self.names)) != len(self.names):
            raise DatasetError("duplicate variable names")
        if len(self.cardinalities) != len(self.names):
            raise DatasetError("cardinalities do not match variable count")
        if any(r < 2 for r in self.cardinalities):
            raise DatasetError("every cardinality must be at least 2")
        if self.columns.ndim != 2 or self.columns.shape[0] != len(self.names):
            raise DatasetError("columns must be a (n_vars, n_rows) array")
        if self.columns.dtype.kind not in "biu":
            raise DatasetError(f"columns must be integer codes, not {self.columns.dtype}")
        for i, r in enumerate(self.cardinalities):
            col, r = self.columns[i], min(r, 2**31)
            if col.size and (col.min() < 0 or col.max() >= r):
                raise DatasetError(
                    f"variable {self.names[i]!r} has codes outside range({r})"
                )
        object.__setattr__(self, "columns", np.ascontiguousarray(self.columns, np.int32))

    @property
    def n_vars(self) -> int:
        return len(self.names)

    @property
    def n_rows(self) -> int:
        return self.columns.shape[1]

    @cached_property
    def value_bits(self) -> tuple[np.ndarray, np.ndarray]:
        """``(bits, first)``: the columns as value bitsets, built on first
        use. ``bits`` is uint64 of shape (sum of cardinalities, ceil(rows /
        64)); bit i of row ``first[v] + b`` is set iff ``columns[v, i] ==
        b``, and padding bits are 0. A count n(x=a, u=b) is the popcount
        of the AND of two rows (Moore & Lee, JAIR 1998)."""
        first = np.cumsum((0, *self.cardinalities))
        bits = np.zeros((first[-1], -(-self.n_rows // 64) * 8), dtype=np.uint8)
        for v, r in enumerate(self.cardinalities):
            bits[first[v]:first[v + 1], :(self.n_rows + 7) // 8] = np.packbits(
                self.columns[v] == np.arange(r)[:, None], axis=1, bitorder="little")
        return bits.view(np.uint64), first[:-1]

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


def _card_path(path: Path) -> Path:
    """The sidecar of data file ``path``; a DatasetError if ``path`` names
    no file or would be its own sidecar."""
    if not path.name:
        raise DatasetError(f"{path}: a dataset path must name a file")
    if path.suffix == ".card":
        raise DatasetError(f"{path}: a dataset path cannot end in .card, "
                           f"the suffix of its sidecar")
    return path.with_suffix(".card")


_BLOCK_ROWS = 1024  # rows per numpy pass: amortises calls, bounds temporaries
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_SPACE = np.array([b < 128 and b != 10 and chr(b).isspace() for b in range(256)])


def load_csv(path: str | Path) -> Dataset:
    """Load a dataset from a header+integer-codes CSV file.

    The file is UTF-8, comma separated, first line is the header; lines
    end in ``\\n``, ``\\r\\n`` or ``\\r`` and at no other character, blank
    lines are skipped, and a cell is ASCII digits with optional whitespace
    around them, at most 2**31 - 1.
    If a ``.card`` sidecar file exists next to ``path`` (one integer per
    line, header order) it fixes the cardinalities, and it is the only
    way to fix them; otherwise they are inferred as ``max code + 1`` per
    column (floored at 2 so the type invariant holds). A ``path`` ending
    in ``.card`` would be its own sidecar, and is refused unread.

    A body in ``save_csv``'s one-digit layout (one-digit cells joined by
    ``,``, every line ended by ``\\n``) is validated and reshaped block by
    block; any other file goes to the general parser. Both readers give
    the same dataset, or the same error, for any file.
    """
    path = Path(path)
    sidecar = _card_path(path)
    try:
        raw = path.read_bytes()
        lines, columns = _read_one_digit(raw)
        if columns is None:  # as read_text decodes: same errors, universal newlines
            text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
            lines = text.split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    if not lines[-1]:
        lines.pop()  # the empty string after the last line end
    if not lines:
        raise DatasetError(f"{path}: empty file, expected a header row")
    names = tuple(cell.strip() for cell in lines[0].split(","))
    if any(not n for n in names):
        raise DatasetError(f"{path}: empty name in header")
    if len(set(names)) != len(names):
        raise DatasetError(f"{path}: duplicate name in header")

    if columns is None:
        rownums = [r for r in range(1, len(lines)) if lines[r].strip()]
        columns = np.empty((len(names), len(rownums)), dtype=np.int32)
        for start in range(0, len(rownums), _BLOCK_ROWS):
            block = rownums[start:start + _BLOCK_ROWS]
            columns[:, start:start + len(block)] = _parse_block(
                [lines[r] for r in block], block, names, path)

    if sidecar.exists():
        cardinalities = _load_cards(sidecar, len(names))
    else:
        maxima = columns.max(axis=1, initial=-1)
        cardinalities = tuple(max(int(m) + 1, 2) for m in maxima)
    return Dataset(names, cardinalities, columns)


def _read_one_digit(raw: bytes):
    """The header line, split at its line end, and the int32 columns of a
    file whose body is ``save_csv``'s one-digit layout; (None, None) for
    any other file."""
    end = raw.find(b"\n") + 1
    try:
        lines = raw[:end].decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return None, None
    n_vars = lines[0].count(",") + 1
    if "\r" in lines[0] or (len(raw) - end) % (2 * n_vars):
        return None, None
    cells = np.frombuffer(raw, dtype=np.uint8, offset=end).reshape(-1, n_vars, 2)
    seps = np.frombuffer(b"," * (n_vars - 1) + b"\n", dtype=np.uint8)
    columns = np.empty((n_vars, len(cells)), dtype=np.int32)
    for start in range(0, len(cells), _BLOCK_ROWS):
        block = cells[start:start + _BLOCK_ROWS]
        digits = block[..., 0] - np.uint8(ord("0"))  # bytes below "0" wrap
        if digits.max() > 9 or (block[..., 1] != seps).any():
            return None, None
        columns[:, start:start + len(block)] = digits.T
    return lines, columns


def _parse_block(lines: list[str], rownums, names, path) -> np.ndarray:
    """Codes of nonblank data lines, shape (len(names), len(lines)), or a
    DatasetError for the first bad line, numbered by ``rownums``."""
    n_vars = len(names)
    text = "\n".join([*lines, ""])
    if not text.isascii():
        text = "\n".join(",".join(map(str.strip, ln.split(","))) for ln in [*lines, ""])
    b = np.frombuffer(text.encode(), dtype=np.uint8)
    kept = np.flatnonzero(~_SPACE[b])
    b = b[kept]
    seps = np.flatnonzero((b == ord(",")) | (b == ord("\n")))  # one per cell
    widths = np.diff(np.flatnonzero(b[seps] == ord("\n")), prepend=-1)
    ragged = np.append(np.flatnonzero(widths != n_vars), len(lines))[0]
    digits = b - ord("0")
    is_digit = digits < 10
    bad = ~is_digit
    bad[seps] = False
    bad[1:] |= (np.diff(kept) > 1) & is_digit[1:] & is_digit[:-1]  # "1 2"
    sizes = np.diff(seps, prepend=-1) - 1  # bytes per cell
    values = np.zeros(len(seps), dtype=np.int64)
    for k in range(min(sizes.max(initial=0), 10)):
        d = np.where(sizes > k, digits.take(seps - 1 - k, mode="clip"), 0)
        values += d.astype(np.int64) * _POW10[k]
    if sizes.max(initial=0) > 10:  # a nonzero byte left of the last ten
        nonzero = np.flatnonzero(digits)
        bad[nonzero[nonzero < seps[np.searchsorted(seps, nonzero)] - 10]] = True
    cell_bad = (sizes == 0) | (values > 2**31 - 1)
    cell_bad[np.searchsorted(seps, np.flatnonzero(bad))] = True
    first_bad = np.append(np.flatnonzero(cell_bad), len(seps))[0]
    if first_bad < ragged * n_vars:
        i, j = divmod(first_bad, n_vars)
        s = lines[i].split(",")[j].strip()
        what = ("exceeds 2**31 - 1" if s.isascii() and s.isdigit()
                else "is not a nonnegative base-10 integer")
        raise DatasetError(f"{path}: row {rownums[i]}, column {names[j]!r}: {s!r} {what}")
    if ragged < len(lines):
        raise DatasetError(f"{path}: row {rownums[ragged]} has "
                           f"{lines[ragged].count(',') + 1} cells, expected {n_vars}")
    return values.reshape(-1, n_vars).T


def _load_cards(path: Path, n_vars: int) -> tuple[int, ...]:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    entries = [e for e in map(str.strip, text.split("\n")) if e]
    if len(entries) != n_vars:
        raise DatasetError(
            f"{path}: {len(entries)} cardinalities for {n_vars} variables"
        )
    for i, e in enumerate(entries):
        if not (e.isascii() and e.isdigit()):
            raise DatasetError(f"{path}: line {i + 1}: {e!r} is not an integer")
    return tuple(map(int, entries))


def save_csv(data: Dataset, path: str | Path) -> None:
    """Write ``data`` as CSV plus a ``.card`` sidecar of its cardinalities.

    After the header, each row is its codes in unpadded base 10, comma
    separated and ended by ``\\n``. Loading the result reproduces the
    dataset exactly, cardinalities included, so a name that is empty, has
    edge whitespace, or holds a comma or line break is refused. When every
    code is below 10 the body is the one-digit layout ``load_csv`` reshapes.
    A block of rows is rendered into slots of W + 1 bytes per cell, W the
    digit count of its largest code: digits right-aligned, then ``,`` or
    ``\\n``. When W > 1 the unused leading bytes of each slot are dropped.
    """
    path = Path(path)
    sidecar = _card_path(path)
    if not data.n_vars:
        raise DatasetError(f"{path}: cannot save a dataset with no variables")
    for name in data.names:
        if not name or name != name.strip() or not {",", "\n", "\r"}.isdisjoint(name):
            raise DatasetError(f"{path}: variable name {name!r} cannot be "
                               f"written as a CSV header cell")
    with path.open("wb") as f:
        f.write((",".join(data.names) + "\n").encode("utf-8"))
        for start in range(0, data.n_rows, _BLOCK_ROWS):
            cells = data.columns[:, start:start + _BLOCK_ROWS].T
            width = len(str(cells.max()))
            slots = np.empty((*cells.shape, width + 1), dtype=np.uint8)
            slots[..., width] = ord(",")
            slots[:, -1, width] = ord("\n")
            rest = cells
            for k in range(width - 1, 0, -1):  # the leading digit is what remains
                rest, slots[..., k] = divmod(rest, 10)
            slots[..., 0] = rest
            slots[..., :width] += ord("0")
            if width > 1:
                slots = slots[cells[..., None] >= np.r_[_POW10[width - 1:0:-1], 0, 0]]
            f.write(slots)
    sidecar.write_text(
        "\n".join(str(r) for r in data.cardinalities) + "\n", encoding="utf-8"
    )


def contingency(data: Dataset, x: int, y: int, z=()) -> ContingencyTable:
    """Count the joint distribution of variables ``x`` and ``y`` within
    every observed stratum of the conditioning set ``z``.

    Strata are indexed in lexicographic order of the conditioning tuples
    (tuple positions follow ascending variable index). Unobserved strata
    do not appear.

    When S, the product of z's cardinalities, is at most the row count and
    rx * ry * S < 2**31, the cell code (x * ry + y) * S + stratum is folded
    in place in one int32 array. Otherwise an int64 stratum code is ranked
    anew whenever it outgrows the rows: order kept, ``bincount`` bounded.
    """
    z = sorted(set(z))
    if x == y or x in z or y in z:
        raise DatasetError("x, y and z must be distinct")
    if min(x, y, *z) < 0 or max(x, y, *z) >= data.n_vars:
        raise DatasetError("variable index out of range")
    cards, cols, n = data.cardinalities, data.columns, data.n_rows
    rx, ry, n_strata = cards[x], cards[y], math.prod(cards[j] for j in z)
    if n_strata <= n and rx * ry * n_strata < 2**31:
        flat = cols[x] * ry
        flat += cols[y]
        for j in z:
            flat *= cards[j]
            flat += cols[j]
    else:
        flat = cols[x].astype(np.int64) * ry + cols[y]
        code, n_strata = np.zeros(n, np.int64), 1
        for j in z:
            code = code * cards[j] + cols[j]
            n_strata *= cards[j]
            if n_strata > n:
                uniq, code = np.unique(code, return_inverse=True)
                n_strata = len(uniq)
        flat *= n_strata
        flat += code
    counts = np.bincount(flat, minlength=rx * ry * n_strata).reshape(rx, ry, n_strata)
    seen = counts.reshape(rx * ry, n_strata).any(axis=0)
    return ContingencyTable(counts if seen.all() else counts.compress(seen, axis=2), n)
