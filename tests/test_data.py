import math
import re

import numpy as np
import pytest

from localcausal import (Dataset, DatasetError, contingency, g2_statistic, load_bif,
                         load_csv, sample, save_csv)
from localcausal.assets import asset_path
from localcausal.data import _BLOCK_ROWS

from oracles import contingency_brute, load_csv_reference, save_csv_reference


def small_dataset():
    cols = np.array(
        [
            [0, 1, 0, 1, 1, 0],
            [1, 1, 0, 0, 1, 0],
            [0, 2, 1, 2, 0, 1],
        ],
        dtype=np.int32,
    )
    return Dataset(("a", "b", "c"), (2, 2, 3), cols)


def test_dataset_basic_properties():
    data = small_dataset()
    assert data.n_vars == 3
    assert data.n_rows == 6
    assert data.index_of("c") == 2
    assert list(data.columns[1]) == [1, 1, 0, 0, 1, 0]
    with pytest.raises(DatasetError):
        data.index_of("nope")


def test_dataset_rejects_duplicate_names():
    cols = np.zeros((2, 3), dtype=np.int32)
    with pytest.raises(DatasetError, match="duplicate"):
        Dataset(("a", "a"), (2, 2), cols)


def test_dataset_rejects_small_cardinality():
    cols = np.zeros((1, 3), dtype=np.int32)
    with pytest.raises(DatasetError, match="at least 2"):
        Dataset(("a",), (1,), cols)


def test_dataset_rejects_out_of_range_codes():
    cols = np.array([[0, 3]], dtype=np.int32)
    with pytest.raises(DatasetError, match="outside range"):
        Dataset(("a",), (2,), cols)


@pytest.mark.parametrize("card", [2.5, 2.0, "2", None])
def test_dataset_rejects_cardinalities_that_are_not_integers(card):
    cols = np.zeros((3, 4), dtype=np.int32)
    with pytest.raises(DatasetError, match="must be an integer"):
        Dataset(("a", "b", "c"), (card, 2, 2), cols)


def test_dataset_stores_cardinalities_as_a_tuple_of_ints():
    data = Dataset(("a", "b"), [np.int64(3), 2], np.zeros((2, 4), dtype=np.int32))
    assert data.cardinalities == (3, 2)
    assert type(data.cardinalities) is tuple
    assert [type(r) for r in data.cardinalities] == [int, int]


def test_dataset_rejects_mismatched_cardinalities():
    cols = np.zeros((2, 3), dtype=np.int32)
    with pytest.raises(DatasetError, match="match variable count"):
        Dataset(("a", "b"), (2,), cols)


@pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 2, 2), (1, 3)])
def test_dataset_rejects_columns_that_are_not_vars_by_rows(shape):
    with pytest.raises(DatasetError, match=re.escape("(n_vars, n_rows)")):
        Dataset(("a", "b"), (2, 2), np.zeros(shape, dtype=np.int32))


@pytest.mark.parametrize("n_rows", [0, 1, 63, 64, 65, 1000])
def test_value_bits_hold_one_row_per_variable_and_value(n_rows):
    cards = (2, 3, 5, 2)
    rng = np.random.Generator(np.random.PCG64(n_rows))
    cols = rng.integers(0, np.array(cards)[:, None], size=(4, n_rows)).astype(np.int32)
    data = Dataset(tuple("abcd"), cards, cols)
    bits, first = data.value_bits
    assert bits.dtype == np.uint64 and bits.shape == (12, -(-n_rows // 64))
    assert first.tolist() == [0, 2, 5, 10]
    unpacked = np.unpackbits(bits.view(np.uint8), axis=1, bitorder="little")
    assert not unpacked[:, n_rows:].any()  # padding
    for v, r in enumerate(cards):
        for b in range(r):
            assert np.array_equal(unpacked[first[v] + b, :n_rows], cols[v] == b)
    assert data.value_bits is data.value_bits


def test_sample_and_csv_io_never_build_value_bits(tmp_path):
    # built lazily, for CI tests alone: I/O pays neither its time nor its memory
    data = sample(load_bif(asset_path("alarm")), 100, 1)
    save_csv(data, tmp_path / "d.csv")
    loaded = load_csv(tmp_path / "d.csv")
    assert "value_bits" not in data.__dict__ and "value_bits" not in loaded.__dict__


def test_load_csv_with_sidecar(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("x,y\n0,1\n1,0\n0,0\n")
    (tmp_path / "d.card").write_text("3\n2\n")
    data = load_csv(csv)
    assert data.names == ("x", "y")
    assert data.cardinalities == (3, 2)
    assert data.columns.tolist() == [[0, 1, 0], [1, 0, 0]]


def test_load_csv_infers_cardinalities(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("x,y\n0,2\n1,0\n")
    data = load_csv(csv)
    assert data.cardinalities == (2, 3)


def test_load_csv_inference_floors_at_two(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("x,y\n0,1\n0,0\n")
    data = load_csv(csv)
    assert data.cardinalities == (2, 2)


def test_load_csv_skips_blank_lines(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("x,y\n0,1\n\n1,0\n\n")
    data = load_csv(csv)
    assert data.n_rows == 2


def test_load_csv_reports_bad_row_width(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("x,y\n0,1\n0\n")
    with pytest.raises(DatasetError, match="row 2 has 1 cells, expected 2"):
        load_csv(csv)


def test_load_csv_reports_bad_cell(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("x,y\n0,1\n0,-1\n")
    with pytest.raises(DatasetError, match="row 2.*'y'.*'-1'"):
        load_csv(csv)


def test_load_csv_rejects_non_ascii_digits(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("x\n١\n")
    with pytest.raises(DatasetError, match="not a nonnegative base-10"):
        load_csv(csv)


def test_load_csv_rejects_empty_file(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("")
    with pytest.raises(DatasetError, match="empty file"):
        load_csv(csv)


def test_load_csv_rejects_an_empty_header_name(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("a,,c\n0,0,0\n")
    with pytest.raises(DatasetError, match="empty name in header"):
        load_csv(csv)


def test_load_csv_rejects_duplicate_header(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("x,x\n0,0\n")
    with pytest.raises(DatasetError, match="duplicate name"):
        load_csv(csv)


def test_load_csv_missing_file():
    with pytest.raises(DatasetError, match="cannot read"):
        load_csv("/nonexistent/path/d.csv")


def test_load_csv_bad_sidecar_count(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("x,y\n0,1\n")
    (tmp_path / "d.card").write_text("2\n")
    with pytest.raises(DatasetError, match="1 cardinalities for 2 variables"):
        load_csv(csv)


def test_save_csv_round_trip_exact(tmp_path):
    data = small_dataset()
    out = tmp_path / "out.csv"
    save_csv(data, out)
    text = out.read_text()
    assert text == "a,b,c\n0,1,0\n1,1,2\n0,0,1\n1,0,2\n1,1,0\n0,0,1\n"
    assert (tmp_path / "out.card").read_text() == "2\n2\n3\n"
    back = load_csv(out)
    assert back.names == data.names
    assert back.cardinalities == data.cardinalities
    assert np.array_equal(back.columns, data.columns)


def test_load_csv_accepts_int32_max(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("x,y\n2147483647,0\n0,1\n")
    data = load_csv(csv)
    assert data.columns.tolist() == [[2147483647, 0], [0, 1]]
    assert data.cardinalities == (2147483648, 2)


@pytest.mark.parametrize("cell", ["2147483648", "99999999999", "0" * 12 + "10" * 10])
def test_load_csv_rejects_cells_beyond_int32(tmp_path, cell):
    csv = tmp_path / "d.csv"
    csv.write_text(f"x,y\n0,1\n1, {cell}\n")
    with pytest.raises(DatasetError, match=f"row 2, column 'y': '{cell}' exceeds"):
        load_csv(csv)


def test_load_csv_rejects_non_ascii_sidecar_digits(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("x\n0\n1\n")
    (tmp_path / "d.card").write_text("\u00b2\n")
    with pytest.raises(DatasetError, match="line 1: '\u00b2' is not an integer"):
        load_csv(csv)


def test_load_csv_rejects_invalid_utf8(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_bytes(b"x\n\xff\n")
    with pytest.raises(DatasetError, match="cannot read"):
        load_csv(csv)


# Characters str.splitlines breaks at besides \n and \r.
NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", NOT_LINE_ENDS)
def test_load_csv_ends_rows_only_at_newlines(tmp_path, sep):
    csv = tmp_path / "d.csv"
    csv.write_text(f"x\n0{sep}1\n5\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="row 1, column 'x'"):
        load_csv(csv)
    csv.write_text("x,y\n0,1\n", encoding="utf-8")
    csv.with_suffix(".card").write_text(f"2{sep}3\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="1 cardinalities for 2 variables"):
        load_csv(csv)


def test_load_csv_ends_rows_at_crlf_and_lone_cr(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_bytes(b"x\r\n0\r1\n")
    assert list(load_csv(csv).columns[0]) == [0, 1]


# Cells the fuzz test draws from: valid codes with and without padding,
# and every way a cell can be bad.
FUZZ_SPACES = ["", " ", "  ", "\t", "\x1f", "\xa0", "\u3000"]
FUZZ_BAD = ["", " ", "-1", "+1", "1.0", "1_0", "1e3", "a", "\u0661", "\u00b2",
            "1 2", "1\t2", "1\xa02", "0x1", "2147483648", "99999999999",
            "00000000000099999999999"]
FUZZ_GOOD = ["2147483647", "0000000000002147483647", "007", "10", "0"]


def fuzz_cell(rng, p_bad):
    roll = rng.random()
    if roll < p_bad:
        return str(rng.choice(FUZZ_BAD))
    if roll < p_bad + 0.05:
        cell = str(rng.choice(FUZZ_GOOD))
    else:
        cell = str(rng.integers(0, 10 ** int(rng.integers(1, 4))))
    if rng.random() < 0.1:
        cell = str(rng.choice(FUZZ_SPACES)) + cell + str(rng.choice(FUZZ_SPACES))
    return cell


def fuzz_file(rng) -> str:
    """A random dataset file: mostly a few rows, sometimes a few blocks
    with bad cells and ragged rows rare enough to land in any block."""
    n_vars = int(rng.integers(1, 5))
    big = rng.random() < 0.03
    n_rows = int(rng.integers(_BLOCK_ROWS - 2, 3 * _BLOCK_ROWS) if big
                 else rng.integers(0, 10))
    p_bad = float(rng.choice([0.0, 0.02, 0.1]) if not big
                  else rng.choice([0.5, 1.0, 2.0]) / (n_rows * n_vars))
    lines = [",".join(f"v{j}" for j in range(n_vars))]
    for _ in range(n_rows):
        if rng.random() < 0.05:
            lines.append(str(rng.choice(["", " ", "\t", "\xa0"])))
        width = n_vars
        if rng.random() < p_bad / 2:
            width = max(1, n_vars + int(rng.choice([-1, 1])))
        lines.append(",".join(fuzz_cell(rng, p_bad) for _ in range(width)))
    ends = [str(rng.choice(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if rng.random() < 0.8 else text[:-len(ends[-1])]


def load_outcome(load, path):
    try:
        data = load(path)
    except DatasetError as exc:
        return "error", str(exc)
    except OverflowError:
        return "overflow", None
    return "ok", (data.names, data.cardinalities, data.columns.tolist())


def test_load_csv_matches_reference_on_fuzzed_files(tmp_path):
    rng = np.random.Generator(np.random.PCG64(31))
    path = tmp_path / "f.csv"
    seen = set()
    for _ in range(2000):
        path.write_bytes(fuzz_file(rng).encode("utf-8"))
        expected = load_outcome(load_csv_reference, path)
        got = load_outcome(load_csv, path)
        seen.add(expected[0])
        if expected[0] == "overflow":
            assert got[0] == "error" and "exceeds 2**31 - 1" in got[1]
        else:
            assert got == expected
        if got[0] == "error" and int(re.search(r"row (\d+)", got[1])[1]) > _BLOCK_ROWS:
            seen.add("error past the first block")
    assert seen == {"ok", "error", "overflow", "error past the first block"}


@pytest.mark.parametrize("n_rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                                    _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7])
def test_save_csv_matches_reference_and_round_trips(tmp_path, n_rows):
    rng = np.random.Generator(np.random.PCG64(n_rows))
    edges = [0, 9, 10, 99, 100, 10**9 - 1, 10**9, 2**31 - 1]
    cols = rng.integers(0, np.minimum(10 ** rng.integers(1, 11, size=(3, n_rows)), 2**31))
    cols[:, : len(edges)] = np.array(edges[:n_rows])
    data = Dataset(("a", "bb", "c"), (2**31,) * 3, cols.astype(np.int32))
    out = tmp_path / "out.csv"
    save_csv(data, out)
    assert out.read_bytes() == save_csv_reference(data)
    back = load_csv(out)
    assert back.cardinalities == data.cardinalities
    assert np.array_equal(back.columns, data.columns)


def test_save_csv_mixed_widths_in_one_block(tmp_path):
    codes = [0, 9] + [c for w in range(1, 9) for c in (10 ** w, 10 ** (w + 1) - 1)]
    codes += [10**9, 2**31 - 1]
    cols = np.array([np.roll(codes, j) for j in range(3)] + [np.arange(20) % 10])
    data = Dataset(("a", "b", "c", "d"), (2**31, 2**31, 2**31, 10),
                   cols.astype(np.int32))
    out = tmp_path / "out.csv"
    save_csv(data, out)
    assert out.read_bytes() == save_csv_reference(data)
    back = load_csv(out)
    assert back.cardinalities == data.cardinalities
    assert np.array_equal(back.columns, data.columns)


@pytest.mark.parametrize("n_rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
def test_save_csv_one_variable_matches_reference(tmp_path, n_rows):
    rng = np.random.Generator(np.random.PCG64(n_rows))
    data = Dataset(("x",), (12,), rng.integers(0, 12, (1, n_rows), dtype=np.int32))
    out = tmp_path / "out.csv"
    save_csv(data, out)
    assert out.read_bytes() == save_csv_reference(data)


def test_save_csv_rejects_a_card_path(tmp_path):
    out = tmp_path / "x.card"
    with pytest.raises(DatasetError, match="cannot end in .card"):
        save_csv(small_dataset(), out)
    assert not out.exists()


def test_load_csv_rejects_a_card_path(tmp_path):
    # a data file named d.card would be read as its own sidecar
    path = tmp_path / "d.card"
    path.write_text("a\n0\n1\n")
    with pytest.raises(DatasetError, match="cannot end in .card, the suffix "
                                           "of its sidecar"):
        load_csv(path)


@pytest.mark.parametrize("path", ["", ".", "/"])
def test_csv_paths_that_name_no_file_are_refused(path):
    with pytest.raises(DatasetError, match="must name a file"):
        load_csv(path)
    with pytest.raises(DatasetError, match="must name a file"):
        save_csv(small_dataset(), path)


@pytest.mark.parametrize("bad", ["", "a,b", "a\nb", "a\rb", " a", "a ", "a\t",
                                 "\u00a0a"])
def test_save_csv_rejects_names_csv_cannot_carry(tmp_path, bad):
    data = Dataset(("ok", bad), (2, 2), np.zeros((2, 3), np.int32))
    with pytest.raises(DatasetError, match=re.escape(repr(bad))):
        save_csv(data, tmp_path / "d.csv")
    assert list(tmp_path.iterdir()) == []


def test_save_csv_keeps_inner_spaces_and_punctuation(tmp_path):
    names = ("a b", "x;y", "café", '"q"')
    data = Dataset(names, (2, 2, 2, 2), np.zeros((4, 3), np.int32))
    save_csv(data, tmp_path / "d.csv")
    assert load_csv(tmp_path / "d.csv").names == names


def test_save_csv_rejects_no_variables(tmp_path):
    out = tmp_path / "empty.csv"
    with pytest.raises(DatasetError, match="no variables"):
        save_csv(Dataset((), (), np.zeros((0, 5), np.int32)), out)
    assert list(tmp_path.iterdir()) == []


def one_digit_dataset(rng, n_vars, n_rows):
    cards = tuple(int(r) for r in rng.integers(2, 11, n_vars))
    cols = np.array([rng.integers(0, r, n_rows) for r in cards], dtype=np.int32)
    return Dataset(tuple(f"v{j}" for j in range(n_vars)), cards,
                   cols.reshape(n_vars, n_rows))


def reference_outcome(path):
    """``load_outcome`` of the reference, with ``load_csv``'s message for
    a file that is not UTF-8."""
    try:
        return load_outcome(load_csv_reference, path)
    except UnicodeDecodeError as exc:
        return "error", f"cannot read {path}: {exc}"


@pytest.mark.parametrize("n_vars", [1, 37])
@pytest.mark.parametrize("n_rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
def test_load_csv_reads_one_digit_files_by_reshape(tmp_path, monkeypatch, n_vars, n_rows):
    def no_parser(*args):
        raise AssertionError("the general parser read a one-digit file")

    data = one_digit_dataset(np.random.Generator(np.random.PCG64(n_rows)), n_vars, n_rows)
    path = tmp_path / "d.csv"
    save_csv(data, path)
    with monkeypatch.context() as m:
        m.setattr("localcausal.data._parse_block", no_parser)
        back = load_csv(path)
        assert back.cardinalities == data.cardinalities
        assert np.array_equal(back.columns, data.columns)
        path.with_suffix(".card").unlink()
        assert load_outcome(load_csv, path) == reference_outcome(path)


def mutations(rng, text: bytes, n_vars: int):
    """Single edits of a canonical file, each at a random place."""
    b = np.frombuffer(text, np.uint8)
    body = np.arange(len(b)) > text.index(b"\n")

    def at(where):
        return int(rng.choice(np.flatnonzero(where & body)))

    def replace(pos, new):
        return text[:pos] + new + text[pos + 1:]

    digit, end = at((b >= ord("0")) & (b <= ord("9"))), at(b == ord("\n"))
    for new in (b" ", b"a", b"/", b":", b"12", "\u0661".encode(), b"\xff"):
        yield replace(digit, new)
    if n_vars > 1:
        comma = at(b == ord(","))
        swapped = bytearray(text)
        swapped[comma], swapped[end] = swapped[end], swapped[comma]
        yield bytes(swapped)
        yield text[:end - 2] + text[end:]  # one cell too few
    yield replace(end, b",0\n")  # one cell too many
    yield text.replace(b"\n", b"\r\n")
    yield text.replace(b"\n", b"\r")
    yield replace(text.index(b"\n"), b"\r")  # the header alone ends in \r
    yield replace(end, b"\n\n")
    yield text[:-1]
    yield "\ufeff".encode() + text
    yield "\u00e9".encode() + text
    yield b"\xff" + text
    yield text + "\u00e9".encode()[:1]  # a sequence cut off by the end


@pytest.mark.parametrize("n_vars", [1, 4])
def test_load_csv_matches_reference_on_mutated_one_digit_files(tmp_path, n_vars):
    rng = np.random.Generator(np.random.PCG64(n_vars))
    path = tmp_path / "d.csv"
    outcomes = set()
    for n_rows in (1, 3, 2 * _BLOCK_ROWS + 5):
        save_csv(one_digit_dataset(rng, n_vars, n_rows), path)
        path.with_suffix(".card").unlink()
        for _ in range(3):
            for text in mutations(rng, path.read_bytes(), n_vars):
                mutated = tmp_path / "m.csv"
                mutated.write_bytes(text)
                expected = reference_outcome(mutated)
                assert load_outcome(load_csv, mutated) == expected
                outcomes.add(expected[0])
    assert outcomes == {"ok", "error"}


def brute_strata(table, data, x, y, z=()):
    """Check ``table`` against the brute-force recount, stratum by stratum
    in sorted-key order, and return the observed keys in that order."""
    brute = contingency_brute(data.columns, data.cardinalities, x, y, tuple(z))
    keys = sorted(brute)
    assert table.counts.shape == (data.cardinalities[x], data.cardinalities[y], len(keys))
    for s, key in enumerate(keys):
        assert np.array_equal(table.counts[:, :, s], brute[key])
    return keys


def test_contingency_unconditional():
    data = small_dataset()
    table = contingency(data, 0, 1)
    assert table.counts.shape == (2, 2, 1)
    assert brute_strata(table, data, 0, 1) == [()]
    assert table.n == 6
    # rows of (a, b): (0,1) (1,1) (0,0) (1,0) (1,1) (0,0)
    assert table.counts[:, :, 0].tolist() == [[2, 1], [1, 2]]


def test_contingency_conditional_strata_in_order():
    data = small_dataset()
    table = contingency(data, 0, 1, (2,))
    # c takes values 0, 1, 2; all observed.
    assert brute_strata(table, data, 0, 1, (2,)) == [(0,), (1,), (2,)]
    assert table.counts.sum() == 6
    # stratum c=2 has rows 1 and 3: (a,b) = (1,1) and (1,0)
    assert table.counts[:, :, 2].tolist() == [[0, 0], [1, 1]]


def test_contingency_skips_unobserved_strata():
    cols = np.array([[0, 1], [1, 0], [2, 2]], dtype=np.int32)
    data = Dataset(("a", "b", "c"), (2, 2, 3), cols)
    table = contingency(data, 0, 1, (2,))
    assert brute_strata(table, data, 0, 1, (2,)) == [(2,)]
    assert table.counts.shape == (2, 2, 1)


def test_contingency_rejects_overlap():
    data = small_dataset()
    with pytest.raises(DatasetError):
        contingency(data, 0, 0)
    with pytest.raises(DatasetError):
        contingency(data, 0, 1, (1,))


@pytest.mark.parametrize("x, y, z", [(-1, 0, ()), (0, 1, (-1,)),
                                     (0, 1, (99,))])
def test_contingency_rejects_out_of_range_index(x, y, z):
    data = small_dataset()
    with pytest.raises(DatasetError, match="variable index out of range"):
        contingency(data, x, y, z)


def test_contingency_empty_dataset():
    data = Dataset(("a", "b"), (2, 2), np.empty((2, 0), dtype=np.int32))
    table = contingency(data, 0, 1)
    assert table.n == 0
    assert table.counts.sum() == 0


@pytest.mark.parametrize("z", [(2,), (2, 3)])
def test_contingency_on_no_rows_has_no_strata(z):
    data = Dataset(tuple("abcd"), (2, 3, 4, 2), np.empty((4, 0), dtype=np.int32))
    table = contingency(data, 0, 1, z)
    assert table.counts.shape == (2, 3, 0) and table.n == 0
    assert g2_statistic(table) == (0.0, 0)


def test_contingency_matches_brute_force():
    rng = np.random.Generator(np.random.PCG64(7))
    cards = (2, 3, 2, 4, 2)
    cols = np.stack([rng.integers(0, r, size=80) for r in cards]).astype(np.int32)
    data = Dataset(tuple("abcde"), cards, cols)
    for _ in range(40):
        x, y = rng.choice(5, size=2, replace=False)
        pool = [v for v in range(5) if v not in (x, y)]
        k = int(rng.integers(0, 3))
        z = tuple(rng.choice(pool, size=k, replace=False))
        table = contingency(data, int(x), int(y), z)
        brute_strata(table, data, int(x), int(y), z)


def test_contingency_conditioning_space_beyond_int64():
    # 10**22 conditioning cells overflow a flat int64 stratum index.
    rng = np.random.Generator(np.random.PCG64(24))
    cols = rng.integers(0, 10, size=(24, 500)).astype(np.int32)
    data = Dataset(tuple(f"v{i}" for i in range(24)), (10,) * 24, cols)
    z = tuple(range(2, 24))
    table = contingency(data, 0, 1, z)
    assert table.n == 500
    assert len(brute_strata(table, data, 0, 1, z)) == 500


def test_contingency_matches_brute_force_on_wide_conditioning_sets():
    # Cardinality floors up to 10 and full conditioning sets push most
    # conditioning spaces past the row count, and some past int64.
    rng = np.random.Generator(np.random.PCG64(25))
    for _ in range(80):
        n_vars = int(rng.integers(5, 26))
        low = int(rng.integers(2, 11))
        cards = tuple(int(r) for r in rng.integers(low, 11, size=n_vars))
        rows = int(rng.integers(1, 300))
        cols = np.stack([rng.integers(0, r, size=rows)
                         for r in cards]).astype(np.int32)
        data = Dataset(tuple(f"v{i}" for i in range(n_vars)), cards, cols)
        x, y = (int(v) for v in rng.choice(n_vars, size=2, replace=False))
        pool = [v for v in range(n_vars) if v not in (x, y)]
        k = len(pool) if rng.random() < 0.5 else int(rng.integers(0, len(pool) + 1))
        z = tuple(int(v) for v in rng.choice(pool, size=k, replace=False))
        table = contingency(data, x, y, z)
        assert table.n == rows
        brute_strata(table, data, x, y, z)


@pytest.mark.parametrize("n_rows, folds", [(12, True), (11, False)])
def test_contingency_folds_while_strata_fit_the_rows(monkeypatch, n_rows, folds):
    # S = 3 * 4 strata: S = n folds in int32, S = n + 1 ranks in int64
    rng = np.random.Generator(np.random.PCG64(n_rows))
    cards = (2, 3, 3, 4)
    cols = np.stack([rng.integers(0, r, size=n_rows) for r in cards]).astype(np.int32)
    data = Dataset(tuple("abcd"), cards, cols)
    codes, bincount = [], np.bincount
    monkeypatch.setattr(np, "bincount", lambda flat, **k: codes.append(flat.dtype)
                        or bincount(flat, **k))
    table = contingency(data, 0, 1, (2, 3))
    assert codes == [np.dtype(np.int32 if folds else np.int64)]
    assert table.n == n_rows
    brute_strata(table, data, 0, 1, (2, 3))


class _Stop(Exception):
    pass


@pytest.mark.parametrize("cards, z, dtype", [
    ((2, 357913941, 3), (2,), np.int32),     # rx * ry * S = 2**31 - 2
    ((2, 2**29, 2), (2,), np.int64),         # rx * ry * S = 2**31
    ((2**31, 2**31, 2**31, 10), (), np.int64),
])
def test_contingency_cell_codes_at_the_int32_bound(monkeypatch, cards, z, dtype):
    # A table of 2**31 cells takes 16 GB, so bincount is stopped and the
    # cell codes it was given are checked against a recount in Python
    # ints. 2**31 - 1 is prime, so with cardinalities >= 2 the largest
    # rx * ry * S below the bound is 2**31 - 2.
    codes = [0, 1, 9, 2**29 - 1, 2**31 - 1, 357913940]
    cols = np.array([[min(c, r - 1) for c in np.roll(codes, j)]
                     for j, r in enumerate(cards)], dtype=np.int32)
    data = Dataset(tuple("abcd")[:len(cards)], cards, cols)
    got = []

    def bincount(flat, minlength):
        got.append((flat.dtype, flat.tolist(), minlength))
        raise _Stop

    monkeypatch.setattr(np, "bincount", bincount)
    with pytest.raises(_Stop):
        contingency(data, 0, 1, z)
    rx, ry, s = cards[0], cards[1], math.prod(cards[j] for j in z)
    stratum = cols[z[0]] if z else np.zeros_like(cols[0])   # |z| <= 1
    expected = [(int(a) * ry + int(b)) * s + int(c)
                for a, b, c in zip(cols[0], cols[1], stratum)]
    assert got == [(np.dtype(dtype), expected, rx * ry * s)]


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64, np.bool_])
def test_dataset_stores_integer_columns_as_int32(dtype):
    # uint8 codes of cardinality 200 would overflow a cell code folded in uint8
    rng = np.random.Generator(np.random.PCG64(26))
    cards = (200, 200, 3, 4)
    top = np.minimum(cards, 2 if dtype is np.bool_ else 200)
    cols = rng.integers(0, top[:, None], size=(4, 500))
    data = Dataset(tuple("abcd"), cards, cols.astype(dtype))
    ref = Dataset(tuple("abcd"), cards, cols.astype(np.int32))
    assert data.columns.dtype == np.int32 and data.columns.flags.c_contiguous
    for z in [(), (2,), (2, 3)]:
        table = contingency(data, 0, 1, z)
        assert np.array_equal(table.counts, contingency(ref, 0, 1, z).counts)
        brute_strata(table, data, 0, 1, z)


def test_dataset_keeps_int32_columns_uncopied():
    cols = np.zeros((2, 5), dtype=np.int32)
    assert np.shares_memory(Dataset(("a", "b"), (2, 2), cols).columns, cols)
    fortran = np.asfortranarray(cols)
    kept = Dataset(("a", "b"), (2, 2), fortran).columns
    assert kept.flags.c_contiguous and np.array_equal(kept, cols)


@pytest.mark.parametrize("cols", [np.zeros((1, 3)), np.zeros((1, 3), dtype=np.float32),
                                  np.array([["0", "1", "0"]])])
def test_dataset_rejects_non_integer_columns(cols):
    with pytest.raises(DatasetError, match="must be integer codes"):
        Dataset(("a",), (2,), cols)


def test_dataset_rejects_codes_beyond_int32():
    cols = np.array([[0, 2**31 - 1, 2**31]], dtype=np.int64)
    with pytest.raises(DatasetError, match=r"outside range\(2147483648\)"):
        Dataset(("a",), (2**32,), cols)
    Dataset(("a",), (2**32,), cols[:, :2])
