"""The bulk writers against the np.savetxt bytes and the dump layout they write."""

import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskpmp import export


def savetxt_bytes(path, nodes, values, prefix):
    """The reference: one np.savetxt call on the full (path, step, t, ...) table."""
    m, s, r = values.shape
    table = np.column_stack([
        np.repeat(np.arange(m), s),
        np.tile(np.arange(s), m),
        np.tile(np.asarray(nodes, dtype=float), m),
        values.reshape(m * s, r),
    ])
    header = "path,step,t," + ",".join(f"{prefix}_{i}" for i in range(r))
    np.savetxt(path, table, delimiter=",", header=header, comments="",
               fmt=["%d", "%d", "%.17g"] + ["%.17g"] * r)
    return path.read_bytes()


SPECIAL = [-0.0, 5e-324, 1e300, -1e300, 0.1, np.nan, np.inf, -np.inf]


def block(m, s, r, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((m, s, r)) * 10.0 ** rng.integers(-8, 9, size=(m, s, r))
    flat = values.reshape(-1)
    flat[: len(SPECIAL)] = SPECIAL
    return values


def rows_of(values, asked=None):
    """The block function of an array: paths lo..hi-1 as its rows, each
    (lo, hi) asked recorded in asked."""
    def rows(lo, hi):
        if asked is not None:
            asked.append((lo, hi))
        return values[lo:hi]
    return rows


@pytest.mark.parametrize("r", [1, 4])
def test_write_csv_matches_savetxt(tmp_path, monkeypatch, r):
    # 14 rows over 7 nodes is 2 paths a block; 5 paths leave a partial last block
    monkeypatch.setattr(export, "_BLOCK_ROWS", 14)
    nodes = np.linspace(0.0, 0.7, 7)
    values = block(5, 7, r, seed=r)
    export.write_csv(tmp_path / "fast.csv", nodes, 5, rows_of(values), prefix="p")
    expected = savetxt_bytes(tmp_path / "ref.csv", nodes, values, "p")
    assert (tmp_path / "fast.csv").read_bytes() == expected


def test_write_csv_and_dump_ask_for_chunks_of_paths(tmp_path, monkeypatch):
    # 21 rows over 7 nodes is 3 paths a chunk: 8 paths are asked for in 3
    # chunks, a text block of 2 paths straddling each chunk's end, and the
    # dump's payload is the whole array
    monkeypatch.setattr(export, "_BLOCK_ROWS", 14)
    monkeypatch.setattr(export, "_CHUNK_ROWS", 21)
    nodes = np.linspace(0.0, 0.7, 7)
    values = block(8, 7, 2, seed=5)
    asked = []
    export.write_csv(tmp_path / "fast.csv", nodes, 8, rows_of(values, asked), prefix="p")
    assert asked == [(0, 3), (3, 6), (6, 8)]
    assert (tmp_path / "fast.csv").read_bytes() == savetxt_bytes(
        tmp_path / "ref.csv", nodes, values, "p")
    export.write_dump(tmp_path / "x.bin", nodes, 8, rows_of(values), noise_dim=3, seed=9)
    header, payload = export.read_dump(tmp_path / "x.bin")
    assert header == {"state_dim": 2, "noise_dim": 3, "n_steps": 6, "n_paths": 8, "seed": 9}
    assert np.array_equal(payload, values.ravel(), equal_nan=True)


def dump_bytes(header_floats, payload_floats):
    """A dump whose header names (n, K, M) = (2, 1, header_floats // 4)."""
    head = export.MAGIC + export._HEADER.pack(2, 1, 1, header_floats // 4, 7)
    return head + np.arange(payload_floats, dtype="<f8").tobytes()


@pytest.mark.parametrize("raw, match", [
    (dump_bytes(12, 11), "expected 96 bytes \\(12 floats\\), found 88"),
    (dump_bytes(12, 13), "expected 96 bytes \\(12 floats\\), found 104"),
    (dump_bytes(12, 12) + b"abc", "expected 96 bytes \\(12 floats\\), found 99"),
    (dump_bytes(12, 0)[:20], "cut short: expected 40 bytes after the magic, found 15"),
], ids=["a float short", "a float long", "ragged tail", "header cut short"])
def test_read_dump_refuses_a_payload_that_does_not_match_its_header(tmp_path, raw, match):
    (tmp_path / "bad.bin").write_bytes(raw)
    with pytest.raises(ValueError, match=match):
        export.read_dump(tmp_path / "bad.bin")
    (tmp_path / "good.bin").write_bytes(dump_bytes(12, 12))
    header, payload = export.read_dump(tmp_path / "good.bin")
    assert header["n_paths"] == 3 and np.array_equal(payload, np.arange(12.0))


def test_write_csv_default_block_matches_savetxt(tmp_path):
    nodes = np.linspace(0.0, 2.0, 101)
    values = block(83, 101, 2, seed=7)  # 81 paths per block: a partial second one
    export.write_csv(tmp_path / "fast.csv", nodes, 83, rows_of(values), prefix="q")
    assert (tmp_path / "fast.csv").read_bytes() == savetxt_bytes(
        tmp_path / "ref.csv", nodes, values, "q")


def python_g17(values):
    return [b"%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def g17_battery(seed):
    """Values '%.17g' prints in every way: each decimal exponent in fixed and
    exponent notation, either side of a power of ten, trailing zeros, exact
    half-way ties at the 18th digit, and any bit pattern."""
    rng = np.random.default_rng(seed)
    n = 20000
    p10 = 10.0 ** np.arange(-7, 20)
    digits = rng.integers(0, 17, n)
    ties = (rng.integers(10**16, 10**17, n) * 10 + 5).astype(float) / 10.0 ** rng.integers(0, 23, n)
    parts = [
        rng.standard_normal(n) * 10.0 ** rng.integers(-8, 20, n),
        np.rint(rng.standard_normal(n) * 10.0 ** digits) / 10.0 ** digits,
        rng.integers(-10**6, 10**6, n).astype(float),
        rng.integers(1, 2**53, n) / 2.0 ** rng.integers(0, 70, n),  # short exact expansions
        rng.integers(1, 10**17, n).astype(float) / 10.0 ** rng.integers(0, 23, n),
        ties, -ties,
        p10, -p10, np.nextafter(p10, 0), np.nextafter(p10, np.inf),
        26215 / 2.0 ** np.arange(18, 22),  # 0.100002288818359375: a tie rounding up
        rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True).view(float),
        np.array(SPECIAL + [0.0, 1e-4, -1e-4, 1e16, 1e17, 2.0**53, 2.0**57, 5e-5,
                            2.2250738585072014e-308, 1.7976931348623157e308]),
    ]
    return np.concatenate(parts)


@pytest.mark.parametrize("seed", [0, 1])
def test_format_g17_is_python_percent(seed):
    values = g17_battery(seed)
    assert export._format_g17(values).tolist() == python_g17(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_format_g17_is_python_percent_on_any_floats(values):
    assert export._format_g17(np.array(values, dtype=float)).tolist() == python_g17(values)


def no_fork(method):
    raise ValueError(f"cannot find context for {method!r}")


def test_write_csvs_matches_single_writes(tmp_path, monkeypatch):
    nodes = np.linspace(0.0, 1.0, 6)
    blocks = [block(9, 6, r, seed=r) for r in (1, 2, 4)]
    for i, v in enumerate(blocks):
        export.write_csv(tmp_path / f"one_{i}.csv", nodes, 9, rows_of(v), "x")
    # forked writers, then the platform without fork: the jobs run in order
    for mode in ("fork", "serial"):
        if mode == "serial":
            monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        jobs = [(tmp_path / f"{mode}_{i}.csv", nodes, 9, rows_of(v), "x")
                for i, v in enumerate(blocks)]
        export.write_csvs(jobs)()
        assert not multiprocessing.active_children()
        for i in range(len(blocks)):
            assert (tmp_path / f"{mode}_{i}.csv").read_bytes() == \
                (tmp_path / f"one_{i}.csv").read_bytes(), (mode, i)


def test_write_csvs_reports_a_failing_child(tmp_path):
    nodes = np.linspace(0.0, 1.0, 3)
    good = (tmp_path / "good.csv", nodes, 2, rows_of(np.zeros((2, 3, 1))), "x")
    # a bad shape or node count raises in the calling process, before any file
    flat = (tmp_path / "flat.csv", nodes, 2, rows_of(np.zeros((2, 3))), "x")
    short = (tmp_path / "short.csv", nodes[:2], 2, rows_of(np.zeros((2, 3, 1))), "x")
    dump = (tmp_path / "flat.bin", nodes, 2, rows_of(np.zeros((2, 3))), 1, 0)
    for jobs, dumps, match in (([good, flat], [], "shape"), ([good, short], [], "nodes length"),
                               ([good], [dump], "shape")):
        with pytest.raises(ValueError, match=match):
            export.write_csvs(jobs, dumps)
    assert not list(tmp_path.iterdir())
    # a child that fails for another reason is named when its writers are joined
    lost = (tmp_path / "missing" / "lost.csv", nodes, 2, rows_of(np.zeros((2, 3, 1))), "x")
    join = export.write_csvs([good, lost])
    with pytest.raises(RuntimeError, match="lost.csv"):
        join()
    assert not multiprocessing.active_children()
    assert (tmp_path / "good.csv").exists()
