"""The bulk CSV writer against the np.savetxt bytes it replaces."""

import numpy as np
import pytest

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


@pytest.mark.parametrize("r", [1, 4])
def test_write_csv_matches_savetxt(tmp_path, monkeypatch, r):
    # 14 rows over 7 nodes is 2 paths a block; 5 paths leave a partial last block
    monkeypatch.setattr(export, "_BLOCK_ROWS", 14)
    nodes = np.linspace(0.0, 0.7, 7)
    values = block(5, 7, r, seed=r)
    export.write_csv(tmp_path / "fast.csv", nodes, values, prefix="p")
    expected = savetxt_bytes(tmp_path / "ref.csv", nodes, values, "p")
    assert (tmp_path / "fast.csv").read_bytes() == expected


def test_write_csv_default_block_matches_savetxt(tmp_path):
    nodes = np.linspace(0.0, 2.0, 101)
    values = block(83, 101, 2, seed=7)  # 81 paths per block: a partial second one
    export.write_csv(tmp_path / "fast.csv", nodes, values, prefix="q")
    assert (tmp_path / "fast.csv").read_bytes() == savetxt_bytes(
        tmp_path / "ref.csv", nodes, values, "q")


def test_write_csvs_matches_single_writes(tmp_path):
    nodes = np.linspace(0.0, 1.0, 6)
    blocks = [block(9, 6, r, seed=r) for r in (1, 2, 4)]
    jobs = [(tmp_path / f"many_{i}.csv", nodes, v, "x") for i, v in enumerate(blocks)]
    export.write_csvs(jobs)
    for i, v in enumerate(blocks):
        export.write_csv(tmp_path / f"one_{i}.csv", nodes, v, "x")
        assert (tmp_path / f"many_{i}.csv").read_bytes() == (tmp_path / f"one_{i}.csv").read_bytes()


def test_write_csvs_reports_a_failing_child(tmp_path):
    nodes = np.linspace(0.0, 1.0, 3)
    good = (tmp_path / "good.csv", nodes, np.zeros((2, 3, 1)), "x")
    flat = (tmp_path / "flat.csv", nodes, np.zeros((2, 3)), "x")
    with pytest.raises(RuntimeError, match="flat.csv"):
        export.write_csvs([good, flat])
    assert (tmp_path / "good.csv").exists()
    # the job written in the calling process raises its own error
    with pytest.raises(ValueError, match="shape"):
        export.write_csvs([flat, good])
