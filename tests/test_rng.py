"""Counter-based normals: the one-generator ensemble against a per-path
generator oracle, its scratch and its last path index, the NumPy inverse
normal CDF against SciPy's, the top-word edge, and an import path that
loads no SciPy."""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtri

from riskpmp import make_grid, rng, sample_brownian


def path_normals_oracle(seed, path_index, count):
    """Positions 0..count-1 of one path's stream, from its own generator."""
    return rng._words_to_normals(Philox(key=seed, counter=path_index << 64).random_raw(count))


def assert_matches_oracle(seed, n_paths, count, path_offset=0):
    got = rng.ensemble_normals(seed, n_paths, count, path_offset=path_offset)
    assert got.shape == (n_paths, count)
    for i in range(n_paths):
        assert np.array_equal(got[i], path_normals_oracle(seed, path_offset + i, count)), i


def ulp_distance(a, b):
    assert np.all(np.sign(a) == np.sign(b))
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_top_words_map_to_finite_normals():
    # The top 53 bits all ones give (2**53 - 1) + 0.5, which rounds to 2**53.
    z = rng._words_to_normals(np.array([2**64 - 1, 2**64 - 2**11], np.uint64))
    assert np.all(np.isfinite(z))
    assert z[0] == z[1] == pytest.approx(ndtri(np.nextafter(1.0, 0.0)), rel=1e-15)


def test_clamp_moves_no_other_word():
    words = np.concatenate([
        Philox(key=4).random_raw(10_000),
        np.array([0, 2**11 - 1, 2**63, 2**64 - 2**12, 2**64 - 2**11 - 1], np.uint64),
    ])
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    assert u.max() < 1.0
    expected = np.empty_like(u)
    rng._ndtri(u, expected)
    assert np.array_equal(rng._words_to_normals(words), expected)


def test_ensemble_matches_per_path_oracle_with_offset():
    assert_matches_oracle(2**64 - 1, 37, 11, path_offset=1000)
    assert_matches_oracle(7, 5, 3, path_offset=2**40)


def test_ensemble_matches_per_path_oracle_across_chunks():
    count = 300  # 54 paths fill a chunk of words; the last chunk is partial
    paths_per_chunk = rng._BLOCK // count
    assert 200 > paths_per_chunk and 200 % paths_per_chunk
    assert_matches_oracle(11, 200, count, path_offset=3)


def test_ensemble_matches_per_path_oracle_for_paths_longer_than_a_chunk(monkeypatch):
    assert_matches_oracle(5, 3, rng._BLOCK + 7, path_offset=1)
    monkeypatch.setattr(rng, "_BLOCK", 5)
    assert_matches_oracle(3, 4, 7, path_offset=2)
    assert_matches_oracle(3, 9, 2)


def test_ensemble_scratch_stays_within_a_quarter_of_its_output():
    # the raw words are drawn a chunk at a time and mapped into the returned
    # rows, so no second block-sized buffer sits beside the normals
    tracemalloc.start()
    try:
        out = rng.ensemble_normals(5, 4096, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * out.nbytes, (peak, out.nbytes)


def test_ensemble_refuses_path_indices_past_the_counter_word():
    last = 2**64 - 1
    assert_matches_oracle(2, 1, 3, path_offset=last)
    for n_paths, path_offset in ((1, 2**64), (2, last)):
        with pytest.raises(ValueError, match=r"pass the last path index 2\*\*64 - 1"):
            rng.ensemble_normals(1, n_paths, 3, path_offset=path_offset)
    with pytest.raises(ValueError, match=r"2\*\*64 - 1"):
        sample_brownian(make_grid(1.0, 3), 1, 2, seed=1, path_offset=last)


def test_ensemble_empty_shapes():
    assert rng.ensemble_normals(1, 0, 5).shape == (0, 5)
    assert rng.ensemble_normals(1, 4, 0).shape == (4, 0)
    assert rng.ensemble_normals(1, 0, 0, path_offset=9).shape == (0, 0)


@pytest.mark.parametrize("bad", [dict(n_paths=-1), dict(count=-1), dict(path_offset=-1)])
def test_ensemble_rejects_negative_sizes(bad):
    args = dict(seed=1, n_paths=2, count=2, path_offset=0) | bad
    with pytest.raises(ValueError):
        rng.ensemble_normals(**args)


def test_ndtri_port_matches_scipy():
    k = np.arange(1_000_000, dtype=np.float64)
    grid = (np.floor(k * ((2.0**53 - 1) / (k.size - 1))) + 0.5) * 2.0**-53
    grid = np.minimum(grid, np.nextafter(1.0, 0.0))
    edges = [2.0**-54, np.exp(-32.0), 0.5]
    for branch in (np.exp(-2.0), 1.0 - np.exp(-2.0)):
        edges += [np.nextafter(branch, 0.0), branch, np.nextafter(branch, 1.0)]
    u = np.concatenate([grid, edges])
    got = np.empty_like(u)
    rng._ndtri(u, got)
    dist = ulp_distance(got, ndtri(u))
    # Measured on x86-64: at most 4 ulp, 99.99% bit-equal, every edge exact.
    assert dist.max() <= 8, (dist.max(), u[dist.argmax()])
    assert np.mean(dist == 0) > 0.99


def test_import_path_loads_no_scipy_and_shooting_still_runs():
    code = (
        "import sys\n"
        "import riskpmp.cli\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy imported'\n"
        "from riskpmp import SopInstance, make_grid, sample_brownian, shoot\n"
        "brownian = sample_brownian(make_grid(2.0, 20), 1, 64, seed=5)\n"
        "result = shoot(SopInstance(0.0, 0.0, 1.0, 2.0, 0.3), brownian)\n"
        "assert result.evaluations > 0\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
