"""Counter-based Gaussian sampling.

Every variate is a pure function of (seed, path index, position within the
path's stream): path ``p`` owns the Philox stream with ``counter = p << 64``
(the counter counts 4-word blocks, so streams are disjoint as long as a path
consumes fewer than 2**66 words), and raw 64-bit words are mapped to normals
through the inverse CDF.  This makes ensembles reproducible independently of
evaluation order or batching, and lets callers generate any contiguous path
range of a larger ensemble bit-identically.

One ``Philox(key=seed)`` serves a whole ensemble: before each path's draw its
state is set to counter ``[0, p, 0, 0]`` with an empty buffer, which is the
state ``Philox(key=seed, counter=p << 64)`` starts in, so every path's words
equal the per-path generator's.  The inverse normal CDF is a NumPy port of
Cephes ``ndtri``, so sampling needs no SciPy.

One constant, ``_BLOCK`` (2**14 words), bounds the sampler's scratch: the
raw words of at most that many positions' worth of paths (always at least one
path) are drawn at a time and mapped straight into the rows being returned,
so beside its output an ensemble holds at most 128 KB of words, or one path's
if a path is longer.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox

MAX_SEED = 2**64 - 1

# Words drawn, and mapped to normals, at a time.
_BLOCK = 1 << 14

# Cephes ndtri: the central rational for exp(-2) < u <= 1 - exp(-2), and the
# tail rationals in z = 1/sqrt(-2 log y) for sqrt(-2 log y) < 8 and >= 8.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def validate_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    seed = int(seed)
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _polevl(x: np.ndarray, coef, monic: bool = False) -> np.ndarray:
    # Horner's rule in Cephes' order; ``monic`` adds an implicit leading 1.
    acc = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        acc *= x
        acc += c
    return acc


def _ndtri(u: np.ndarray, out: np.ndarray) -> None:
    """Inverse standard normal CDF of ``u`` strictly inside (0, 1), into ``out``."""
    y = u - 0.5
    y2 = y * y
    np.multiply(y2, _polevl(y2, _P0), out=out)
    out /= _polevl(y2, _Q0, monic=True)
    out *= y
    out += y
    out *= _S2PI
    tail = np.flatnonzero((u <= _EXP_M2) | (u > 1.0 - _EXP_M2))
    if tail.size == 0:
        return
    ut = u[tail]
    r = np.log(np.minimum(ut, 1.0 - ut))
    r *= -2.0
    np.sqrt(r, out=r)
    z = 1.0 / r
    x1 = z * _polevl(z, _P1)
    x1 /= _polevl(z, _Q1, monic=True)
    far = np.flatnonzero(r >= 8.0)
    if far.size:
        zf = z[far]
        x1[far] = zf * _polevl(zf, _P2) / _polevl(zf, _Q2, monic=True)
    x = np.log(r)
    x /= r
    np.subtract(r, x, out=x)
    x -= x1
    # Negative below the median, positive above.
    ut -= 0.5
    out[tail] = np.copysign(x, ut, out=x)


def _words_to_normals(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map raw 64-bit words to standard normals, block by block into ``out``."""
    flat_words = words.reshape(-1)
    if out is None:
        out = np.empty(words.shape)
    flat = out.reshape(-1)
    for start in range(0, flat.size, _BLOCK):
        stop = min(start + _BLOCK, flat.size)
        # 53-bit uniform strictly inside (0, 1): the top word would round to 1.0.
        u = ((flat_words[start:stop] >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        np.minimum(u, np.nextafter(1.0, 0.0), out=u)
        _ndtri(u, flat[start:stop])
    return out


def ensemble_normals(seed: int, n_paths: int, count: int, path_offset: int = 0) -> np.ndarray:
    """Standard normals of shape (n_paths, count) for paths
    path_offset..path_offset+n_paths-1.

    Row i is positions 0..count-1 of path ``path_offset + i``'s stream.
    Path ``p`` sets the second 64-bit word of the Philox counter to ``p``, so
    path indices stop below 2**64.
    """
    seed = validate_seed(seed)
    if n_paths < 0 or count < 0:
        raise ValueError("n_paths and count must be nonnegative")
    if path_offset < 0:
        raise ValueError("path_offset must be nonnegative")
    if path_offset + n_paths > 2**64:
        raise ValueError(f"paths {path_offset}..{path_offset + n_paths - 1} pass the last "
                         f"path index 2**64 - 1: path p is the Philox counter's word 1")
    out = np.empty((n_paths, count))
    if n_paths == 0 or count == 0:
        return out
    bitgen = Philox(key=seed)
    state = bitgen.state
    paths_per_chunk = max(1, _BLOCK // count)
    words = np.empty((min(paths_per_chunk, n_paths), count), dtype=np.uint64)
    for start in range(0, n_paths, paths_per_chunk):
        stop = min(start + paths_per_chunk, n_paths)
        for i in range(start, stop):
            state["state"]["counter"][:] = (0, path_offset + i, 0, 0)
            state["buffer_pos"] = 4
            bitgen.state = state
            words[i - start] = bitgen.random_raw(count)
        _words_to_normals(words[:stop - start], out[start:stop])
    return out
