"""Exchange formats for grid processes.

CSV: one row per (path, step) with the node time and the block components.
Binary dump: magic "RPMP1", then header int64 little-endian (n, d, K, M, seed)
followed by the float64 little-endian payload in C order.

Both writers read their values through a block function: block(lo, hi)
gives paths lo..hi-1 as a (hi-lo, S, r) array, and a writer asks for at
most _CHUNK_ROWS rows' worth of paths at a time, so values that are
evaluated per path (the costates) are never held for the whole ensemble.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import forked

MAGIC = b"RPMP1"
# n, d, K, M as signed 64-bit; seed unsigned so the full 64-bit seed range fits
_HEADER = struct.Struct("<4qQ")
# CSV rows formatted per block: bounds the text held in memory at once
_BLOCK_ROWS = 1 << 13
# rows of values asked of a block function at a time: bounds the values held,
# while each call covers enough paths to amortize a per-node evaluation
_CHUNK_ROWS = 1 << 17

# '%.17g' by array arithmetic.  A value whose decimal exponent E lies in
# [-4, 16] prints its 17 significant digits in fixed notation: the integer
# N = |x| * 10**(16 - E) rounded half to even.  10**j is a double for j <= 22,
# and Dekker's two-product gives the double product with its rounding error
# exactly, so N is read off exactly.  Zero, subnormal, nonfinite and
# exponent-notation values go to Python's '%'.
_E_MIN, _E_MAX = -4, 16
_POW10 = 10.0 ** np.arange(_E_MAX - _E_MIN + 1)
_SPLITTER = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_WIDTH = 24  # the longest '%.17g' text, as in '-1.2345678901234567e-308'
# a value's text is gathered from 24 source bytes: its 17 digits at 3..19,
# then '.', '0', '-' and NUL (the digits after the first at 4-byte alignment)
_SOURCE = 24
_DOT, _ZERO, _MINUS, _NUL = 20, 21, 22, 23


def _text_layout():
    """Per (sign, E): the source byte of each byte of the text with all 17
    digits, 'ddd.ddd' or '0.000ddd', NUL-padded to _WIDTH; and per count of
    N's trailing zeros, the text's length once the fraction's trailing
    zeros, and then a bare '.', are dropped as '%g' does."""
    n_e = _E_MAX - _E_MIN + 1
    columns = np.full((2 * n_e, _WIDTH), _NUL, dtype=np.intp)
    lengths = np.zeros((2 * n_e, 17), dtype=np.intp)
    for neg in (0, 1):
        for e in range(_E_MIN, _E_MAX + 1):
            if e >= 0:
                text = [*range(3, e + 4)] + ([_DOT, *range(e + 4, 20)] if e < 16 else [])
            else:
                text = [_ZERO, _DOT] + [_ZERO] * (-e - 1) + [*range(3, 20)]
            frac = 16 - e  # digits after the '.'
            row = neg * n_e + e - _E_MIN
            columns[row, :neg + len(text)] = [_MINUS] * neg + text
            for tz in range(17):
                drop = min(tz, frac)
                bare_dot = 0 < frac == drop
                lengths[row, tz] = neg + len(text) - drop - bare_dot
    return columns, lengths


_TEXT_COLUMNS, _TEXT_LENGTHS = _text_layout()


def _digit_quads() -> np.ndarray:
    """The text of 0000..9999, one uint32 each."""
    quads = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for i in range(4):  # digit i varies along axis i
        quads[..., i] = np.arange(ord("0"), ord("9") + 1).reshape((10,) + (1,) * (3 - i))
    return quads.view(np.uint32).ravel()


_QUADS = _digit_quads()


def _split(a: np.ndarray):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _round17(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """a * 10**(16 - e) rounded half to even, exactly, for a >= 10**-4."""
    b = _POW10[16 - e]
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl  # a * b - p
    # p >= 1e16 > 2**53 is an even integer, so rounding err half to even
    # rounds p + err half to even
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _format_g17(x: np.ndarray) -> np.ndarray:
    """``b"%.17g" % v`` for every v of the flat float array x, as an 'S24'
    array (NUL-padded, so ``tolist()`` gives the bytes)."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.floor(np.log10(a))
        ok = (e >= _E_MIN) & (e <= _E_MAX)
        e = np.where(ok, e, 0).astype(np.intp)
        n17 = _round17(a, e)
        # log10 can land one off beside a power of ten: N then has 16 or 18 digits
        off = np.flatnonzero(ok & ((n17 < 10**16) | (n17 >= 10**17)))
        e[off] += np.where(n17[off] < 10**16, -1, 1)
        ok[off] &= (e[off] >= _E_MIN) & (e[off] <= _E_MAX)
        e[off] = np.clip(e[off], _E_MIN, _E_MAX)
        n17[off] = _round17(a[off], e[off])
    ok &= (n17 >= 10**16) & (n17 < 10**17)
    n17 = np.where(ok, n17, 10**16)
    source = np.empty((len(x), _SOURCE), dtype=np.uint8)
    source[:, _DOT:] = np.frombuffer(b".0-\0", np.uint8)
    high, low = (h.astype(np.uint32) for h in np.divmod(n17, 10**8))  # 9 and 8 digits
    top, high = np.divmod(high, 10**8)
    source[:, 3] = top + ord("0")
    quads = source[:, 4:20].view(np.uint32)
    for c, half in ((0, high), (2, low)):
        quads[:, c], quads[:, c + 1] = _QUADS[half // 10**4], _QUADS[half % 10**4]
    key = (x < 0) * (_E_MAX - _E_MIN + 1) + e - _E_MIN
    text = np.empty((len(x), _WIDTH), dtype=np.uint8)
    for k in np.flatnonzero(np.bincount(key, minlength=len(_TEXT_COLUMNS))):
        rows = np.flatnonzero(key == k)
        text[rows] = source[rows][:, _TEXT_COLUMNS[k]]
    zero = np.flatnonzero(source[:, 19] == ord("0"))
    tz = np.cumprod(source[zero, 19:3:-1] == ord("0"), axis=1).sum(axis=1)
    text[zero] *= np.arange(_WIDTH) < _TEXT_LENGTHS[key[zero], tz][:, None]
    out = text.view(f"S{_WIDTH}").ravel()
    bad = np.flatnonzero(~ok)
    if len(bad):
        out[bad] = [b"%.17g" % v for v in x[bad].tolist()]
    return out


def _block(nodes, values, n_paths: int) -> np.ndarray:
    """values as a float (n_paths, S, r) array whose time axis matches nodes."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 3:
        raise ValueError("values must have shape (n_paths, n_nodes, width)")
    if len(nodes) != values.shape[1]:
        raise ValueError("nodes length does not match the block's time axis")
    if values.shape[0] != n_paths:
        raise ValueError(f"a block of {n_paths} paths came back with {values.shape[0]}")
    return values


def _chunks(nodes, n_paths: int, block):
    """(lo, values of paths lo..) for the whole ensemble, in chunks of at
    most _CHUNK_ROWS rows (at least one path); no paths give one empty chunk."""
    size = max(1, _CHUNK_ROWS // max(len(nodes), 1))
    for lo in range(0, max(n_paths, 1), size):
        hi = min(lo + size, n_paths)
        yield lo, _block(nodes, block(lo, hi), hi - lo)


def write_csv(path, nodes: np.ndarray, n_paths: int, block, prefix: str = "x") -> None:
    """Write the rows (path, step, t, prefix_0..prefix_{r-1}) of paths
    0..n_paths-1, whose (M, S, r) values block(lo, hi) gives a chunk at a time.

    The bytes are those of ``np.savetxt`` with ``fmt`` ``%d,%d,%.17g,...`` on
    the whole (M, S, r) array: each node's ``step,t`` text is formatted once,
    a block of paths has its values formatted by ``_format_g17`` and is
    joined by one ``%`` on one path's row template, repeated over the block
    with each path's index filled in.
    """
    nodes = np.asarray(nodes, dtype=float)
    s = len(nodes)
    step = max(1, _BLOCK_ROWS // max(s, 1))
    with open(path, "wb") as fh:
        for lo, values in _chunks(nodes, n_paths, block):
            if lo == 0:
                r = values.shape[2]
                fh.write(("path,step,t," + ",".join(f"{prefix}_{i}" for i in range(r))
                          + "\n").encode())
                # one path's rows; NUL stands for the "path," field, filled in per path
                rows = b"".join(b"\0%d,%.17g" % (k, t) + b",%s" * r + b"\n"
                                for k, t in enumerate(nodes.tolist()))
            for first in range(lo, lo + len(values), step):  # one text block of paths
                part = values[first - lo:first - lo + step]
                template = b"".join(rows.replace(b"\0", b"%d," % (first + i))
                                    for i in range(len(part)))
                fh.write(template % tuple(_format_g17(part.ravel()).tolist()))


def write_dump(path, nodes: np.ndarray, n_paths: int, block, noise_dim: int, seed: int) -> None:
    """Write the binary dump of paths 0..n_paths-1 of an (M, K+1, n) block,
    block(lo, hi) giving a chunk at a time: magic, header (n, d, K, M,
    seed), float64 payload."""
    with open(path, "wb") as fh:
        for lo, values in _chunks(nodes, n_paths, block):
            if lo == 0:
                fh.write(MAGIC)
                fh.write(_HEADER.pack(values.shape[2], noise_dim, len(nodes) - 1, n_paths, seed))
            fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def write_csvs(jobs, dumps=()) -> Callable[[], None]:
    """Start writing several CSV blocks and binary dumps, each job a tuple of
    ``write_csv`` arguments and each dump one of ``write_dump`` arguments,
    and return the join that waits for them.

    Every job's and dump's first path is read here first, so a block of the
    wrong shape or node count raises ValueError before any file is written.
    Each is then written by its own forked process while the caller goes on
    (``forked.start``), which reads its values through the block function;
    join waits for all of them and raises RuntimeError naming the files
    whose writer failed.  Without ``fork`` they are written here, one after
    another, and join has nothing to wait for.  The bytes are the same either
    way.
    """
    calls = [(write_csv, job) for job in jobs] + [(write_dump, dump) for dump in dumps]
    for _, (_, nodes, n_paths, block, *_) in calls:
        first = min(n_paths, 1)
        _block(nodes, block(0, first), first)
    return forked.start((f"writing {args[0]}", fn, args) for fn, args in calls)


def read_dump(path) -> tuple[dict, np.ndarray]:
    """Read a binary dump back; returns (header dict, flat float64 payload).
    A dump whose header is cut short, or whose payload is not the n (K+1) M
    floats its header names, is refused with both sizes."""
    raw = Path(path).read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise ValueError("not a RPMP1 dump (bad magic)")
    start = len(MAGIC) + _HEADER.size
    if len(raw) < start:
        raise ValueError(f"dump header cut short: expected {_HEADER.size} bytes after the "
                         f"magic, found {len(raw) - len(MAGIC)}")
    n, d, k, m, seed = _HEADER.unpack_from(raw, len(MAGIC))
    expected, found = n * (k + 1) * m * 8, len(raw) - start
    if found != expected:
        raise ValueError(f"dump payload does not match its header (n={n}, K={k}, M={m}): "
                         f"expected {expected} bytes ({expected // 8} floats), found {found}")
    payload = np.frombuffer(raw, dtype="<f8", offset=start)
    header = {"state_dim": n, "noise_dim": d, "n_steps": k, "n_paths": m, "seed": seed}
    return header, payload


def jsonable(value):
    """value with dataclasses, tuples, arrays and NumPy scalars made plain JSON
    types; a non-finite float, which JSON cannot hold, becomes None (null)."""
    if is_dataclass(value) and not isinstance(value, type):
        return jsonable(asdict(value))
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value) if np.isfinite(value) else None
    return value
