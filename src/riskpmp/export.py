"""Exchange formats for grid processes.

CSV: one row per (path, step) with the node time and the block components.
Binary dump: magic "RPMP1", then header int64 little-endian (n, d, K, M, seed)
followed by the float64 little-endian payload in C order.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, is_dataclass
from pathlib import Path

import numpy as np

MAGIC = b"RPMP1"
# n, d, K, M as signed 64-bit; seed unsigned so the full 64-bit seed range fits
_HEADER = struct.Struct("<4qQ")
# CSV rows formatted per block: bounds the text held in memory at once
_BLOCK_ROWS = 1 << 13


def write_csv(path, nodes: np.ndarray, values: np.ndarray, prefix: str = "x") -> None:
    """Write a (M, S, r) block as rows (path, step, t, prefix_0..prefix_{r-1}).

    The bytes are those of ``np.savetxt`` with ``fmt`` ``%d,%d,%.17g,...``:
    each node's ``step,t`` text is formatted once, and a block of paths is
    formatted by one ``%`` on one path's row template, repeated over the
    block with each path's index filled in.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 3:
        raise ValueError("values must have shape (n_paths, n_nodes, width)")
    m, s, r = values.shape
    if len(nodes) != s:
        raise ValueError("nodes length does not match the block's time axis")
    # one path's rows; NUL stands for the "path," field, filled in per path
    rows = "".join("\0%d,%.17g" % (k, t) + ",%.17g" * r + "\n"
                   for k, t in enumerate(np.asarray(nodes, dtype=float).tolist()))
    step = max(1, _BLOCK_ROWS // max(s, 1))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("path,step,t," + ",".join(f"{prefix}_{i}" for i in range(r)) + "\n")
        for lo in range(0, m, step):
            hi = min(lo + step, m)
            template = "".join(rows.replace("\0", f"{i},") for i in range(lo, hi))
            fh.write(template % tuple(values[lo:hi].ravel().tolist()))


def write_csvs(jobs) -> None:
    """Write several CSV blocks, each job a tuple of ``write_csv`` arguments.

    The first job is written here and each further one in its own forked
    process, so the files are formatted concurrently; their bytes do not
    depend on it.  Without ``fork`` the jobs run one after another.
    """
    jobs = list(jobs)
    if not jobs:
        return
    import multiprocessing

    # fork, not spawn: a child reads the parent's arrays in place instead of
    # receiving them pickled, and it only formats and writes, taking no lock
    # that another thread of the parent (a BLAS pool, say) could hold
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        for job in jobs:
            write_csv(*job)
        return
    children = [(job[0], context.Process(target=write_csv, args=job)) for job in jobs[1:]]
    for _, child in children:
        child.start()
    try:
        write_csv(*jobs[0])
    finally:
        for _, child in children:
            child.join()
    failed = [str(path) for path, child in children if child.exitcode != 0]
    if failed:
        raise RuntimeError(f"writing {', '.join(failed)} failed in a child process")


def write_dump(path, values: np.ndarray, noise_dim: int, seed: int) -> None:
    """Write the binary dump of an (M, K+1, n) block: magic, header
    (n, d, K, M, seed), float64 payload."""
    values = np.ascontiguousarray(np.asarray(values, dtype="<f8"))
    n_paths, n_nodes, state_dim = values.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(state_dim, noise_dim, n_nodes - 1, n_paths, seed))
        fh.write(values.tobytes())


def read_dump(path) -> tuple[dict, np.ndarray]:
    """Read a binary dump back; returns (header dict, flat float64 payload)."""
    raw = Path(path).read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise ValueError("not a RPMP1 dump (bad magic)")
    n, d, k, m, seed = _HEADER.unpack_from(raw, len(MAGIC))
    payload = np.frombuffer(raw, dtype="<f8", offset=len(MAGIC) + _HEADER.size)
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
