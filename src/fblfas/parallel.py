"""Deterministic chunked execution for seeded Monte Carlo work.

Draws are partitioned into fixed-size logical chunks. Chunk i always uses
the generator default_rng([seed, i]) no matter which thread executes it,
and partial results are reduced in chunk order. Estimates are therefore
bit-identical for any worker count. The worker count defaults to 1 and can
be raised per call or through the FBLFAS_THREADS environment variable.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# The chunk size fixes the last bits of every MC estimate: the error
# bound of a gain depends in its last bits on the batch it is evaluated in
# (metrics.conditional_bler_raw), so each bound runs on whole chunks.
CHUNK_DRAWS = 1 << 16
THREADS_ENV = "FBLFAS_THREADS"


def worker_count(workers=None) -> int:
    """Resolve the effective worker count (argument, else env var, else 1)."""
    if workers is None:
        raw = os.environ.get(THREADS_ENV, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError as exc:
            raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc
        if workers < 1:
            raise ValueError(f"{THREADS_ENV} must be >= 1, got {raw!r}")
        return workers
    workers = int(workers)
    if workers < 1:
        raise ValueError("worker count must be >= 1")
    return workers


def chunk_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for logical chunk `index` of the stream keyed by `seed`."""
    return np.random.default_rng([int(seed), int(index)])


def chunk_sizes(total: int) -> list[int]:
    if total < 1:
        raise ValueError("total draw count must be >= 1")
    full, rest = divmod(int(total), CHUNK_DRAWS)
    sizes = [CHUNK_DRAWS] * full
    if rest:
        sizes.append(rest)
    return sizes


def run_chunks(task, total: int, workers=None) -> list:
    """Run task(chunk_index, chunk_size) over all chunks; results in chunk order."""
    sizes = chunk_sizes(total)
    n_workers = worker_count(workers)
    if n_workers == 1 or len(sizes) == 1:
        return [task(i, size) for i, size in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        futures = [pool.submit(task, i, size) for i, size in enumerate(sizes)]
        return [fut.result() for fut in futures]
