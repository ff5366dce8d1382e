"""Parameter sampling, target-trajectory generation, and dataset persistence.

A dataset couples a k x q matrix of parameter samples with the k x m matrix
of quantity-of-interest trajectories obtained by solving the IVP for each row.
Datasets are stored in a self-describing binary container so that round-trips
are bit-exact; a CSV export exists for inspection.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import logging
import os
import pickle
import struct
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ._container import Reader, f64, pack_str, write, write_csv
from .dynsys import ParameterDomain, SystemSpec
from .integrator import IntegrationError, TimeGrid, ToleranceSettings, solve_trajectory

logger = logging.getLogger(__name__)

_MAGIC = b"TJDS"
_VERSION = 1
# the three sample sets of a run, in report order
ROLES = ("train", "validation", "test")
# what generate_targets does with a row whose solve fails
ON_FAILURE = ("abort", "skip")

# spawn keys per named stream: sampling and weight draws never collide
_STREAM_IDS = {"sampling": 0, "weights": 1}


class DatasetFormatError(RuntimeError):
    """Raised on malformed headers, version mismatch, or size mismatch."""


class TargetGenerationError(RuntimeError):
    """Integration failed for a sample row; carries the row index."""

    def __init__(self, row: int, cause: Exception):
        super().__init__(f"integration failed for sample row {row}: {cause}")
        self.row = row
        self.cause = cause


@dataclasses.dataclass(frozen=True)
class RngSeed:
    """A 64-bit seed bound to a named stream.

    Identical (value, stream) pairs yield identical draw sequences on every
    platform; distinct streams are statistically independent.
    """

    value: int
    stream: str = "sampling"

    def __post_init__(self):
        if self.stream not in _STREAM_IDS:
            raise ValueError(f"unknown stream {self.stream!r}; expected one of {sorted(_STREAM_IDS)}")
        if not 0 <= int(self.value) < 2**64:
            raise ValueError("seed value must fit in 64 bits")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=int(self.value), spawn_key=(_STREAM_IDS[self.stream],))
        return np.random.Generator(np.random.PCG64(seq))


@dataclasses.dataclass
class SampleSet:
    """Parameter samples with matching target trajectories for one role."""

    role: str
    params: np.ndarray
    targets: np.ndarray
    grid: TimeGrid
    seed: Optional[RngSeed] = None

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {self.role!r}")
        self.params = np.atleast_2d(np.asarray(self.params, dtype=np.float64))
        self.targets = np.atleast_2d(np.asarray(self.targets, dtype=np.float64))
        if self.params.shape[0] != self.targets.shape[0]:
            raise ValueError(
                f"params has {self.params.shape[0]} rows but targets has {self.targets.shape[0]}"
            )
        if self.targets.shape[1] != self.grid.m:
            raise ValueError(f"targets have {self.targets.shape[1]} columns, grid expects {self.grid.m}")

    @property
    def k(self) -> int:
        return self.params.shape[0]

    @property
    def q(self) -> int:
        return self.params.shape[1]


def sample_parameters(domain: ParameterDomain, k: int, seed: RngSeed) -> np.ndarray:
    """Draw k parameter vectors, each coordinate uniform on its interval."""
    if k < 1:
        raise ValueError("k must be at least 1")
    rng = seed.generator()
    u = rng.random((k, domain.dim))
    return domain.lower + u * (domain.upper - domain.lower)


def _solve_row(spec: SystemSpec, grid: TimeGrid, tol: ToleranceSettings, row: np.ndarray):
    """The row's QoI trajectory, or the IntegrationError that ended its solve."""
    try:
        return solve_trajectory(spec, row, grid, tol)
    except IntegrationError as exc:
        return exc


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def generate_targets(
    spec: SystemSpec,
    params: np.ndarray,
    grid: TimeGrid,
    tol: ToleranceSettings = ToleranceSettings(),
    on_failure: str = "abort",
    workers: int = 1,
) -> np.ndarray:
    """Solve the IVP for every parameter row and sample the QoI on the grid.

    Rows are taken in order, solved in this process or, when workers > 1, by
    a pool of min(workers, k, usable CPUs) processes; both give the same bits.
    on_failure="abort" raises TargetGenerationError at the first failed row
    and solves no later row (a pool cancels the rows it has not started);
    "skip" leaves failed rows as NaN (see failed_rows) and logs a warning.
    """
    if on_failure not in ON_FAILURE:
        raise ValueError(f"on_failure must be one of {ON_FAILURE}")
    params = np.atleast_2d(np.asarray(params, dtype=np.float64))
    k = params.shape[0]
    targets = np.empty((k, grid.m))
    solve = functools.partial(_solve_row, spec, grid, tol)
    size = min(workers, k, _usable_cpus())
    with contextlib.ExitStack() as stack:
        rows = map(solve, params)
        if size > 1:
            try:
                pickle.dumps(spec)
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                raise ValueError(
                    f"workers > 1 sends the system to worker processes, but it does not pickle "
                    f"({exc}); build it from module-level functions or set generation.workers = 1"
                ) from exc
            pool = ProcessPoolExecutor(max_workers=size)
            stack.callback(pool.shutdown, cancel_futures=True)
            rows = pool.map(solve, params)
        for i, result in enumerate(rows):
            if isinstance(result, IntegrationError):
                if on_failure == "abort":
                    raise TargetGenerationError(i, result)
                logger.warning("skipped sample row %d: %s", i, result)
                result = np.nan
            targets[i] = result
    return targets


def failed_rows(targets: np.ndarray) -> np.ndarray:
    """Indices of rows left as NaN by generate_targets(on_failure='skip')."""
    return np.flatnonzero(np.isnan(targets).any(axis=1))


def save_dataset(sample_set: SampleSet, path: Union[str, Path]) -> None:
    """Write the binary container; lossless round-trip with load_dataset.
    A non-finite parameter or target is a ValueError."""
    k, q = sample_set.params.shape
    m = sample_set.grid.m
    parts = [
        pack_str(sample_set.role),
        struct.pack("<IIQ", q, m, k),
        struct.pack("<dd", sample_set.grid.t0, sample_set.grid.tf),
    ]
    if sample_set.seed is None:
        parts.append(struct.pack("<B", 0))
    else:
        parts.append(struct.pack("<BQ", 1, sample_set.seed.value))
        parts.append(pack_str(sample_set.seed.stream))
    parts += [f64(sample_set.params), f64(sample_set.targets)]
    write(path, _MAGIC, _VERSION, parts)


def load_dataset(path: Union[str, Path]) -> SampleSet:
    """Read a container written by save_dataset, validating shape, version
    and finite values."""
    with Reader(path, DatasetFormatError, _MAGIC, _VERSION, "dataset") as reader:
        role = reader.take_str()
        q, m, k = reader.unpack("<IIQ")
        t0, tf = reader.unpack("<dd")
        (has_seed,) = reader.unpack("<B")
        seed = RngSeed(reader.unpack("<Q")[0], reader.take_str()) if has_seed else None
        params, targets = reader.take_f64(k, q), reader.take_f64(k, m)
        reader.expect_end()
        return SampleSet(role=role, params=params, targets=targets, grid=TimeGrid(t0, tf, m), seed=seed)


def export_dataset_csv(sample_set: SampleSet, path: Union[str, Path]) -> None:
    """Human-readable export with header p1,...,pq,y1,...,ym."""
    q, m = sample_set.q, sample_set.grid.m
    header = [f"p{i + 1}" for i in range(q)] + [f"y{j + 1}" for j in range(m)]
    write_csv(path, header, np.hstack([sample_set.params, sample_set.targets]))
