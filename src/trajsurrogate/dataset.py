"""Parameter sampling, target-trajectory generation, and dataset persistence.

A dataset couples a k x q matrix of parameter samples with the k x m matrix
of quantity-of-interest trajectories obtained by solving the IVP for each row.
Datasets are stored in a self-describing binary container so that round-trips
are bit-exact; a CSV export exists for inspection.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import logging
import struct
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from ._container import Reader, pack_str
from .dynsys import ParameterDomain, SystemSpec
from .integrator import IntegrationError, TimeGrid, ToleranceSettings, solve_trajectory

logger = logging.getLogger(__name__)

_MAGIC = b"TJDS"
_VERSION = 1
# the three sample sets of a run, in report order
ROLES = ("train", "validation", "test")

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
        if self.targets.shape[0] and self.targets.shape[1] != self.grid.m:
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


def _solve_block(
    spec: SystemSpec,
    params: np.ndarray,
    grid: TimeGrid,
    tol: ToleranceSettings,
    offset: int,
) -> Tuple[int, np.ndarray, List[Tuple[int, str]]]:
    block = np.empty((params.shape[0], grid.m))
    failures: List[Tuple[int, str]] = []
    for i, row in enumerate(params):
        try:
            block[i] = solve_trajectory(spec, row, grid, tol)
        except IntegrationError as exc:
            block[i] = np.nan
            failures.append((offset + i, str(exc)))
    return offset, block, failures


def generate_targets(
    spec: SystemSpec,
    params: np.ndarray,
    grid: TimeGrid,
    tol: ToleranceSettings = ToleranceSettings(),
    on_failure: str = "abort",
    workers: int = 1,
) -> np.ndarray:
    """Solve the IVP for every parameter row and sample the QoI on the grid.

    on_failure="abort" raises TargetGenerationError at the first failed row;
    "skip" leaves failed rows as NaN (see failed_rows) and logs a warning.
    Worker processes operate on disjoint row blocks, so results are identical
    to a serial run regardless of scheduling.
    """
    if on_failure not in ("abort", "skip"):
        raise ValueError("on_failure must be 'abort' or 'skip'")
    params = np.atleast_2d(np.asarray(params, dtype=np.float64))
    k = params.shape[0]
    targets = np.empty((k, grid.m))

    if workers <= 1 or k == 1:
        results = [_solve_block(spec, params, grid, tol, 0)]
    else:
        bounds = np.linspace(0, k, min(workers, k) + 1).astype(int)
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_solve_block, spec, params[a:b], grid, tol, int(a))
                for a, b in zip(bounds[:-1], bounds[1:])
                if b > a
            ]
            results = [f.result() for f in futures]

    all_failures: List[Tuple[int, str]] = []
    for offset, block, failures in results:
        targets[offset : offset + block.shape[0]] = block
        all_failures.extend(failures)

    if all_failures:
        all_failures.sort()
        row, message = all_failures[0]
        if on_failure == "abort":
            raise TargetGenerationError(row, RuntimeError(message))
        for row, message in all_failures:
            logger.warning("skipped sample row %d: %s", row, message)
    return targets


def failed_rows(targets: np.ndarray) -> np.ndarray:
    """Indices of rows left as NaN by generate_targets(on_failure='skip')."""
    return np.flatnonzero(np.isnan(targets).any(axis=1))


def save_dataset(sample_set: SampleSet, path: Union[str, Path]) -> None:
    """Write the binary container; lossless round-trip with load_dataset."""
    k, q = sample_set.params.shape
    m = sample_set.targets.shape[1] if k else sample_set.grid.m
    parts = [
        _MAGIC,
        struct.pack("<H", _VERSION),
        pack_str(sample_set.role),
        struct.pack("<IIQ", q, m, k),
        struct.pack("<dd", sample_set.grid.t0, sample_set.grid.tf),
    ]
    if sample_set.seed is None:
        parts.append(struct.pack("<B", 0))
    else:
        parts.append(struct.pack("<BQ", 1, sample_set.seed.value))
        parts.append(pack_str(sample_set.seed.stream))
    parts.append(sample_set.params.astype("<f8").tobytes(order="C"))
    parts.append(sample_set.targets.astype("<f8").tobytes(order="C"))
    Path(path).write_bytes(b"".join(parts))


def load_dataset(path: Union[str, Path]) -> SampleSet:
    """Read a container written by save_dataset, validating shape and version."""
    reader = Reader(Path(path).read_bytes(), DatasetFormatError)
    if reader.take(4) != _MAGIC:
        raise DatasetFormatError(f"{path}: not a dataset file (bad magic)")
    (version,) = reader.unpack("<H")
    if version != _VERSION:
        raise DatasetFormatError(f"{path}: unsupported version {version}")
    role = reader.take_str()
    q, m, k = reader.unpack("<IIQ")
    t0, tf = reader.unpack("<dd")
    (has_seed,) = reader.unpack("<B")
    seed = None
    if has_seed:
        (value,) = reader.unpack("<Q")
        stream = reader.take_str()
        seed = RngSeed(value, stream)
    payload = reader.take(8 * k * (q + m))
    reader.expect_end(str(path))
    params = np.frombuffer(payload[: 8 * k * q], dtype="<f8").reshape(k, q).copy()
    targets = np.frombuffer(payload[8 * k * q :], dtype="<f8").reshape(k, m).copy()
    return SampleSet(role=role, params=params, targets=targets, grid=TimeGrid(t0, tf, m), seed=seed)


def export_dataset_csv(sample_set: SampleSet, path: Union[str, Path]) -> None:
    """Human-readable export with header p1,...,pq,y1,...,ym."""
    k, q = sample_set.params.shape
    m = sample_set.targets.shape[1]
    header = ",".join([f"p{i + 1}" for i in range(q)] + [f"y{j + 1}" for j in range(m)])
    table = np.hstack([sample_set.params, sample_set.targets]) if k else np.empty((0, q + m))
    np.savetxt(path, table, delimiter=",", header=header, comments="", fmt="%.17g")
