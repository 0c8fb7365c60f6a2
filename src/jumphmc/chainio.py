"""CSV and JSON output for chains, experiments and tuning runs.

Every CSV starts with a small comment header (version, config hash, seed,
gradient-count convention) so an output file is a self-describing artifact;
the body stays plain CSV, readable by any tool that skips ``#`` lines.

A chain CSV is formatted while the chain is sampled, each block of rows in
a child forked once the block is recorded (:class:`ChainBlocks`); the caller
formats the tail and copies the blocks in order after the header.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import tempfile
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .diagnostics import AutocorrSeries, DecayFit, tuning_objective
from .forkmap import Forks, _worker_count
from .jump import Chain
from .ladder import GapExperimentResult
from .tuner import TrialRecord

FORMAT_VERSION = "3"

# A chain CSV of F fields gets round(sqrt(F / FORK_FIELDS)) blocks: n forks (2.7 ms each
# on a 2-core VM) and a tail of F / 2n fields (1.1 us each) cost least at that n.
FORK_FIELDS = 5_000

GRADIENT_COUNT_CONVENTION = (
    "true gradient calls counted, cumulative after each row's cache update; "
    "mjhmc: an L transition costs steps, F costs 0, R costs 2*steps, the chain "
    "start 2*steps+1; hmc: a step costs steps, or 0 when its proposal is cached, "
    "the chain start 1"
)


def config_hash(config: Mapping) -> str:
    """Stable short hash of a JSON-serializable config mapping."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _header_lines(kind: str, config: Optional[Mapping], seed: Optional[int]) -> list[str]:
    lines = [f"# jumphmc {kind} format v{FORMAT_VERSION}"]
    if config is not None:
        lines.append(f"# config_hash: {config_hash(config)}")
    if seed is not None:
        lines.append(f"# seed: {seed}")
    lines.append(f"# gradient_count_convention: {GRADIENT_COUNT_CONVENTION}")
    return lines


def _write_csv(
    path: Union[str, Path],
    kind: str,
    columns: Sequence[str],
    rows: Iterable[Sequence[str]],
    config: Optional[Mapping] = None,
    seed: Optional[int] = None,
) -> None:
    """Header lines, then one comma-joined line per row of string fields.

    No field holds a comma, quote or line break, so every line is exactly
    what ``csv.writer`` would emit, CRLF line ends included.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        for line in _header_lines(kind, config, seed):
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in rows)


def _write_json(path: Union[str, Path], obj: Mapping) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n")


def _format_float(x: float) -> str:
    return repr(float(x))


def _chain_rows(chain: Chain, start: int, stop: int) -> Iterator[list[str]]:
    """Rows ``start`` to ``stop`` of a chain CSV, one at a time: a tolist()
    of many rows would hold every float of them as an object at once."""
    evals = chain.gradient_evals[start:stop].tolist()
    if chain.sampler == "hmc":
        holding, transitions = repeat("1"), repeat("")
    else:
        holding = map(_format_float, chain.holding_times[start:stop].tolist())
        transitions = map(str, chain.transitions[start:stop].tolist())
    for i, h, t, e in zip(range(start, stop), holding, transitions, evals):
        yield [
            str(i),
            *map(repr, chain.positions[i].tolist()),
            *map(repr, chain.momenta[i].tolist()),
            h,
            t,
            str(int(e)),
        ]


def _fill(block, chain: Chain, start: int, stop: int) -> None:
    with open(block.fileno(), "w", newline="", closefd=False) as out:
        out.writelines(",".join(row) + "\r\n" for row in _chain_rows(chain, start, stop))


class ChainBlocks(Forks):
    """The body of a chain CSV in blocks, each formatted by a child forked at its last row.

    ``n_rows`` rows are split evenly into at most 256 blocks (``FORK_FIELDS``) and the
    last one in halves; the caller formats the second half, the tail.  ``stops`` is empty
    where ``forkmap`` would not fork or for a chain under 1.5 blocks.  Each block goes to
    an unnamed temporary file; closing closes them and kills and reaps the children."""

    def __init__(self, n_rows: int, dim: int):
        super().__init__()
        n = min(256, round((n_rows * (2 * dim + 4) / FORK_FIELDS) ** 0.5))  # blocks
        halves = [*range(2, 2 * n, 2), 2 * n - 1] if _worker_count(n) > 1 else []
        self.stops = [n_rows * h // (2 * n) for h in halves]  # in half blocks
        self.files, self.start = [], 0  # start: the first row not yet in a block

    def block(self):
        self.files.append(self.enter_context(tempfile.TemporaryFile()))
        return self.files[-1]

    def __call__(self, chain: Chain, stop: int) -> None:
        """Fork a child that formats rows ``start`` to ``stop`` into a new block."""
        self.fork(_fill, self.block(), chain, self.start, stop)
        self.start = stop


def write_chain_csv(
    path: Union[str, Path],
    chain: Chain,
    config: Optional[Mapping] = None,
    seed: Optional[int] = None,
    blocks: Optional[ChainBlocks] = None,
) -> None:
    """Chain rows: step, positions, momenta, holding time, transition, cost.

    A control chain's rows carry equal weight and its accept/reject kinds
    are not jump transitions, so its holding-time and transition columns
    are written as 1 and empty; the two samplers share one format.
    ``blocks`` holds the blocks forked while the chain was sampled; the rest
    are forked here, and ``blocks`` is closed when this returns.
    """
    dim = chain.positions.shape[1]
    columns = ["step", *(f"x{d}" for d in range(dim)), *(f"v{d}" for d in range(dim)),
               "holding_time", "transition", "gradient_evals"]
    with blocks or ChainBlocks(len(chain), dim) as blocks:
        for stop in blocks.stops:
            if blocks.start < stop <= len(chain):
                blocks(chain, stop)
        if blocks.files:  # the tail, formatted here while the children run
            _fill(blocks.block(), chain, blocks.start, len(chain))
            list(blocks.results())  # the first child that raised raises here
        rows = () if blocks.files else _chain_rows(chain, 0, len(chain))  # no fork: no block
        _write_csv(path, "chain", columns, rows, config, seed)
        # One reused buffer: copyfileobj's fresh 64 KiB per read fragmented the heap.
        buffer = memoryview(bytearray(1 << 16))
        with open(path, "ab") as fh:
            for block in blocks.files:
                block.seek(0)
                while n := block.readinto(buffer):
                    fh.write(buffer[:n])


def write_chain_metadata(
    path: Union[str, Path],
    chain: Chain,
    config: Mapping,
    seed: int,
) -> None:
    """JSON sidecar with the config, seed, and summary counts of a chain run."""
    counts: dict = {
        "n_samples": len(chain),
        "gradient_evals": int(chain.gradient_evals[-1]) if len(chain) else 0,
        "energy_evals": int(chain.energy_evals),
    }
    if chain.sampler == "hmc":
        counts["acceptance_rate"] = chain.acceptance_rate
    else:
        counts["transitions"] = chain.transition_counts()
        counts["total_system_time"] = float(chain.holding_times.sum())
    _write_json(path, {
        "format": f"jumphmc chain metadata v{FORMAT_VERSION}",
        "config": dict(config),
        "config_hash": config_hash(config),
        "seed": seed,
        "counts": counts,
        "gradient_count_convention": GRADIENT_COUNT_CONVENTION,
    })


def write_fits_json(
    path: Union[str, Path], fits: Mapping[str, DecayFit], config: Mapping, seed: int
) -> None:
    """Per-sampler decay fits of an autocorrelation comparison, with their objectives."""
    _write_json(path, {
        "config_hash": config_hash(config),
        "seed": seed,
        "fits": {name: dataclasses.asdict(fit) for name, fit in fits.items()},
        "objectives": {name: tuning_objective(fit) for name, fit in fits.items()},
    })


def write_best_json(
    path: Union[str, Path], best: TrialRecord, trials: Sequence[TrialRecord], config: Mapping,
    seed: int,
) -> None:
    """The best setting of a tuning run, with its trial and failure counts."""
    c = best.config
    _write_json(path, {
        "config_hash": config_hash(config),
        "seed": seed,
        "best": {"epsilon": c.epsilon, "beta": c.beta, "steps": c.steps,
                 "objective": best.objective, "sampler": c.sampler},
        "n_trials": len(trials),
        "n_failed": sum(t.status == "failed" for t in trials),
    })


def write_gap_csv(
    path: Union[str, Path],
    result: GapExperimentResult,
    config: Optional[Mapping] = None,
    seed: Optional[int] = None,
) -> None:
    """Spectral-gap experiment in long format: one row per (size, sampler)."""
    rows = (
        [str(k), sampler, _format_float(mean), _format_float(err), str(draws)]
        for k, sampler, mean, err, draws in result.rows()
    )
    _write_csv(
        path, "spectral-gap", ["k", "sampler", "mean_gap", "std_error", "draws"], rows,
        config=config, seed=seed,
    )


def write_autocorr_csv(
    path: Union[str, Path],
    series: AutocorrSeries,
    config: Optional[Mapping] = None,
    seed: Optional[int] = None,
) -> None:
    rows = (
        [_format_float(lag), _format_float(val)]
        for lag, val in zip(series.lags, series.values)
    )
    _write_csv(
        path, "autocorrelation", ["lag_gradient_evals", "autocorrelation"], rows,
        config=config, seed=seed,
    )


def write_trials_csv(
    path: Union[str, Path],
    trials: Sequence[TrialRecord],
    config: Optional[Mapping] = None,
    seed: Optional[int] = None,
) -> None:
    rows = (
        [
            t.config.sampler,
            _format_float(t.config.epsilon),
            _format_float(t.config.beta),
            str(t.config.steps),
            str(t.config.seed),
            t.status,
            "" if t.objective is None else _format_float(t.objective),
        ]
        for t in trials
    )
    _write_csv(
        path, "tuning-trials",
        ["sampler", "epsilon", "beta", "steps", "seed", "status", "objective"],
        rows, config=config, seed=seed,
    )


def read_csv_rows(path: Union[str, Path]) -> tuple[list[str], list[list[str]]]:
    """Read back a package CSV, skipping the comment header; returns (columns, rows)."""
    with Path(path).open() as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        rows = list(reader)
    return rows[0], rows[1:]
