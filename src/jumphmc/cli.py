"""Command-line entry point.

Commands: sample | spectral-gap | autocorr | tune | check.  Each command
reads one JSON config file with optional --seed and --out overrides, so an
experiment is reproducible from its config alone.  The config is checked
before any work: its keys and their JSON types here, and each value's
range once, by the object that owns it.  A command refuses an output path
that is its own config file; check writes no file and refuses --out.
Exit codes: 0 success, 1 usage or config error, 2 numerical failure, 3
check-suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import NormalDist
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .chainio import (
    ChainBlocks,
    write_autocorr_csv,
    write_best_json,
    write_chain_csv,
    write_chain_metadata,
    write_fits_json,
    write_gap_csv,
    write_trials_csv,
)
from .diagnostics import autocorrelation, fit_decay
from .energy import DiagonalGaussian, EnergyFunction, RoughWell, worst_reversibility
from .errors import DecayFitError, DegenerateChainError, DegenerateLadderError, IntegrationError
from .jump import SamplerConfig
from .ladder import random_ladder_experiment, worst_balance, worst_race_deviation, worst_similarity
from .tuner import SearchSpace, TuningEvalConfig, random_search, run_chain, unweighted_samples

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_CHECK_FAILED = 3


class ConfigError(Exception):
    """The config file is missing, malformed, or violates its schema."""


# ---------------------------------------------------------------------------
# config validation


def _require(config: dict, allowed: dict, context: str) -> dict:
    """Validate keys against {name: (required, checker)}; reject unknown keys.

    A checker that is itself such a dict validates a nested object under
    the path ``context.name``.
    """
    if not isinstance(config, dict):
        raise ConfigError(f"{context}: must be an object")
    unknown = sorted(set(config) - set(allowed))
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown}")
    out = {}
    for key, (required, checker) in allowed.items():
        if key not in config:
            if required:
                raise ConfigError(f"{context}: missing required key '{key}'")
            continue
        if isinstance(checker, dict):
            out[key] = _require(config[key], checker, f"{context}.{key}")
            continue
        try:
            out[key] = checker(config[key])
        except (TypeError, ValueError, OverflowError) as err:  # float(10**400) overflows
            raise ConfigError(f"{context}.{key}: {err}") from err
    return out


def _number(x) -> float:
    # JSON true/false load as bool, a subclass of int, and float() takes strings
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError("must be a number")
    return float(x)


def _integer(x) -> int:
    # an integral float is the same JSON number, so 400 and 400.0 give one config_hash
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError("must be an integer")
    return x


def _integer_list(x) -> list:
    if not isinstance(x, list):
        raise ValueError("must be a list of integers")
    return [_integer(v) for v in x]


def _int_at_least(low: int):
    """A checker for the integers the CLI owns (the seed, check's counts): at least ``low``."""

    def check(x) -> int:
        x = _integer(x)
        if x < low:
            raise ValueError(f"must be at least {low}")
        return x

    return check


def _string(x) -> str:
    if not isinstance(x, str):
        raise ValueError("must be a string")
    return x


def _bool(x) -> bool:
    if not isinstance(x, bool):
        raise ValueError("must be true or false")
    return x


def _number_list(x) -> list:
    if not isinstance(x, list) or not x:
        raise ValueError("must be a nonempty list of numbers")
    out = [_number(v) for v in x]
    if not np.all(np.isfinite(out)):
        raise ValueError("must contain only finite numbers")
    return out


_MODELS = {
    "rough_well": (RoughWell, {"sigma1": (False, _number), "sigma2": (False, _number)}),
    "gaussian": (DiagonalGaussian, {"precision_diag": (True, _number_list)}),
}


def parse_model(obj) -> EnergyFunction:
    """Build an energy model from its config mapping.

    The keys are checked for type here; the model checks its own ranges.
    """
    if not isinstance(obj, dict):
        raise ConfigError("model: must be an object")
    name = obj.get("name")
    if not isinstance(name, str) or name not in _MODELS:
        raise ConfigError(
            f"model.name: unknown model {name!r} (expected 'rough_well' or 'gaussian')"
        )
    cls, keys = _MODELS[name]
    fields = _require(obj, {"name": (True, _string), **keys}, "model")
    del fields["name"]
    return _build("model", cls, **fields)


def _pair(checker):
    """A checker for a [low, high] list whose values ``checker`` accepts."""

    def check(x) -> tuple:
        if not isinstance(x, list) or len(x) != 2:
            raise ValueError("must be a [low, high] pair")
        return tuple(checker(x))

    return check


def _build(context: str, owner, *args, **kwargs):
    """Call ``owner``, reporting the ValueError of its own checks under ``context``."""
    try:
        return owner(*args, **kwargs)
    except (DegenerateLadderError, DegenerateChainError):
        raise  # a ValueError of the work that follows the checks
    except ValueError as err:
        raise ConfigError(f"{context}: {err}") from err


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    try:
        config = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
    if not isinstance(config, dict):
        raise ConfigError("config file must contain a JSON object")
    return config


def _derived_seeds(seed: int, n: int) -> list:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


def _initial_state(ef: EnergyFunction, position, seed: int) -> tuple:
    x = np.zeros(ef.dim) if position is None else position  # run_chain converts it
    return x, np.random.default_rng(seed).standard_normal(ef.dim)


# ---------------------------------------------------------------------------
# commands


def cmd_sample(fields: dict, csv_path: str, json_path: str) -> int:
    ef = parse_model(fields["model"])
    if "init_position" in fields and len(fields["init_position"]) != ef.dim:
        raise ConfigError(
            f"sample config.init_position: expected {ef.dim} numbers, "
            f"got {len(fields['init_position'])}"
        )
    seed = fields["seed"]
    init_seed, chain_seed = _derived_seeds(seed, 2)
    init = _initial_state(ef, fields.get("init_position"), init_seed)
    sampler_config = _build(
        "sample config", SamplerConfig, fields["sampler"], fields["epsilon"], fields["steps"],
        fields["beta"], fields["n_samples"], chain_seed,
    )
    failure = None
    with ChainBlocks(sampler_config.n_samples, ef.dim) as blocks:
        try:
            chain = run_chain(sampler_config, ef, *init, blocks=blocks)
        except IntegrationError as err:
            chain, failure = err.partial_chain, err  # the rows recorded before the failure
        if len(chain):
            write_chain_csv(csv_path, chain, config=fields, seed=seed, blocks=blocks)
            write_chain_metadata(json_path, chain, fields, seed)
    if failure is not None:
        written = f"partial output in {csv_path}" if len(chain) else "no samples were written"
        print(f"numerical error: {failure} ({written})", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {csv_path} and {json_path} ({len(chain)} samples)")
    return EXIT_OK


def cmd_spectral_gap(fields: dict, path: str) -> int:
    result = _build("spectral-gap config", random_ladder_experiment, **fields)
    write_gap_csv(path, result, config=fields, seed=fields["seed"])
    print(f"wrote {path} ({len(result.sizes)} sizes x {result.draws_per_size} draws)")
    return EXIT_OK


def cmd_autocorr(fields: dict, mjhmc_path: str, hmc_path: str, fit_path: str) -> int:
    ef = parse_model(fields["model"])
    seed = fields["seed"]
    eval_config = _build("autocorr config", TuningEvalConfig, n_samples=fields["n_samples"],
                         n_lags=fields.get("n_lags", 200),
                         max_lag_evals=fields.get("max_lag_evals"))
    init_seed, mj_seed, hmc_seed, resample_seed = _derived_seeds(seed, 4)
    init = _initial_state(ef, None, init_seed)
    resample_rng = np.random.default_rng(resample_seed)

    sampler_configs = {
        name: _build(f"autocorr config.{name}", SamplerConfig, name,
                     n_samples=fields["n_samples"], seed=chain_seed, **fields[name])
        for name, chain_seed in (("mjhmc", mj_seed), ("hmc", hmc_seed))
    }
    samples = {}
    for name, sampler_config in sampler_configs.items():
        chain = run_chain(sampler_config, ef, *init)
        samples[name] = unweighted_samples(chain, resample_rng)
    # One shared lag grid so the two series are directly comparable.
    max_lag = eval_config.max_lag_evals
    if max_lag is None:
        max_lag = 0.10 * float(min(evals[-1] - evals[0] for _, evals in samples.values()))
    csv_paths = {"mjhmc": mjhmc_path, "hmc": hmc_path}
    fits = {}
    for name, (positions, evals) in samples.items():
        s = autocorrelation(positions, evals, max_lag_evals=max_lag, n_lags=eval_config.n_lags)
        fits[name] = fit_decay(s)
        write_autocorr_csv(csv_paths[name], s, config=fields, seed=seed)
    write_fits_json(fit_path, fits, fields, seed)
    print(f"wrote {mjhmc_path}, {hmc_path} and {fit_path}")
    return EXIT_OK


def cmd_tune(fields: dict, trials_path: str, best_path: str) -> int:
    ef = parse_model(fields["model"])
    ranges = {f"{key}_range": pair for key, pair in fields.get("space", {}).items()}
    space = _build("tune config.space", SearchSpace, **ranges)
    eval_config = _build("tune config.eval", TuningEvalConfig, **fields.get("eval", {}))
    seed = fields["seed"]
    try:
        best, trials = _build("tune config", random_search, space, fields["budget"],
                              fields["sampler"], ef, eval_config, seed=seed)
    except RuntimeError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    write_trials_csv(trials_path, trials, config=fields, seed=seed)
    write_best_json(best_path, best, trials, fields, seed)
    print(f"wrote {trials_path} and {best_path} (best objective {best.objective:.6g})")
    return EXIT_OK


def _run_check_suite(seed: int, balance_ladders: int = 100, similarity_ladders: int = 50,
                     race_vectors: int = 20, fault_injection: bool = False) -> list:
    """Run every invariant check; returns (name, passed, worst, tolerance) rows."""
    balance_rng, similarity_rng, rng, race_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4))
    balance, fixed = worst_balance(balance_rng, balance_ladders, 1e-3 if fault_injection else 0.0)
    leapfrog_cases = ((ef, rng.normal(scale=2.0, size=2), rng.standard_normal(2),
                       float(rng.choice([0.1, 1.0])), int(rng.choice([1, 25])))
                      for ef in (RoughWell(), DiagonalGaussian([1.0, 4.0])) for _ in range(50))
    # The last vector races three clocks: with two, the fault's pairwise-product shares
    # are the true shares.  Its count is drawn all the same, which keeps the stream.
    vectors = (race_rng.uniform(0.2, 3.0, size=max(int(race_rng.integers(2, 4)),
                                                    3 if i == race_vectors - 1 else 2))
               for i in range(race_vectors))
    # Sidak: the race row compares up to 3 z-scores per vector, each at the rate that
    # gives the row the false-alarm rate of one 3-sigma test
    per_test = 1.0 - (1.0 - 2.0 * NormalDist().cdf(-3.0)) ** (1.0 / (3 * race_vectors))
    race = worst_race_deviation(vectors, 100_000, race_rng, fault_injection)
    return [(name, worst <= tol, worst, tol) for name, worst, tol in (
        ("balance_condition", balance, 1e-10),
        ("embedded_fixed_point", fixed, 1e-10),
        ("similarity_spectra", worst_similarity(similarity_rng, similarity_ladders), 1e-8),
        ("leapfrog_reversibility", worst_reversibility(leapfrog_cases), 1e-9),
        ("exponential_race", race, -NormalDist().inv_cdf(0.5 * per_test)),
    )]


def cmd_check(fields: dict) -> int:
    results = _run_check_suite(**fields)
    width = max(len(name) for name, *_ in results)
    for name, passed, worst, tol in results:
        status = "PASS" if passed else "FAIL"
        print(f"{name:<{width}}  {status}  worst={worst:.3e}  tolerance={tol:.3g}")
    all_passed = all(passed for _, passed, _, _ in results)
    print("check suite:", "all passed" if all_passed else "FAILURES detected")
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# the command table and the one run path


class _Command(NamedTuple):
    body: Callable[..., int]  # body(provenance, *output paths) -> exit code
    help: str
    keys: dict  # the command's own config keys; seed and out are shared
    outputs: tuple = ()  # the output paths, as templates of the prefix
    default_out: str = ""
    config_optional: bool = False


_SHARED_KEYS = {"seed": (False, _int_at_least(0)), "out": (False, _string)}
_HYPER_KEYS = {"epsilon": (True, _number), "steps": (True, _integer), "beta": (True, _number)}

_COMMANDS = {
    "sample": _Command(
        cmd_sample,
        "run one sampler chain, write chain CSV + metadata JSON",
        {
            "sampler": (True, _string),
            "model": (True, lambda x: x),
            **_HYPER_KEYS,
            "n_samples": (True, _integer),
            "init_position": (False, _number_list),
        },
        ("{}.csv", "{}.json"), "chain",
    ),
    "spectral-gap": _Command(
        cmd_spectral_gap,
        "randomized ladder spectral-gap experiment",
        {"sizes": (False, _integer_list), "draws_per_size": (False, _integer)},
        ("{}",), "spectral_gap.csv",
    ),
    "autocorr": _Command(
        cmd_autocorr,
        "autocorrelation comparison of both samplers",
        {
            "model": (True, lambda x: x),
            "mjhmc": (True, _HYPER_KEYS),
            "hmc": (True, _HYPER_KEYS),
            "n_samples": (True, _integer),
            "n_lags": (False, _integer),
            "max_lag_evals": (False, _number),
        },
        ("{}_mjhmc.csv", "{}_hmc.csv", "{}_fits.json"), "autocorr",
    ),
    "tune": _Command(
        cmd_tune,
        "random-search hyperparameter tuning",
        {
            "sampler": (True, _string),
            "model": (True, lambda x: x),
            "budget": (True, _integer),
            "space": (False, {
                "epsilon": (False, _pair(_number_list)),
                "beta": (False, _pair(_number_list)),
                "steps": (False, _pair(_integer_list)),
            }),
            "eval": (False, {
                "n_samples": (False, _integer),
                "n_lags": (False, _integer),
                "max_lag_evals": (False, _number),
            }),
        },
        ("{}_trials.csv", "{}_best.json"), "tune",
    ),
    "check": _Command(
        cmd_check,
        "run the numerical invariant suite",
        {
            "balance_ladders": (False, _int_at_least(1)),
            "similarity_ladders": (False, _int_at_least(1)),
            "race_vectors": (False, _int_at_least(1)),
            "fault_injection": (False, _bool),
        },
        config_optional=True,
    ),
}


def _run(name: str, config: dict, config_path: Optional[str]) -> int:
    """The steps every command shares, in one order, then the command's body."""
    command = _COMMANDS[name]
    context = f"{name} config"
    fields = _require(config, {**command.keys, **_SHARED_KEYS}, context)
    if "out" in fields and not command.outputs:
        raise ConfigError(f"{context}.out: {name} writes no file")
    prefix = fields.pop("out", command.default_out)
    paths = [template.format(prefix) for template in command.outputs]
    for path in paths:
        if config_path is not None and Path(path).resolve() == Path(config_path).resolve():
            raise ConfigError(f"output path {path} would overwrite the config file")
    # Provenance: the validated fields given, minus out, plus the seed used.
    fields.setdefault("seed", 0)
    return command.body(fields, *paths)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jumphmc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"jumphmc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.config_optional:
            p.add_argument("config", nargs="?", help="optional JSON config file")
        else:
            p.add_argument("config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        # a command that writes no file still takes --out, to refuse it as a config error
        out_help = "override the output path or prefix" if command.outputs else argparse.SUPPRESS
        p.add_argument("--out", help=out_help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        if args.out:  # an empty --out leaves the config's out, or the default
            config["out"] = args.out
        return _run(args.command, config, args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, DegenerateLadderError, DegenerateChainError, DecayFitError) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
