"""Command-line entry point.

Commands: sample | spectral-gap | autocorr | tune | check.  Each command
reads one JSON config file (validated up front, unknown keys rejected) with
optional --seed and --out overrides, so an experiment is reproducible from
its config alone.  A command refuses, before any work, an output path that
is its own config file.  Exit codes: 0 success, 1 usage or config error,
2 numerical failure, 3 check-suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .chainio import (
    fit_to_dict,
    config_hash,
    write_autocorr_csv,
    write_chain_csv,
    write_chain_metadata,
    write_gap_csv,
    write_trials_csv,
)
from .diagnostics import MIN_FIT_LAGS, MIN_SAMPLES, autocorrelation, fit_decay, tuning_objective
from .energy import DiagonalGaussian, EnergyFunction, GaussianParams, RoughWell, RoughWellParams
from .errors import DecayFitError, DegenerateChainError, DegenerateLadderError, IntegrationError
from .jump import SamplerConfig
from .ladder import (
    DEFAULT_LADDER_SIZES,
    Ladder,
    balance_check,
    build_mjhmc_rate_matrix,
    embedded_fixed_point_check,
    min_exponential_oracle,
    random_ladder_experiment,
    similarity_check,
    spectral_distance,
)
from .phase import PhaseState
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
    """Validate keys against {name: (required, checker)}; reject unknown keys."""
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
        try:
            out[key] = checker(config[key])
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as err:  # int(inf) overflows
            raise ConfigError(f"{context}.{key}: {err}") from err
    return out


def _number(x) -> float:
    # JSON true/false load as bool, a subclass of int, and float() takes strings
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError("must be a number")
    return float(x)


def _positive_number(x) -> float:
    x = _number(x)
    if not np.isfinite(x) or x <= 0:
        raise ValueError("must be a positive finite number")
    return x


def _positive_int(x) -> int:
    if isinstance(x, bool) or int(x) != x or int(x) < 1:
        raise ValueError("must be a positive integer")
    return int(x)


def _int_at_least(low: int):
    """A checker for integers of at least ``low``."""

    def check(x) -> int:
        if isinstance(x, bool) or int(x) != x:
            raise ValueError("must be an integer")
        if int(x) < low:
            raise ValueError(f"must be at least {low}")
        return int(x)

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


def _sampler_kind(x) -> str:
    x = _string(x)
    if x not in ("mjhmc", "hmc"):
        raise ValueError("must be 'mjhmc' or 'hmc'")
    return x


def parse_model(obj) -> EnergyFunction:
    """Build an energy model from its config mapping."""
    if not isinstance(obj, dict):
        raise ConfigError("model: must be an object")
    name = obj.get("name")
    if name == "rough_well":
        fields = _require(
            obj,
            {
                "name": (True, _string),
                "sigma1": (False, _positive_number),
                "sigma2": (False, _positive_number),
            },
            "model",
        )
        return RoughWell(
            RoughWellParams(fields.get("sigma1", 100.0), fields.get("sigma2", 4.0))
        )
    if name == "gaussian":
        fields = _require(
            obj,
            {"name": (True, _string), "precision_diag": (True, _number_list)},
            "model",
        )
        return DiagonalGaussian(GaussianParams(np.array(fields["precision_diag"])))
    raise ConfigError(f"model.name: unknown model {name!r} (expected 'rough_well' or 'gaussian')")


def _pair(checker):
    """A checker for a [low, high] list whose values ``checker`` accepts."""

    def check(x) -> tuple:
        if not isinstance(x, list) or len(x) != 2:
            raise ValueError("must be a [low, high] pair")
        return tuple(checker(x))

    return check


def _hyper_triple(context: str):
    """A checker for the {epsilon, steps, beta} object at ``context``."""
    keys = {
        "epsilon": (True, _positive_number),
        "steps": (True, _positive_int),
        "beta": (True, _positive_number),
    }
    return lambda x: _require(x, keys, context)


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


def _refuse_config_overwrite(config_path: Optional[str], *paths: str) -> None:
    """Raise if a path the command will write is its own config file."""
    if config_path is None:
        return
    config_file = Path(config_path).resolve()
    for path in paths:
        if Path(path).resolve() == config_file:
            raise ConfigError(f"output path {path} would overwrite the config file")


def _derived_seeds(seed: int, n: int) -> list:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


def _initial_state(ef: EnergyFunction, position, seed: int) -> PhaseState:
    x = np.zeros(ef.dim) if position is None else np.asarray(position, dtype=float)
    rng = np.random.default_rng(seed)
    return PhaseState(x, rng.standard_normal(ef.dim))


# ---------------------------------------------------------------------------
# commands


def cmd_sample(config: dict, out: Optional[str], config_path: Optional[str]) -> int:
    fields = _require(
        config,
        {
            "sampler": (True, _sampler_kind),
            "model": (True, lambda x: x),
            "epsilon": (True, _positive_number),
            "steps": (True, _positive_int),
            "beta": (True, _positive_number),
            "n_samples": (True, _positive_int),
            "seed": (False, _int_at_least(0)),
            "init_position": (False, _number_list),
            "out": (False, _string),
        },
        "sample config",
    )
    ef = parse_model(fields["model"])
    if "init_position" in fields and len(fields["init_position"]) != ef.dim:
        raise ConfigError(
            f"sample config.init_position: expected {ef.dim} numbers, "
            f"got {len(fields['init_position'])}"
        )
    seed = fields.get("seed", 0)
    prefix = out or fields.get("out", "chain")
    init_seed, chain_seed = _derived_seeds(seed, 2)
    init = _initial_state(ef, fields.get("init_position"), init_seed)

    meta_config = {k: v for k, v in fields.items() if k != "out"}
    meta_config["seed"] = seed
    csv_path, json_path = f"{prefix}.csv", f"{prefix}.json"
    _refuse_config_overwrite(config_path, csv_path, json_path)
    try:
        sampler_config = SamplerConfig(
            fields["sampler"], fields["epsilon"], fields["steps"], fields["beta"],
            fields["n_samples"], chain_seed,
        )
    except ValueError as err:
        raise ConfigError(f"sample config: {err}") from err
    failure = None
    try:
        chain = run_chain(sampler_config, ef, init)
    except IntegrationError as err:
        chain, failure = err.partial_chain, err  # the rows recorded before the failure
    if len(chain):
        write_chain_csv(csv_path, chain, config=meta_config, seed=seed)
        write_chain_metadata(json_path, chain, meta_config, seed)
    if failure is not None:
        written = f"partial output in {csv_path}" if len(chain) else "no samples were written"
        print(f"error: integration failure: {failure} ({written})", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {csv_path} and {json_path} ({len(chain)} samples)")
    return EXIT_OK


def cmd_spectral_gap(config: dict, out: Optional[str], config_path: Optional[str]) -> int:
    fields = _require(
        config,
        {
            "sizes": (False, lambda x: [_positive_int(v) for v in x]),
            "draws_per_size": (False, _positive_int),
            "seed": (False, _int_at_least(0)),
            "out": (False, _string),
        },
        "spectral-gap config",
    )
    sizes = fields.get("sizes", list(DEFAULT_LADDER_SIZES))
    if not sizes or any(k < 3 for k in sizes):
        raise ConfigError("spectral-gap config.sizes: must list sizes of at least 3")
    draws = fields.get("draws_per_size", 250)
    seed = fields.get("seed", 0)
    path = out or fields.get("out", "spectral_gap.csv")
    _refuse_config_overwrite(config_path, path)
    result = random_ladder_experiment(sizes=sizes, draws_per_size=draws, seed=seed)
    meta = {"sizes": sizes, "draws_per_size": draws, "seed": seed}
    write_gap_csv(path, result, config=meta, seed=seed)
    print(f"wrote {path} ({len(sizes)} sizes x {draws} draws)")
    return EXIT_OK


def cmd_autocorr(config: dict, out: Optional[str], config_path: Optional[str]) -> int:
    fields = _require(
        config,
        {
            "model": (True, lambda x: x),
            "mjhmc": (True, _hyper_triple("autocorr config.mjhmc")),
            "hmc": (True, _hyper_triple("autocorr config.hmc")),
            "n_samples": (True, _int_at_least(MIN_SAMPLES)),
            "n_lags": (False, _int_at_least(MIN_FIT_LAGS)),
            "max_lag_evals": (False, _positive_number),
            "seed": (False, _int_at_least(0)),
            "out": (False, _string),
        },
        "autocorr config",
    )
    ef = parse_model(fields["model"])
    seed = fields.get("seed", 0)
    n_lags = fields.get("n_lags", 200)
    prefix = out or fields.get("out", "autocorr")
    fit_path = f"{prefix}_fits.json"
    _refuse_config_overwrite(config_path, f"{prefix}_mjhmc.csv", f"{prefix}_hmc.csv", fit_path)
    init_seed, mj_seed, hmc_seed, resample_seed = _derived_seeds(seed, 4)
    init = _initial_state(ef, None, init_seed)
    resample_rng = np.random.default_rng(resample_seed)

    meta_config = {k: v for k, v in fields.items() if k != "out"}
    meta_config["seed"] = seed
    sampler_configs = {}
    for name, chain_seed in (("mjhmc", mj_seed), ("hmc", hmc_seed)):
        try:
            sampler_configs[name] = SamplerConfig(
                name, n_samples=fields["n_samples"], seed=chain_seed, **fields[name]
            )
        except ValueError as err:
            raise ConfigError(f"autocorr config.{name}: {err}") from err
    samples = {}
    for name, sampler_config in sampler_configs.items():
        try:
            chain = run_chain(sampler_config, ef, init)
        except IntegrationError as err:
            print(f"error: integration failure: {err}", file=sys.stderr)
            return EXIT_NUMERICAL
        samples[name] = unweighted_samples(chain, resample_rng)
    # One shared lag grid so the two series are directly comparable.
    max_lag = fields.get("max_lag_evals")
    if max_lag is None:
        max_lag = 0.10 * float(min(evals[-1] - evals[0] for _, evals in samples.values()))
    fits = {}
    for name, (positions, evals) in samples.items():
        s = autocorrelation(positions, evals, max_lag_evals=max_lag, n_lags=n_lags)
        fits[name] = fit_decay(s)
        write_autocorr_csv(f"{prefix}_{name}.csv", s, config=meta_config, seed=seed)
    Path(fit_path).write_text(
        json.dumps(
            {
                "config_hash": config_hash(meta_config),
                "seed": seed,
                "fits": {k: fit_to_dict(v) for k, v in fits.items()},
                "objectives": {k: tuning_objective(v) for k, v in fits.items()},
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {prefix}_mjhmc.csv, {prefix}_hmc.csv and {fit_path}")
    return EXIT_OK


def cmd_tune(config: dict, out: Optional[str], config_path: Optional[str]) -> int:
    fields = _require(
        config,
        {
            "sampler": (True, _sampler_kind),
            "model": (True, lambda x: x),
            "budget": (True, _positive_int),
            "space": (False, lambda x: x),
            "eval": (False, lambda x: x),
            "seed": (False, _int_at_least(0)),
            "out": (False, _string),
        },
        "tune config",
    )
    ef = parse_model(fields["model"])
    seed = fields.get("seed", 0)
    prefix = out or fields.get("out", "tune")
    trials_path, best_path = f"{prefix}_trials.csv", f"{prefix}_best.json"
    _refuse_config_overwrite(config_path, trials_path, best_path)

    space_fields = _require(
        fields.get("space", {}),
        {
            "epsilon": (False, _pair(_number_list)),
            "beta": (False, _pair(_number_list)),
            "steps": (False, _pair(lambda x: [_positive_int(v) for v in x])),
        },
        "tune config.space",
    )
    try:
        space = SearchSpace(**{f"{key}_range": pair for key, pair in space_fields.items()})
    except ValueError as err:
        raise ConfigError(f"tune config.space: {err}") from err

    eval_fields = _require(
        fields.get("eval", {}),
        {
            "n_samples": (False, _positive_int),
            "n_lags": (False, _positive_int),
            "max_lag_evals": (False, _positive_number),
        },
        "tune config.eval",
    )
    try:
        eval_config = TuningEvalConfig(**eval_fields)
    except ValueError as err:
        raise ConfigError(f"tune config.eval: {err}") from err

    meta_config = {k: v for k, v in fields.items() if k != "out"}
    meta_config["seed"] = seed
    try:
        best, trials = random_search(
            space, fields["budget"], fields["sampler"], ef, eval_config, seed=seed
        )
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    write_trials_csv(trials_path, trials, config=meta_config, seed=seed)
    Path(best_path).write_text(
        json.dumps(
            {
                "config_hash": config_hash(meta_config),
                "seed": seed,
                "best": {
                    "epsilon": best.epsilon,
                    "beta": best.beta,
                    "steps": best.steps,
                    "objective": best.objective,
                    "sampler": best.sampler,
                },
                "n_trials": len(trials),
                "n_failed": sum(t.status == "failed" for t in trials),
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {trials_path} and {best_path} (best objective {best.objective:.6g})")
    return EXIT_OK


def _run_check_suite(seed: int, balance_ladders: int, similarity_ladders: int,
                     race_vectors: int, fault_injection: bool) -> list:
    """Run every invariant check; returns (name, passed, worst, tolerance) rows."""
    root = np.random.SeedSequence(seed)
    rngs = [np.random.default_rng(s) for s in root.spawn(5)]
    results = []

    # Balance condition and the embedded chain's fixed point on random ladders.
    worst_balance = 0.0
    worst_fixed = 0.0
    rng = rngs[0]
    for i in range(balance_ladders):
        k = int(rng.integers(4, 129))
        ladder = Ladder(rng.standard_normal(k))
        rates = build_mjhmc_rate_matrix(ladder)
        if fault_injection and i == 0:
            rates = rates.copy()
            rates[1, 0] += 1e-3
            rates[0, 0] -= 1e-3
        worst_balance = max(worst_balance, balance_check(rates, ladder))
        worst_fixed = max(worst_fixed, embedded_fixed_point_check(rates, ladder))
    results.append(("balance_condition", worst_balance <= 1e-10, worst_balance, 1e-10))
    results.append(("embedded_fixed_point", worst_fixed <= 1e-10, worst_fixed, 1e-10))

    # Similarity of the embedded and holding-time-scaled spectra.
    rng = rngs[1]
    worst = 0.0
    for _ in range(similarity_ladders):
        k = int(rng.integers(4, 129))
        rates = build_mjhmc_rate_matrix(Ladder(rng.standard_normal(k)))
        spec_a, spec_b = similarity_check(rates)
        worst = max(worst, spectral_distance(spec_a, spec_b))
    results.append(("similarity_spectra", worst <= 1e-8, worst, 1e-8))

    # Reversibility of the integrator: F L F L = identity.
    rng = rngs[2]
    worst = 0.0
    for ef in (RoughWell(), DiagonalGaussian(GaussianParams(np.array([1.0, 4.0])))):
        for _ in range(50):
            x, v = rng.normal(scale=2.0, size=2), rng.standard_normal(2)
            epsilon, steps = float(rng.choice([0.1, 1.0])), int(rng.choice([1, 25]))
            x1, v1, _ = ef.trajectory(x, v, ef.gradient(x), epsilon, steps)
            x2, v2, _ = ef.trajectory(x1, -v1, ef.gradient(x1), epsilon, steps)
            num = np.linalg.norm(np.concatenate([x2 - x, -v2 - v]))  # F L F L (x, v) - (x, v)
            den = np.linalg.norm(np.concatenate([x, v]))
            worst = max(worst, num / den)
    results.append(("leapfrog_reversibility", worst <= 1e-9, worst, 1e-9))

    # Exponential race: analytic embedded probabilities vs simulation.
    rng = rngs[3]
    n_trials = 100_000
    worst_sigma = 0.0
    for _ in range(race_vectors):
        m = int(rng.integers(2, 4))
        rates_vec = rng.uniform(0.2, 3.0, size=m)
        analytic = rates_vec / rates_vec.sum()
        freqs = min_exponential_oracle(rates_vec, n_trials, rng)
        sigma = np.sqrt(analytic * (1 - analytic) / n_trials)
        worst_sigma = max(worst_sigma, float(np.max(np.abs(freqs - analytic) / sigma)))
    results.append(("exponential_race", worst_sigma <= 3.0, worst_sigma, 3.0))
    return results


def cmd_check(config: dict, out: Optional[str], config_path: Optional[str]) -> int:
    fields = _require(
        config,
        {
            "seed": (False, _int_at_least(0)),
            "balance_ladders": (False, _positive_int),
            "similarity_ladders": (False, _positive_int),
            "race_vectors": (False, _positive_int),
            "fault_injection": (False, _bool),
        },
        "check config",
    )
    results = _run_check_suite(
        seed=fields.get("seed", 0),
        balance_ladders=fields.get("balance_ladders", 100),
        similarity_ladders=fields.get("similarity_ladders", 50),
        race_vectors=fields.get("race_vectors", 20),
        fault_injection=fields.get("fault_injection", False),
    )
    width = max(len(name) for name, *_ in results)
    all_passed = True
    for name, passed, worst, tol in results:
        status = "PASS" if passed else "FAIL"
        all_passed &= passed
        print(f"{name:<{width}}  {status}  worst={worst:.3e}  tolerance={tol:.0e}")
    print("check suite:", "all passed" if all_passed else "FAILURES detected")
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


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
    helps = {
        "sample": "run one sampler chain, write chain CSV + metadata JSON",
        "spectral-gap": "randomized ladder spectral-gap experiment",
        "autocorr": "autocorrelation comparison of both samplers",
        "tune": "random-search hyperparameter tuning",
        "check": "run the numerical invariant suite",
    }
    for name, help_text in helps.items():
        p = sub.add_parser(name, help=help_text)
        if name == "check":
            p.add_argument("config", nargs="?", help="optional JSON config file")
        else:
            p.add_argument("config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output path or prefix")
    return parser


_COMMANDS = {
    "sample": cmd_sample,
    "spectral-gap": cmd_spectral_gap,
    "autocorr": cmd_autocorr,
    "tune": cmd_tune,
    "check": cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        return _COMMANDS[args.command](config, args.out, args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, DegenerateLadderError, DegenerateChainError, DecayFitError) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
