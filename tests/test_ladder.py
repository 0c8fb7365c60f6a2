import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from jumphmc import (
    DegenerateLadderError,
    Ladder,
    balance_check,
    build_mjhmc_rate_matrix,
    certified_ring_gap,
    embedded_chain,
    embedded_fixed_point_check,
    holding_time_diag,
    ladder_chain,
    ladder_spectral_gap,
    ladder_stationary,
    min_exponential_oracle,
    random_ladder_experiment,
    similarity_check,
    spectral_distance,
    spectral_gap,
)
import jumphmc.ladder as ladder_module
from jumphmc.cli import main
from jumphmc.ladder import (
    DEFAULT_LADDER_SIZES,
    RING_GAP_MIN_K,
    _NEAR_MINUS_ONE,
    _NEAR_PLUS_ONE,
    _exit_probabilities,
    _RingTransfer,
    _draw_ladder,
    worst_race_deviation,
)

LN2 = np.log(2.0)


def random_ladder(k, seed):
    return Ladder(np.random.default_rng(seed).standard_normal(k))


def cliff_ladder():
    """65 standard-normal rungs with a 2000-unit step up onto rung 20."""
    energies = np.random.default_rng(4).standard_normal(65)
    energies[20] += 2000.0
    return Ladder(energies)


def rate_matrix_from_column(rates_out):
    """Tiny rate matrix with a single active column of outgoing rates."""
    m = len(rates_out) + 1
    g = np.zeros((m, m))
    g[1:, 0] = rates_out
    # keep the other states non-degenerate with a uniform outgoing rate
    for j in range(1, m):
        g[0, j] = 1.0
    np.fill_diagonal(g, -g.sum(axis=0))
    return g


class TestLadderTypes:
    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            Ladder(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            Ladder(np.array([0.0, np.inf, 1.0]))

    def test_flat_index_layout(self):
        # ascending states 0..k-1 leapfrog up or flip to k+r; descending
        # states k..2k-1 leapfrog down or flip to r; nothing else moves
        ladder = random_ladder(4, 5)
        asc, desc = [0, 1, 2, 3], [4, 5, 6, 7]
        for sampler in ("mjhmc", "hmc"):
            chain = ladder_chain(ladder, sampler)
            assert chain.shape == (8, 8)
            alpha, delta = _exit_probabilities(ladder, sampler)
            np.testing.assert_array_equal(chain[[1, 2, 3, 0], asc], alpha)
            np.testing.assert_array_equal(chain[desc, asc], 1.0 - alpha)
            np.testing.assert_array_equal(chain[[7, 4, 5, 6], desc], delta)
            np.testing.assert_array_equal(chain[asc, desc], 1.0 - delta)
            assert np.count_nonzero(chain) <= 16


class TestRateMatrix:
    def test_flat_ladder_rates(self):
        rates = build_mjhmc_rate_matrix(Ladder(np.zeros(4)))
        off = rates.copy()
        np.fill_diagonal(off, 0.0)
        # every leapfrog rate 1, every flip rate 0
        k = 4
        for r in range(k):
            assert rates[(r + 1) % k, r] == 1.0
            assert rates[k + r, r] == 0.0
            assert rates[k + (r - 1) % k, k + r] == 1.0
            assert rates[r, k + r] == 0.0
        assert off.sum() == pytest.approx(2 * k)

    def test_three_rung_arithmetic(self):
        # rung energies (0, 2 ln 2, 0): from rung 0 ascending the leapfrog
        # rate is 0.5 and the flip rate is 1 - 0.5
        rates = build_mjhmc_rate_matrix(Ladder(np.array([0.0, 2 * LN2, 0.0])))
        assert rates[1, 0] == pytest.approx(0.5)
        assert rates[3, 0] == pytest.approx(0.5)

    def test_columns_sum_to_zero(self):
        for seed in range(5):
            rates = build_mjhmc_rate_matrix(random_ladder(17, seed))
            np.testing.assert_allclose(rates.sum(axis=0), 0.0, atol=1e-12)

    def test_at_most_one_flip_direction_is_active(self):
        rates = build_mjhmc_rate_matrix(random_ladder(9, 1))
        k = 9
        for r in range(k):
            asc_flip = rates[k + r, r]
            desc_flip = rates[r, k + r]
            assert min(asc_flip, desc_flip) == 0.0

    def test_overflowing_rate_is_refused(self):
        # the 2000-unit drop from rung 20 to 21 overflows exp(1000)
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(ValueError, match="overflow"):
                build_mjhmc_rate_matrix(cliff_ladder())


class TestHmcLadderChain:
    def test_flat_ladder_is_deterministic_cycle(self):
        chain = ladder_chain(Ladder(np.zeros(5)), "hmc")
        # permutation matrix: exactly one 1 per column
        assert np.all((chain == 0.0) | (chain == 1.0))
        np.testing.assert_allclose(chain.sum(axis=0), 1.0)
        assert chain[1, 0] == 1.0

    def test_uphill_acceptance_probability(self):
        # moving up ln 2 in energy is accepted half the time
        chain = ladder_chain(Ladder(np.array([0.0, LN2, 2 * LN2])), "hmc")
        assert chain[1, 0] == pytest.approx(0.5)  # leapfrog move
        assert chain[3, 0] == pytest.approx(0.5)  # flip on reject

    def test_columns_sum_to_one(self):
        for seed in range(5):
            chain = ladder_chain(random_ladder(12, seed), "hmc")
            np.testing.assert_allclose(chain.sum(axis=0), 1.0, atol=1e-12)


class TestEmbeddedChain:
    def test_two_outgoing_rates(self):
        t = embedded_chain(rate_matrix_from_column([1.0, 3.0]))
        np.testing.assert_allclose(t[:, 0], [0.0, 0.25, 0.75])

    def test_three_outgoing_rates(self):
        t = embedded_chain(rate_matrix_from_column([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(t[:, 0], [0.0, 1 / 6, 1 / 3, 1 / 2])

    def test_flat_ladder_is_permutation(self):
        t = embedded_chain(build_mjhmc_rate_matrix(Ladder(np.zeros(6))))
        assert np.all((t == 0.0) | (t == 1.0))
        np.testing.assert_allclose(t.sum(axis=0), 1.0)

    def test_no_self_transitions(self):
        t = embedded_chain(build_mjhmc_rate_matrix(random_ladder(11, 3)))
        np.testing.assert_array_equal(np.diag(t), 0.0)

    def test_degenerate_matrix_rejected(self):
        g = np.zeros((3, 3))
        g[1, 0] = 1.0
        np.fill_diagonal(g, -g.sum(axis=0))
        with pytest.raises(DegenerateLadderError):
            embedded_chain(g)

    def test_largest_eigenvalue_magnitude_is_one(self):
        for seed in range(5):
            t = embedded_chain(build_mjhmc_rate_matrix(random_ladder(10, seed)))
            top = np.max(np.abs(np.linalg.eigvals(t)))
            assert top == pytest.approx(1.0, abs=1e-10)

    def test_matches_simulation_for_random_rate_vectors(self):
        rng = np.random.default_rng(17)
        n = 100_000
        for _ in range(6):
            m = int(rng.integers(2, 4))
            rates_out = rng.uniform(0.3, 3.0, size=m)
            analytic = embedded_chain(rate_matrix_from_column(rates_out))[1:, 0]
            freqs = min_exponential_oracle(rates_out, n, rng)
            sigma = np.sqrt(analytic * (1 - analytic) / n)
            np.testing.assert_array_less(np.abs(freqs - analytic), 3 * sigma)


class TestHoldingTimes:
    def test_simple_column(self):
        d = holding_time_diag(rate_matrix_from_column([0.5, 1.5]))
        assert d[0] == pytest.approx(0.5)

    def test_flat_ladder_unit_holding_times(self):
        d = holding_time_diag(build_mjhmc_rate_matrix(Ladder(np.zeros(5))))
        np.testing.assert_allclose(d, 1.0)

    def test_trajectory_simulation_matches_expected_holding_times(self):
        # simulate the jump process itself and compare per-state mean
        # holding times against the diagonal
        ladder = Ladder(np.array([0.2, -0.3, 0.4]))
        rates = build_mjhmc_rate_matrix(ladder)
        d = holding_time_diag(rates)
        n_states = rates.shape[0]
        rng = np.random.default_rng(5)
        totals = np.zeros(n_states)
        visits = np.zeros(n_states)
        state = 0
        for _ in range(200_000):
            col = rates[:, state].copy()
            col[state] = 0.0  # the diagonal is not a transition
            waiting = np.full(n_states, np.inf)
            active = col > 0
            waiting[active] = rng.standard_exponential(int(active.sum())) / col[active]
            nxt = int(np.argmin(waiting))
            totals[state] += waiting[nxt]
            visits[state] += 1
            state = nxt
        assert visits.min() > 10_000
        np.testing.assert_allclose(totals / visits, d, rtol=0.02)


class TestSpectralGap:
    def test_period_two_chain_has_zero_gap(self):
        assert spectral_gap(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_chain_has_unit_gap(self):
        assert spectral_gap(np.full((2, 2), 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_non_stochastic_input_rejected(self):
        with pytest.raises(ValueError):
            spectral_gap(np.array([[0.5, 0.2], [0.2, 0.5]]))
        with pytest.raises(ValueError):
            spectral_gap(np.array([[1.2, 0.3], [-0.2, 0.7]]))

    @pytest.mark.parametrize("k", [8, 9])
    def test_cross_implementation_oracle(self, k):
        # independent high-precision eigensolver (pure-python QR) must agree
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        t_hat = embedded_chain(build_mjhmc_rate_matrix(random_ladder(k, 2024)))
        ours = spectral_gap(t_hat)
        eigs = mpmath.eig(mpmath.matrix(t_hat.tolist()), left=False, right=False)
        mags = sorted((abs(complex(e)) for e in eigs), reverse=True)
        assert ours == pytest.approx(float(mags[0] - mags[1]), abs=1e-8)


def experiment_draws(k, n, seed=404, sizes=DEFAULT_LADDER_SIZES):
    """The first n ladders that random_ladder_experiment(sizes, seed=seed) draws
    at size k; the defaults are criterion 4's."""
    per_size = np.random.SeedSequence(seed).spawn(len(sizes))
    tasks = per_size[list(sizes).index(k)].spawn(n)
    return [_draw_ladder(k, np.random.default_rng(t)) for t in tasks]


FAST_SIZES = [k for k in DEFAULT_LADDER_SIZES if k >= RING_GAP_MIN_K]


class TestRingGap:
    @pytest.mark.parametrize("sampler", ["mjhmc", "hmc"])
    def test_exit_probabilities_are_the_dense_entries(self, sampler):
        # against chains built without _exit_probabilities: the competing
        # clocks of the rate matrix, and Metropolis rung by rung
        ladder = random_ladder(7, 5)
        k, e = ladder.k, ladder.energies
        alpha, delta = _exit_probabilities(ladder, sampler)
        r = np.arange(k)
        if sampler == "mjhmc":
            chain = embedded_chain(build_mjhmc_rate_matrix(ladder))
            np.testing.assert_allclose(alpha, chain[(r + 1) % k, r], rtol=0, atol=2.3e-16)
            np.testing.assert_allclose(delta, chain[k + (r - 1) % k, k + r], rtol=0, atol=2.3e-16)
        else:
            for i in range(k):
                assert alpha[i] == pytest.approx(min(1.0, np.exp(e[i] - e[(i + 1) % k])), abs=1e-15)
                assert delta[i] == pytest.approx(min(1.0, np.exp(e[i] - e[(i - 1) % k])), abs=1e-15)

    def test_jump_chain_matches_the_rate_matrix_oracle(self):
        # the closed form against the competing clocks of the rate matrix,
        # entry by entry, within about two ulps of 1
        for k in range(3, 201):
            ladder = random_ladder(k, k)
            np.testing.assert_allclose(
                ladder_chain(ladder, "mjhmc"), embedded_chain(build_mjhmc_rate_matrix(ladder)),
                rtol=0, atol=2.3e-16,
            )

    @pytest.mark.parametrize("k", FAST_SIZES)
    def test_matches_dense_on_experiment_draws(self, k):
        # the certificate must pass, with no fallback, on these draws
        for ladder in experiment_draws(k, 10):
            for sampler in ("mjhmc", "hmc"):
                fast = certified_ring_gap(ladder, sampler)
                assert fast is not None
                assert abs(fast - spectral_gap(ladder_chain(ladder, sampler))) <= 1e-10

    def test_large_ring_matches_dense(self):
        ladder = random_ladder(401, 11)
        for sampler in ("mjhmc", "hmc"):
            fast = certified_ring_gap(ladder, sampler)
            assert fast is not None
            assert abs(fast - spectral_gap(ladder_chain(ladder, sampler))) <= 1e-10

    @pytest.mark.parametrize("k", [64, 130])
    def test_even_ring_agrees_or_falls_back(self, k):
        # an even ring is bipartite: -1 is an eigenvalue and the gap is 0
        ladder = random_ladder(k, 3)
        for sampler in ("mjhmc", "hmc"):
            dense = spectral_gap(ladder_chain(ladder, sampler))
            fast = certified_ring_gap(ladder, sampler)
            assert fast is None or abs(fast - dense) <= 1e-12
            assert abs(ladder_spectral_gap(ladder, sampler) - dense) <= 1e-12

    @pytest.mark.parametrize("k", [5, 9])
    def test_small_rings_are_solved_densely(self, k):
        assert k < RING_GAP_MIN_K
        for ladder in experiment_draws(k, 5):
            for sampler in ("mjhmc", "hmc"):
                dense = spectral_gap(ladder_chain(ladder, sampler))
                assert ladder_spectral_gap(ladder, sampler) == dense

    @pytest.mark.parametrize("sampler", ["mjhmc", "hmc"])
    def test_vanishing_exit_probability_falls_back(self, sampler):
        # a 2000-unit step underflows the uphill L probability of rung 19 to
        # exactly 0 in both chains, and nothing overflows on the way
        ladder = cliff_ladder()
        with np.errstate(over="raise", invalid="raise"):
            alpha, delta = _exit_probabilities(ladder, sampler)
            certified = certified_ring_gap(ladder, sampler)
            dense = spectral_gap(ladder_chain(ladder, sampler))
            gap = ladder_spectral_gap(ladder, sampler)
        assert alpha[19] == 0.0
        assert certified is None
        assert np.isfinite(dense)
        assert gap == dense

    def test_under_resolved_mesh_fails_the_certificate(self, monkeypatch):
        # the k=201 circle needs refined mesh points: forbid refinement and
        # the count must be refused, not guessed
        ladder = experiment_draws(201, 1)[0]
        ring = _RingTransfer(*_exit_probabilities(ladder, "hmc"))
        gap, radius = ring.certify(_NEAR_MINUS_ONE, _NEAR_PLUS_ONE)
        assert gap is not None and ring.roots_outside(radius) == 2
        monkeypatch.setattr(ladder_module, "_MESH_PASSES", 0)
        assert ring.roots_outside(radius) is None

    def test_gaps_do_not_depend_on_blas_threads(self):
        script = (
            "import numpy as np\n"
            "from jumphmc.ladder import Ladder, certified_ring_gap\n"
            "for k in (65, 129, 201):\n"
            "    ladder = Ladder(np.random.default_rng(k).standard_normal(k))\n"
            "    print(repr(certified_ring_gap(ladder, 'mjhmc')), repr(certified_ring_gap(ladder, 'hmc')))\n"
        )
        src = str(Path(ladder_module.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, check=True)
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].split()) == 6 and "None" not in outputs[0]

    def test_experiment_draws_the_same_ladders(self):
        # the per-draw random streams are those of the dense experiment
        res = random_ladder_experiment(sizes=[9, 65], draws_per_size=3, seed=404)
        for i, k in enumerate((9, 65)):
            ladders = experiment_draws(k, 3, sizes=(9, 65))
            for sampler, mean in (("mjhmc", res.mjhmc_mean[i]), ("hmc", res.hmc_mean[i])):
                dense = np.mean([spectral_gap(ladder_chain(lad, sampler)) for lad in ladders])
                assert mean == pytest.approx(dense, abs=1e-12)


class TestSimilarity:
    def test_random_ladders_share_spectra(self):
        for seed in range(10):
            rates = build_mjhmc_rate_matrix(random_ladder(int(7 + seed), seed))
            assert similarity_check(rates) <= 1e-8

    def test_flat_ladder_transform_is_identity(self):
        rates = build_mjhmc_rate_matrix(Ladder(np.zeros(5)))
        d = holding_time_diag(rates)
        np.testing.assert_allclose(d, 1.0)
        assert similarity_check(rates) <= 1e-12

    def test_small_explicit_ladder(self):
        # 3 rungs -> 6x6 matrices, small enough to verify both routes directly
        rates = build_mjhmc_rate_matrix(Ladder(np.array([0.0, LN2, -LN2])))
        t_hat = embedded_chain(rates)
        d = holding_time_diag(rates)
        t_scaled = np.diag(d) @ t_hat @ np.diag(1.0 / d)
        spec_a = np.linalg.eigvals(t_hat)
        spec_b = np.linalg.eigvals(t_scaled)
        assert spectral_distance(spec_a, spec_b) <= 1e-10


@pytest.mark.parametrize("check", [similarity_check,
                                   lambda rates: embedded_fixed_point_check(rates, random_ladder(9, 4))])
def test_check_splits_the_rate_matrix_once(monkeypatch, check):
    # one split gives both the embedded chain and the holding times, with the
    # floats of embedded_chain and holding_time_diag
    rates = build_mjhmc_rate_matrix(random_ladder(9, 4))
    expected = check(rates)
    calls = []
    split = ladder_module._split_offdiag
    monkeypatch.setattr(ladder_module, "_split_offdiag", lambda r: calls.append(1) or split(r))
    assert check(rates) == expected
    assert len(calls) == 1


def test_checks_keep_the_floats_of_the_two_helpers():
    for seed in range(4):
        ladder = random_ladder(9 + 4 * seed, seed)
        rates = build_mjhmc_rate_matrix(ladder)
        t_hat, d = embedded_chain(rates), holding_time_diag(rates)
        t_scaled = (d[:, None] * t_hat) / d[None, :]
        assert similarity_check(rates) == spectral_distance(np.linalg.eigvals(t_hat),
                                                            np.linalg.eigvals(t_scaled))
        p_hat = ladder_stationary(ladder) / d
        assert embedded_fixed_point_check(rates, ladder) == float(
            np.max(np.abs(t_hat @ p_hat - p_hat)) / p_hat.max())


class TestBalance:
    def test_flat_ladder_balances_exactly(self):
        ladder = Ladder(np.zeros(6))
        assert balance_check(build_mjhmc_rate_matrix(ladder), ladder) == 0.0

    def test_random_ladder_residual_is_noise(self):
        ladder = random_ladder(64, 7)
        assert balance_check(build_mjhmc_rate_matrix(ladder), ladder) <= 1e-10

    def test_perturbed_rate_is_detected(self):
        # the check has teeth: a 1e-3 fault in one rate shows up loudly
        ladder = Ladder(np.zeros(6))
        rates = build_mjhmc_rate_matrix(ladder)
        rates[1, 0] += 1e-3
        np.fill_diagonal(rates, 0.0)
        np.fill_diagonal(rates, -rates.sum(axis=0))
        assert balance_check(rates, ladder) > 1e-4

    def test_stationary_weights_both_sides_equally(self):
        ladder = random_ladder(9, 8)
        pi = ladder_stationary(ladder)
        np.testing.assert_array_equal(pi[:9], pi[9:])


class TestEmbeddedFixedPoint:
    def test_flat_ladder(self):
        ladder = Ladder(np.zeros(4))
        assert embedded_fixed_point_check(build_mjhmc_rate_matrix(ladder), ladder) <= 1e-15

    def test_random_ladders(self):
        for seed in range(8):
            ladder = random_ladder(int(5 + 3 * seed), seed)
            rates = build_mjhmc_rate_matrix(ladder)
            assert embedded_fixed_point_check(rates, ladder) <= 1e-10

    def test_fault_injection_detected(self):
        ladder = Ladder(np.zeros(6))
        rates = build_mjhmc_rate_matrix(ladder)
        rates[7, 0] += 1e-3  # spurious flip rate
        np.fill_diagonal(rates, 0.0)
        np.fill_diagonal(rates, -rates.sum(axis=0))
        assert embedded_fixed_point_check(rates, ladder) > 1e-5


class TestExperiment:
    def test_deterministic_under_seed(self):
        a = random_ladder_experiment(sizes=[5, 9], draws_per_size=8, seed=3)
        b = random_ladder_experiment(sizes=[5, 9], draws_per_size=8, seed=3)
        np.testing.assert_array_equal(a.mjhmc_mean, b.mjhmc_mean)
        np.testing.assert_array_equal(a.hmc_mean, b.hmc_mean)

    def test_rows_long_format(self):
        res = random_ladder_experiment(sizes=[5], draws_per_size=4, seed=0)
        rows = list(res.rows())
        assert len(rows) == 2
        assert rows[0][:2] == (5, "mjhmc")
        assert rows[1][:2] == (5, "hmc")

    def test_jump_sampler_mixes_faster_at_moderate_size(self):
        res = random_ladder_experiment(sizes=[65], draws_per_size=40, seed=1)
        assert res.mjhmc_mean[0] > res.hmc_mean[0]

    def test_size_validation(self):
        with pytest.raises(ValueError):
            random_ladder_experiment(sizes=[2], draws_per_size=1)
        with pytest.raises(ValueError):
            random_ladder_experiment(sizes=[5], draws_per_size=0)

    @pytest.mark.parametrize("sizes, draws, message", [
        ([5.9], 1, r"^sizes\[0\] must be an integer$"),  # not truncated to k=5
        ([], 1, "at least one"),  # not an empty result
        ([5], 2.5, "^draws_per_size must be an integer$"),  # not a TypeError from SeedSequence.spawn
        ([5], True, "^draws_per_size must be an integer, not a bool$"),  # not one draw
        ([True, 5], 1, r"^sizes\[0\] must be an integer, not a bool$"),  # not a ladder of 1 rung
        ([5, np.True_], 1, r"^sizes\[1\] must be an integer$"),
        ([5, 2], 1, r"^sizes\[1\] must be at least 3$"),
    ], ids=["sizes0-1-integers", "sizes1-1-at least one", "sizes2-2.5-integers",
            "sizes3-True-integers", "sizes4-1-integers", "sizes5-1-integers", "sizes6-1-at least 3"])
    def test_malformed_input_is_refused(self, sizes, draws, message):
        with pytest.raises(ValueError, match=message):
            random_ladder_experiment(sizes=sizes, draws_per_size=draws)


class TestExperimentWorkers:
    """The (size, draw) tasks give the same bits in any number of processes."""

    @staticmethod
    def run(use_cpus, cpus, **kwargs):
        use_cpus(cpus)
        return random_ladder_experiment(**kwargs)

    def test_worker_count(self, use_cpus, forks):
        use_cpus(3)
        random_ladder_experiment(sizes=[5, RING_GAP_MIN_K - 1], draws_per_size=3)
        assert forks == []  # dense only: serial
        random_ladder_experiment(sizes=[5, RING_GAP_MIN_K], draws_per_size=1)
        assert len(forks) == 1  # one size reaches the ring: one process per task
        random_ladder_experiment(sizes=[RING_GAP_MIN_K], draws_per_size=5)
        assert len(forks) == 1 + 2  # one process per CPU

    def test_results_are_identical_at_1_2_and_3_workers(self, use_cpus):
        runs = [self.run(use_cpus, cpus, sizes=[5, 33, 65, 129], draws_per_size=3, seed=404)
                for cpus in (1, 2, 3)]
        for other in runs[1:]:
            for field in ("mjhmc_mean", "mjhmc_stderr", "hmc_mean", "hmc_stderr"):
                np.testing.assert_array_equal(getattr(other, field), getattr(runs[0], field))

    def test_cli_csv_is_identical_at_1_and_2_workers(self, use_cpus, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"sizes": [33, 65], "draws_per_size": 3, "seed": 404}')
        outputs = []
        for cpus in (1, 2):
            use_cpus(cpus)
            out = tmp_path / f"gaps{cpus}.csv"
            assert main(["spectral-gap", str(cfg), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_no_worker_is_left_after_a_return(self, use_cpus, assert_no_child_process):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.run(use_cpus, 2, sizes=[65], draws_per_size=4, seed=1)
        assert_no_child_process()  # unlike multiprocessing.active_children, sees bare forks
        # closed by the experiment, not left running to the garbage collector
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_a_worker_error_reaches_the_caller(self, monkeypatch, use_cpus, in_workers):
        def fail(ladder, sampler):
            raise DegenerateLadderError(f"raised in process {os.getpid()}")

        # the caller runs tasks too, and its own error would win half the time
        monkeypatch.setattr(ladder_module, "ladder_spectral_gap",
                            in_workers(fail, here=lambda ladder, sampler: 0.5))
        with pytest.raises(DegenerateLadderError, match="raised in process") as caught:
            self.run(use_cpus, 2, sizes=[65], draws_per_size=4, seed=1)
        assert str(caught.value) != f"raised in process {os.getpid()}"  # it came from a worker


class TestMinExponentialOracle:
    def test_symmetric_pair(self):
        rng = np.random.default_rng(0)
        n = 100_000
        freqs = min_exponential_oracle([1.0, 1.0], n, rng)
        sigma = np.sqrt(0.25 / n)
        np.testing.assert_array_less(np.abs(freqs - 0.5), 3 * sigma)

    def test_one_three_pair(self):
        rng = np.random.default_rng(1)
        n = 100_000
        freqs = min_exponential_oracle([1.0, 3.0], n, rng)
        expected = np.array([0.25, 0.75])
        sigma = np.sqrt(expected * (1 - expected) / n)
        np.testing.assert_array_less(np.abs(freqs - expected), 3 * sigma)

    def test_three_way_race_rejects_pairwise_product(self):
        # the product of pairwise win probabilities is NOT the three-way win
        # probability: the pairwise events share the winning clock and are
        # dependent. The simulation matches the rate-share answer instead.
        rng = np.random.default_rng(2)
        n = 1_000_000
        rates = np.array([1.0, 2.0, 3.0])
        freqs = min_exponential_oracle(rates, n, rng)
        rate_share = rates / rates.sum()  # (1/6, 1/3, 1/2)
        product_form = np.array(
            [
                np.prod([r / (r + other) for other in rates[rates != r]])
                for r in rates
            ]
        )  # (1/12, 4/15, 9/20)
        sigma = np.sqrt(rate_share * (1 - rate_share) / n)
        np.testing.assert_array_less(np.abs(freqs - rate_share), 3 * sigma)
        assert np.all(np.abs(freqs - product_form) > 10 * sigma)

    def test_fault_is_the_pairwise_product(self):
        # worst_race_deviation's fault swaps the rate shares for the product
        # form: the same shares for two clocks, refuted for three
        def worst(fault, *rates):
            return worst_race_deviation([np.array(rates)], 100_000, np.random.default_rng(3), fault)

        assert worst(True, 1.0, 3.0) == pytest.approx(worst(False, 1.0, 3.0))
        assert worst(False, 1.0, 2.0, 3.0) < 4.0
        assert worst(True, 1.0, 2.0, 3.0) > 50.0

    def test_input_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            min_exponential_oracle([1.0], 10, rng)
        with pytest.raises(ValueError):
            min_exponential_oracle([1.0, 0.0], 10, rng)
