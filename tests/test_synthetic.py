import numpy as np
import pytest

from mswavenet.data import WIND_SPEED
from mswavenet.synthetic import (
    RecoveryScore,
    SyntheticSpec,
    SyntheticSpecError,
    adjacency_recovery_score,
    chain_adjacency,
    cycle_adjacency,
    generate,
    oracle_forecast,
)


def wind_matrix(series):
    return np.stack([s.features[:, WIND_SPEED] for s in series], axis=1)


class TestSpecValidation:
    def test_default_is_cycle(self):
        spec = SyntheticSpec(num_nodes=4)
        np.testing.assert_array_equal(spec.true_adjacency, cycle_adjacency(4))

    def test_rows_must_be_stochastic(self):
        bad = np.full((3, 3), 0.5)
        with pytest.raises(SyntheticSpecError, match="sum to 1"):
            SyntheticSpec(num_nodes=3, true_adjacency=bad)

    def test_ar_coefficient_stability(self):
        with pytest.raises(SyntheticSpecError):
            SyntheticSpec(ar_coefficient=1.0)

    def test_adjacency_builders_row_stochastic(self):
        cycles = [cycle_adjacency(n) for n in range(1, 7)]  # one node is its own predecessor
        for a in (*cycles, chain_adjacency(5), cycle_adjacency(2, 0.1)):
            np.testing.assert_allclose(a.sum(axis=1), 1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_nodes", 0),
            ("num_nodes", True),
            ("num_nodes", 1025),
            ("length", 0),
            ("length", 2.5),
            ("seed", -1),
            ("ar_coefficient", float("nan")),
            ("ar_coefficient", 2.0),
            ("noise_std", float("nan")),
            ("noise_std", -1.0),
            ("shift", float("inf")),
            ("shift", "10"),
            ("graph", "star"),
        ],
    )
    def test_every_field_checked(self, field, value):
        with pytest.raises(SyntheticSpecError) as exc:
            SyntheticSpec(**{field: value})
        assert exc.value.key == field

    def test_graph_names_the_default_adjacency(self):
        spec = SyntheticSpec(num_nodes=4, graph="chain")
        np.testing.assert_array_equal(spec.true_adjacency, chain_adjacency(4))


class TestGenerate:
    def test_shapes_and_channels(self):
        spec = SyntheticSpec(num_nodes=3, length=50, seed=1)
        series = generate(spec)
        assert len(series) == 3
        for s in series:
            assert s.features.shape == (50, 4)
            assert len(s.timestamps) == 50
        # temperature channel is the one-hour lagged wind speed
        w = wind_matrix(series)
        np.testing.assert_array_equal(series[0].features[1:, 0], w[:-1, 0])
        # pressure channel is the cross-node mean of the wind speed
        np.testing.assert_allclose(series[1].features[:, 1], w.mean(axis=1))
        # direction channel is valid for ingestion
        d = series[2].features[:, 3]
        assert np.all((d >= 0.0) & (d < 360.0))

    def test_seed_determinism(self):
        a = wind_matrix(generate(SyntheticSpec(length=100, seed=7)))
        b = wind_matrix(generate(SyntheticSpec(length=100, seed=7)))
        np.testing.assert_array_equal(a, b)
        c = wind_matrix(generate(SyntheticSpec(length=100, seed=8)))
        assert not np.array_equal(a, c)

    def test_noiseless_identity_coupling_decays_geometrically(self):
        # A = I, sigma = 0: x_t = rho^t * x_0 exactly
        spec = SyntheticSpec(
            num_nodes=3,
            true_adjacency=np.eye(3),
            ar_coefficient=0.9,
            noise_std=0.0,
            length=20,
            seed=0,
        )
        x = wind_matrix(generate(spec)) - spec.shift
        for t in range(20):
            np.testing.assert_allclose(x[t], (0.9**t) * x[0], atol=1e-12)

    def test_noise_variance_matches_spec(self):
        # with A = I and rho tiny, x_t ~= eps_t, so Var(x) ~= sigma^2
        spec = SyntheticSpec(
            num_nodes=2,
            true_adjacency=np.eye(2),
            ar_coefficient=0.01,
            noise_std=0.5,
            length=100_000,
            seed=3,
        )
        x = wind_matrix(generate(spec)) - spec.shift
        assert np.var(x[1:]) == pytest.approx(0.25, rel=0.05)


class TestOracleForecast:
    def test_zero_horizon_identity(self):
        spec = SyntheticSpec(num_nodes=3, seed=0)
        now = np.array([9.0, 11.0, 10.5])
        np.testing.assert_allclose(oracle_forecast(spec, now, 0), now)

    def test_noiseless_oracle_is_exact(self):
        spec = SyntheticSpec(num_nodes=4, noise_std=0.0, length=60, seed=2)
        x = wind_matrix(generate(spec))
        horizon = 5
        for t in range(0, 50, 10):
            np.testing.assert_allclose(
                oracle_forecast(spec, x[t], horizon), x[t + horizon], atol=1e-10
            )

    def test_one_step_error_is_noise_floor(self):
        spec = SyntheticSpec(num_nodes=3, noise_std=0.3, length=50_000, seed=4)
        x = wind_matrix(generate(spec))
        pred = (oracle_forecast(spec, x[:-1].T, 1)).T
        mse = float(((pred - x[1:]) ** 2).mean())
        assert mse == pytest.approx(0.09, rel=0.05)


class TestRecoveryScore:
    def test_perfect_recovery(self):
        a = cycle_adjacency(5, 0.3)
        r = adjacency_recovery_score(a, a)
        assert r == RecoveryScore(score=1.0, degenerate=False)

    def test_diagonal_ignored(self):
        true = cycle_adjacency(4, 0.1)
        learned = cycle_adjacency(4, 0.9)  # huge self-weight, same neighbors
        assert adjacency_recovery_score(learned, true).score == 1.0

    def test_reversed_cycle_scores_zero(self):
        n = 5
        true = cycle_adjacency(n, 0.3)
        reversed_cycle = true.T / true.T.sum(axis=1, keepdims=True)
        assert adjacency_recovery_score(reversed_cycle, true).score == 0.0

    def test_partial_score(self):
        true = cycle_adjacency(4, 0.2)
        learned = true.copy()
        learned[0] = [0.1, 0.1, 0.7, 0.1]  # row 0 points at the wrong node
        assert adjacency_recovery_score(learned, true).score == pytest.approx(0.75)

    def test_uniform_learned_is_degenerate(self):
        true = cycle_adjacency(3, 0.2)
        r = adjacency_recovery_score(np.full((3, 3), 1 / 3), true)
        assert r.degenerate

    def test_shape_mismatch(self):
        with pytest.raises(SyntheticSpecError):
            adjacency_recovery_score(np.eye(3), np.eye(4))
