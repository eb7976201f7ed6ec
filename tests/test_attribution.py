"""Exact Shapley attribution against enumeration oracles."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from crisishedge import months as mo
from crisishedge import attribution
from crisishedge.attribution import (
    ImportanceSummary,
    attribute_window,
    bootstrap_stability,
    importance_summary,
    stability_kendall,
)
from crisishedge.config import load_episode
from crisishedge.errors import DataError, DegenerateSampleError, NumericalError
from crisishedge.pipeline import run_pipeline
from crisishedge.qreg import (
    DesignMatrix,
    FitCertificates,
    QuantileModel,
    fit_quantile,
    predict,
    require_varying,
)

from oracles import (
    interaction_values,
    interaction_values_brute_force,
    kendall_oracle,
    shapley_brute_force,
    shapley_values,
    summary_oracle,
    window_phi,
)


def linear_model(betas, gammas=None, intercept=0.0, columns=None) -> QuantileModel:
    columns = tuple(columns or betas)
    gammas = dict(gammas or {})
    return QuantileModel(
        tau=0.5,
        coef=[intercept, *(betas[c] for c in columns), *gammas.values()],
        objective_value=0.0,
        columns=columns,
        interaction_pairs=tuple(gammas),
    )


def random_problem(rng, m=8, n_pairs=5):
    columns = tuple(f"c{j}" for j in range(m))
    betas = {c: float(rng.normal()) for c in columns}
    all_pairs = [
        (columns[i], columns[j]) for i in range(m) for j in range(i + 1, m)
    ]
    chosen = rng.choice(len(all_pairs), size=n_pairs, replace=False)
    gammas = {all_pairs[int(i)]: float(rng.normal()) for i in chosen}
    model = linear_model(betas, gammas, intercept=float(rng.normal()), columns=columns)
    mu = {c: float(rng.normal()) for c in columns}
    x = {c: float(rng.normal()) for c in columns}
    return model, mu, x


class TestShapleyClosedForm:
    def test_instance_at_baseline_gives_null_attribution(self):
        model = linear_model({"a": 1.3, "b": -0.4}, {("a", "b"): 0.9}, intercept=2.0)
        mu = {"a": 0.7, "b": -1.1}
        result = shapley_values(model, mu, dict(mu))
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in result.phi.values())
        assert result.prediction == pytest.approx(result.phi0)

    def test_single_linear_feature(self):
        model = linear_model({"a": 2.0})
        result = shapley_values(model, {"a": 1.0}, {"a": 3.0})
        assert result.phi["a"] == pytest.approx(4.0, abs=1e-12)

    def test_pure_interaction_splits_evenly(self):
        model = linear_model({"a": 0.0, "b": 0.0}, {("a", "b"): 1.0})
        result = shapley_values(model, {"a": 0.0, "b": 0.0}, {"a": 1.0, "b": 1.0})
        assert result.phi["a"] == pytest.approx(0.5, abs=1e-12)
        assert result.phi["b"] == pytest.approx(0.5, abs=1e-12)
        assert result.prediction == pytest.approx(1.0, abs=1e-12)

    def test_efficiency_identity(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            model, mu, x = random_problem(rng, m=6, n_pairs=3)
            result = shapley_values(model, mu, x)
            full = model.intercept + sum(model.betas[c] * x[c] for c in model.columns)
            full += sum(g * x[a] * x[b] for (a, b), g in model.gammas.items())
            assert result.prediction == pytest.approx(full, abs=1e-10)

    def test_symmetric_features_get_equal_phi(self):
        model = linear_model({"a": 1.5, "b": 1.5}, {("a", "b"): 0.8})
        mu = {"a": 0.3, "b": 0.3}
        result = shapley_values(model, mu, {"a": 2.0, "b": 2.0})
        assert result.phi["a"] == pytest.approx(result.phi["b"], abs=1e-12)

    def test_inert_feature_gets_exact_zero(self):
        model = linear_model({"a": 1.0, "dead": 0.0})
        result = shapley_values(
            model, {"a": 0.0, "dead": 5.0}, {"a": 1.0, "dead": -3.0}
        )
        assert result.phi["dead"] == 0.0

    def test_missing_background_mean_raises(self):
        model = linear_model({"a": 1.0, "b": 1.0})
        with pytest.raises(DataError, match="b"):
            shapley_values(model, {"a": 0.0}, {"a": 1.0, "b": 1.0})

    def test_missing_instance_column_raises(self):
        model = linear_model({"a": 1.0, "b": 1.0})
        with pytest.raises(DataError):
            shapley_values(model, {"a": 0.0, "b": 0.0}, {"a": 1.0})


class TestBruteForceCertification:
    def test_matches_closed_form_on_random_problems(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            model, mu, x = random_problem(rng, m=8, n_pairs=5)
            exact = shapley_values(model, mu, x)
            brute = shapley_brute_force(model, mu, x)
            assert exact.phi0 == pytest.approx(brute.phi0, abs=1e-10)
            for col in model.columns:
                assert exact.phi[col] == pytest.approx(brute.phi[col], abs=1e-10)

    def test_empty_model_attributes_nothing(self):
        model = linear_model({}, intercept=1.5, columns=())
        brute = shapley_brute_force(model, {}, {})
        assert brute.phi == {}
        assert brute.phi0 == pytest.approx(1.5)

    def test_single_feature_full_marginal(self):
        model = linear_model({"a": 2.0}, intercept=1.0)
        brute = shapley_brute_force(model, {"a": 1.0}, {"a": 4.0})
        assert brute.phi["a"] == pytest.approx(2.0 * (4.0 - 1.0), abs=1e-12)

    def test_enumeration_limit(self):
        columns = tuple(f"c{j}" for j in range(13))
        model = linear_model({c: 1.0 for c in columns})
        point = {c: 0.0 for c in columns}
        with pytest.raises(ValueError):
            shapley_brute_force(model, point, point)


class TestInteractionValues:
    def test_no_interactions_empty(self):
        model = linear_model({"a": 1.0, "b": 2.0})
        assert interaction_values(model, {"a": 0.0, "b": 0.0}, {"a": 1.0, "b": 1.0}) == {}

    def test_product_model_unit_interaction(self):
        model = linear_model({"a": 0.0, "b": 0.0}, {("a", "b"): 1.0})
        out = interaction_values(model, {"a": 0.0, "b": 0.0}, {"a": 1.0, "b": 1.0})
        assert out[("a", "b")] == pytest.approx(1.0, abs=1e-12)

    def test_baseline_instance_zero(self):
        model = linear_model({"a": 1.0, "b": 1.0}, {("a", "b"): 2.5})
        mu = {"a": 0.4, "b": -0.2}
        out = interaction_values(model, mu, dict(mu))
        assert out[("a", "b")] == pytest.approx(0.0, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            model, mu, x = random_problem(rng, m=6, n_pairs=3)
            closed = interaction_values(model, mu, x)
            brute = interaction_values_brute_force(model, mu, x)
            assert set(closed) == set(brute)
            for pair in closed:
                assert closed[pair] == pytest.approx(brute[pair], abs=1e-10)

    def test_interaction_enumeration_limit(self):
        columns = tuple(f"c{j}" for j in range(11))
        model = linear_model(
            {c: 0.0 for c in columns}, {(columns[0], columns[1]): 1.0}
        )
        point = {c: 0.0 for c in columns}
        with pytest.raises(ValueError):
            interaction_values_brute_force(model, point, point)


def make_design(values, target, columns, start="2016-01", **kwargs) -> DesignMatrix:
    values = np.asarray(values, dtype=float)
    months = tuple(mo.month_range(start, mo.shift_month(start, values.shape[0] - 1)))
    return DesignMatrix(
        months=months,
        columns=tuple(columns),
        values=values,
        target=np.asarray(target, dtype=float),
        **kwargs,
    )


class TestAttributeWindow:
    def fitted(self, seed=63, n=40):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        y = 0.2 + 2.0 * a - 0.5 * b + rng.normal(0, 0.3, n)
        X = make_design(np.column_stack([a, b]), y, ("a", "b"))
        return fit_quantile(X, 0.5), X

    def test_predictions_reproduced_for_every_row(self):
        model, X = self.fitted()
        window = attribute_window(model, X)
        assert window.phi.shape == (len(model.columns), len(X))
        np.testing.assert_allclose(
            window.phi0 + window.phi.sum(axis=0), predict(model, X), atol=1e-10
        )
        assert window.months == X.months
        assert window.columns == model.columns

    def test_column_mismatch_raises(self):
        model, _ = self.fitted()
        rng = np.random.default_rng(64)
        other = make_design(rng.normal(size=(20, 2)), rng.normal(size=20), ("a", "z"))
        with pytest.raises(DataError):
            attribute_window(model, other)

    def test_interaction_design_consistent_with_predict(self):
        rng = np.random.default_rng(65)
        n = 50
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        y = 1.0 + a + b + 0.7 * a * b + rng.normal(0, 0.2, n)
        X = make_design(
            np.column_stack([a, b, a * b]),
            y,
            ("a", "b", "a*b"),
            interaction_pairs=(("a", "b"),),
        )
        model = fit_quantile(X, 0.5)
        window = attribute_window(model, X)
        np.testing.assert_allclose(
            window.phi0 + window.phi.sum(axis=0), predict(model, X), atol=1e-9
        )


@pytest.fixture(scope="module")
def clayton_window(fixture_root):
    """The clayton_coupled design and its fitted lower-tail model."""
    episode = load_episode(fixture_root / "clayton_coupled" / "episode.yaml")
    run = run_pipeline(episode, fast=True, write_outputs=False)
    return run.models[run.triplet.tau_low], run.design


class TestClaytonCoupledWindow:
    def test_rows_match_enumeration(self, clayton_window):
        model, X = clayton_window
        assert model.gammas, "the design should exercise the interaction split"
        linear = X.values[:, : X.n_linear]
        mu = dict(zip(model.columns, np.mean(linear, axis=0)))
        window = attribute_window(model, X)
        assert window.phi.shape == (len(model.columns), len(X))
        for i in range(0, len(X), 25):
            instance = dict(zip(model.columns, linear[i]))
            # the one-row call runs the same kernel and must agree exactly
            one = shapley_values(model, mu, instance, instance_month=X.months[i])
            assert one.phi0 == window.phi0
            assert list(one.phi.values()) == window.phi[:, i].tolist()
            brute = shapley_brute_force(model, mu, instance)
            assert window.phi0 == pytest.approx(brute.phi0, abs=1e-10)
            for j, col in enumerate(model.columns):
                assert window.phi[j, i] == pytest.approx(brute.phi[col], abs=1e-10)
            for pair, value in brute.phi_interactions.items():
                assert one.phi_interactions[pair] == pytest.approx(value, abs=1e-10)


class TestImportanceSummary:
    def test_single_column_is_everything(self):
        summary = importance_summary(("a",), np.array([[0.5]]))
        assert summary.shares == {"a": 100.0}
        assert summary.ranking == ("a",)

    def test_three_to_one_split(self):
        phi = np.array([[3.0, -3.0], [1.0, -1.0]])
        summary = importance_summary(("a", "b"), phi)
        assert summary.shares["a"] == pytest.approx(75.0, abs=1e-12)
        assert summary.shares["b"] == pytest.approx(25.0, abs=1e-12)
        assert summary.ranking == ("a", "b")

    def test_all_zero_attributions_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            importance_summary(("a", "b"), np.zeros((2, 1)))

    def test_shares_invariant_to_uniform_scaling(self):
        columns = ("a", "b", "c")
        s1 = importance_summary(columns, np.array([[1.2], [0.3], [0.9]]))
        s2 = importance_summary(columns, np.array([[6.0], [1.5], [4.5]]))
        assert s1.ranking == s2.ranking
        for col in s1.shares:
            assert s1.shares[col] == pytest.approx(s2.shares[col], abs=1e-9)

    def test_lexicographic_tie_break(self):
        summary = importance_summary(("b", "a"), np.ones((2, 1)))
        assert summary.ranking == ("a", "b")

    def test_mismatched_column_sets_rejected(self):
        with pytest.raises(DataError):
            importance_summary(("a", "b"), np.ones((1, 2)))
        with pytest.raises(DataError):
            importance_summary(("a",), np.ones(2))

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            importance_summary(("a",), np.empty((1, 0)))

    def test_summary_validation(self):
        with pytest.raises(ValueError):
            ImportanceSummary(ranking=("a",), shares={"a": 90.0})
        with pytest.raises(ValueError):
            ImportanceSummary(ranking=("b", "a"), shares={"a": 75.0, "b": 25.0})
        with pytest.raises(ValueError):
            ImportanceSummary(
                ranking=("a",), shares={"a": 100.0}, stability_kendall_tau=1.5
            )


class TestBatchedRankings:
    """Importance shares and rankings, one at a time and batched, against
    ``summary_oracle`` on the kernel's values."""

    COLUMNS = ("delta", "alpha", "echo", "bravo", "charlie", "foxtrot", "golf", "hotel", "india")
    PAIR = ("charlie", "foxtrot")
    COEF = (0.1, 0.7, 2.0, 2.0, 0.7, 1.1, 0.4, 0.6, -0.3, 0.2, 0.5)

    def replicate(self, seed, n=30, shift=0.0):
        """(n x 10) replicate values: nine linear columns, then the product term."""
        linear = np.random.default_rng(seed).normal(size=(n, 9))
        linear[:, 2] = linear[:, 1]  # echo repeats alpha: a tie at the top
        linear[:, 3] = linear[:, 0]  # bravo repeats delta: a tie further down
        linear[:, 0] += shift
        return np.column_stack([linear, linear[:, 4] * linear[:, 5]])

    def phi(self, coef, values):
        model = QuantileModel(
            tau=0.5, coef=coef, objective_value=0.0,
            columns=self.COLUMNS, interaction_pairs=(self.PAIR,),
        )
        linear = values[:, :9]
        return window_phi(model, linear, np.mean(linear, axis=0))

    def oracle(self, coef, values):
        try:
            return summary_oracle(self.COLUMNS, self.phi(coef, values))
        except DegenerateSampleError as exc:
            return exc

    def batched_phi(self, coefs, values):
        # As bootstrap_stability attributes one chunk of fitted replicates.
        linear = values[:, :, :9]
        _, phi = attribution._shapley_batch(coefs, linear, np.mean(linear, axis=1), [(4, 5)])
        return phi

    def chunk(self):
        rng = np.random.default_rng(90)
        coefs = [self.COEF, (0.3,) + (0.0,) * 10]  # the second attributes nothing
        coefs += [tuple(rng.normal(size=11)) for _ in range(13)]
        values = np.stack([self.replicate(7)] + [self.replicate(s) for s in range(91, 105)])
        return np.array(coefs), values

    def chunk_rankings(self, monkeypatch, coefs, values):
        """``_chunk_rankings`` on given replicate values and coefficients.

        The design only supplies varying targets and the column layout; the
        re-standardized values and the fit are replaced by the chunk's own.
        """
        n = values.shape[1]
        X = make_design(
            values[0], np.arange(n, dtype=float), self.COLUMNS + ("charlie*foxtrot",),
            interaction_pairs=(self.PAIR,),
        )
        monkeypatch.setattr(attribution, "restandardized_values", lambda X, s, r: values)
        monkeypatch.setattr(
            attribution, "solve_check_loss", lambda d, t, taus: (coefs[None], FitCertificates())
        )
        rows = np.tile(np.arange(n), (len(values), 1))
        orders, reasons, _ = attribution._chunk_rankings(X, 0.5, rows, [(4, 5)])
        return orders, reasons

    def test_chunk_matches_the_oracle_replicate_by_replicate(self, monkeypatch):
        coefs, values = self.chunk()
        expected = [self.oracle(c, v) for c, v in zip(coefs, values)]

        ranking, shares = expected[0]
        # echo ties alpha before the drift push and bravo ties delta, so the
        # push and the name tie-break both decide this replicate's ranking.
        assert shares["bravo"] == shares["delta"]
        assert shares["echo"] > shares["alpha"]
        assert ranking[:2] == ("echo", "alpha")
        assert isinstance(expected[1], DegenerateSampleError)

        orders, reasons = self.chunk_rankings(monkeypatch, coefs, values)
        assert orders.shape == (len(coefs), len(self.COLUMNS))
        assert reasons[1] == str(expected[1])
        assert reasons[:1] + reasons[2:] == [None] * (len(coefs) - 1)
        got = [tuple(self.COLUMNS[k] for k in order) for order in orders.tolist()]
        assert got[:1] + got[2:] == [e[0] for e in expected[:1] + expected[2:]]
        phi = self.batched_phi(coefs, values)
        shares, _, zero = attribution._shares(self.COLUMNS, phi)
        assert zero.tolist() == [b == 1 for b in range(len(coefs))]
        for b in np.flatnonzero(~zero):
            assert dict(zip(self.COLUMNS, shares[b].tolist())) == expected[b][1]

    def test_importance_summary_matches_the_oracle(self):
        coefs, values = self.chunk()
        for b, (coef, block) in enumerate(zip(coefs, values)):
            if b == 1:
                continue
            phi = self.phi(coef, block)
            ranking, shares = summary_oracle(self.COLUMNS, phi)
            # The same values laid out column-major: the shares must not
            # depend on the memory order of the attribution matrix.
            for layout in (phi, np.asfortranarray(phi)):
                summary = importance_summary(self.COLUMNS, layout)
                assert summary.ranking == ranking
                assert summary.shares == shares
        assert not np.asfortranarray(phi).flags.c_contiguous

    def test_drift_push_and_name_tie_break_decide_the_ranking(self):
        # Six equal shares sum to 100 + 1.4e-14: the push takes the residue
        # from the largest name, and the other five tie and rank by name.
        columns = ("b", "f", "a", "d", "c", "e")
        summary = importance_summary(columns, np.ones((6, 1)))
        assert summary.shares == summary_oracle(columns, np.ones((6, 1)))[1]
        assert summary.shares["f"] < summary.shares["a"] == summary.shares["e"]
        assert summary.ranking == ("a", "b", "c", "d", "e", "f")

    def test_broken_efficiency_identity_raises(self):
        # A column near 1e12 whose level the intercept cancels: the
        # efficiency identity cannot hold to 1e-9 in floating point.
        coef = np.array([self.COEF, self.COEF])
        coef[1, 0] = -1e12 * coef[1, 1]
        values = np.stack([self.replicate(7), self.replicate(1, shift=1e12)])
        with pytest.raises(NumericalError, match="efficiency violated"):
            self.oracle(coef[1], values[1])
        with pytest.raises(NumericalError, match="efficiency violated"):
            self.batched_phi(coef, values)


class TestStabilityKendall:
    def test_identical_rankings(self):
        assert stability_kendall(np.array([[0, 1, 2]] * 3)) == pytest.approx(1.0)

    def test_exactly_reversed_pair(self):
        assert stability_kendall(np.array([[0, 1, 2], [2, 1, 0]])) == pytest.approx(-1.0)

    def test_adjacent_swap_over_four_items(self):
        base = [0, 1, 2, 3]
        swapped = [0, 2, 1, 3]
        assert stability_kendall(np.array([base, swapped])) == pytest.approx(2.0 / 3.0)

    def test_matches_pairwise_average(self):
        rng = np.random.default_rng(66)
        items = 5
        rankings = np.array([rng.permutation(items) for _ in range(6)])
        taus = []
        for i in range(len(rankings)):
            for j in range(i + 1, len(rankings)):
                pos_i = {c: p for p, c in enumerate(rankings[i])}
                pos_j = {c: p for p, c in enumerate(rankings[j])}
                net = 0
                for a in range(items):
                    for b in range(a + 1, items):
                        s1 = pos_i[a] - pos_i[b]
                        s2 = pos_j[a] - pos_j[b]
                        net += 1 if s1 * s2 > 0 else -1
                taus.append(net / 10)
        assert stability_kendall(rankings) == pytest.approx(np.mean(taus), abs=1e-12)

    @pytest.mark.parametrize("m", [2, 12])
    @pytest.mark.parametrize("r", [2, 3, 1000])
    def test_equals_the_name_oracle_exactly(self, r, m):
        rng = np.random.default_rng(1000 * r + m)
        names = [f"c{k:02d}" for k in rng.permutation(m)]
        orders = np.array([rng.permutation(m) for _ in range(r)])
        if r > 3:
            # A run's rankings mostly agree: half the rows repeat the first.
            orders[r // 2:] = orders[0]
        rankings = [tuple(names[k] for k in row) for row in orders.tolist()]
        assert stability_kendall(orders) == kendall_oracle(rankings)

    def test_requires_two_rankings(self):
        with pytest.raises(DataError, match="at least 2 rankings"):
            stability_kendall(np.array([[0, 1]]))
        with pytest.raises(DataError, match="at least 2 rankings"):
            kendall_oracle([("a", "b")])

    def test_mismatched_sets_rejected(self):
        # A row that is not a permutation of the column indices.
        with pytest.raises(DataError, match="different column sets"):
            stability_kendall(np.array([[0, 1], [0, 0]]))
        with pytest.raises(DataError, match="different column sets"):
            stability_kendall(np.array([[0, 1], [1, 2]]))
        with pytest.raises(DataError, match="different column sets"):
            kendall_oracle([("a", "b"), ("a", "c")])


class TestBootstrapStability:
    def structured_design(self, n=48, seed=67):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        y = 4.0 * a + 0.1 * b + rng.normal(0, 0.2, n)
        return make_design(np.column_stack([a, b]), y, ("a", "b"))

    def crowded_design(self, n=48, seed=68):
        """Four comparable drivers plus one interaction: rankings churn."""
        rng = np.random.default_rng(seed)
        Z = rng.normal(size=(n, 4))
        y = Z @ np.array([1.0, 0.9, 0.8, 0.7]) + 0.6 * Z[:, 0] * Z[:, 1]
        y = y + rng.normal(0, 0.5, n)
        return make_design(
            np.column_stack([Z, Z[:, 0] * Z[:, 1]]),
            y,
            ("a", "b", "c", "d", "a*b"),
            interaction_pairs=(("a", "b"),),
        )

    def test_deterministic_for_fixed_seed(self):
        X = self.structured_design()
        s1 = bootstrap_stability(X, 0.5, replications=12, seed=9)
        s2 = bootstrap_stability(X, 0.5, replications=12, seed=9)
        assert s1 == s2
        assert s1.kendall_tau == 1.0
        assert (s1.skipped, s1.replications) == (0, 12)

    def test_pinned_values(self):
        # Exact floats; the per-row oracle (refit, Shapley and ranking one
        # replicate at a time on the same rows) gives the same values.
        X = self.crowded_design()
        assert bootstrap_stability(X, 0.5, replications=12, seed=9).kendall_tau == (
            0.2828282828282828
        )
        assert bootstrap_stability(X, 0.25, replications=12, seed=9).kendall_tau == (
            0.12626262626262627
        )
        # The shares pin the Shapley kernel, so they are taken from the fit
        # they were first recorded with (a HiGHS vertex); the live fit is the
        # same optimum and must agree with it to 1e-8.
        model = linear_model(
            {
                "a": 1.0975887438996998,
                "b": 0.8402385647045748,
                "c": 0.8882513014255603,
                "d": 0.676168642628497,
            },
            {("a", "b"): 0.6475330484327275},
            intercept=-0.16133845013296233,
        )
        fitted = fit_quantile(X, 0.25)
        assert fitted.intercept == pytest.approx(model.intercept, abs=1e-8)
        for col in model.columns:
            assert fitted.betas[col] == pytest.approx(model.betas[col], abs=1e-8)
        assert fitted.gammas[("a", "b")] == pytest.approx(
            model.gammas[("a", "b")], abs=1e-8
        )
        summary = importance_summary(model.columns, attribute_window(model, X).phi)
        assert summary.ranking == ("b", "a", "c", "d")
        assert summary.shares == {
            "a": 26.213017899710152,
            "b": 29.12267136956263,
            "c": 23.995493642806803,
            "d": 20.668817087920413,
        }

    def test_skipped_replicates_are_counted(self, monkeypatch):
        X = self.structured_design()

        def flaky_check(target):
            # Decided by the replicate's own rows.
            if target[0] < -1.0:
                raise DegenerateSampleError("forced")
            require_varying(target)

        monkeypatch.setattr(attribution, "require_varying", flaky_check)
        result = bootstrap_stability(X, 0.5, replications=12, seed=9)
        assert (result.skipped, result.replications) == (8, 12)
        assert result.kendall_tau == 1.0
        assert len(result.certificates) == 4

    def test_skip_warnings_logged_by_parent_in_replicate_order(self, monkeypatch, caplog):
        X = self.structured_design()

        def flaky_check(target):
            if target[0] < -1.0:
                raise DegenerateSampleError(f"first target {target[0]:.3f}")
            require_varying(target)

        monkeypatch.setattr(attribution, "require_varying", flaky_check)
        with caplog.at_level(logging.WARNING, logger="crisishedge.attribution"):
            bootstrap_stability(X, 0.5, replications=12, seed=9)
        assert caplog.messages == [
            "stability replicate skipped: first target -2.510",
            "stability replicate skipped: first target -2.510",
            "stability replicate skipped: first target -1.608",
            "stability replicate skipped: first target -2.510",
            "stability replicate skipped: first target -2.510",
            "stability replicate skipped: first target -2.510",
            "stability replicate skipped: first target -2.582",
            "stability replicate skipped: first target -2.510",
        ]

    def test_too_few_usable_replicates(self, monkeypatch):
        def failing_check(target):
            raise DegenerateSampleError("forced")

        monkeypatch.setattr(attribution, "require_varying", failing_check)
        with pytest.raises(DegenerateSampleError, match="too few usable"):
            bootstrap_stability(self.structured_design(), 0.5, replications=4, seed=9)

    def test_strong_signal_is_stable(self):
        X = self.structured_design()
        s = bootstrap_stability(X, 0.5, replications=16, seed=10)
        assert s.kendall_tau > 0.9

    def test_replication_floor(self):
        X = self.structured_design()
        with pytest.raises(ValueError):
            bootstrap_stability(X, 0.5, replications=1, seed=11)
