"""Online EM on decayed statistics: batch equivalence and alignment."""

import numpy as np
import pytest

from repro.core.em import em_step, merge_plan, merge_similar_components
from repro.core.gaussian_mixture import GaussianMixture
from repro.core.gm_regularizer import GMRegularizer
from repro.core.hyperparams import GMHyperParams
from repro.core.lazy import LazyUpdateSchedule
from repro.online import DecayedGMRegularizer


def fixed_weights(n=80, seed=7):
    return np.random.default_rng(seed).normal(0.0, 0.1, size=n)


def hyper(reg):
    return dict(alpha=reg._alpha, a=reg._a, b=reg._b)


class TestOnlineEMStep:
    """One decayed M-step at a time: ``DecayedGMRegularizer.upt_gm_param``."""

    def test_stationary_fixed_point_matches_batch_em(self):
        """Same fixed point as batch EM on a stationary weight vector."""
        w = fixed_weights()
        reg = GMRegularizer(w.size)
        h = hyper(reg)

        batch = reg.mixture
        for _ in range(200):
            batch = em_step(
                batch, w, h["alpha"][: batch.n_components], h["a"], h["b"]
            )

        online = DecayedGMRegularizer(w.size, rho=0.8)
        for _ in range(500):
            online.upt_gm_param(w)

        assert online.mixture.n_components == batch.n_components
        np.testing.assert_allclose(online.mixture.pi, batch.pi, atol=1e-3)
        np.testing.assert_allclose(
            online.mixture.lam, batch.lam, rtol=1e-3
        )

    def test_first_update_seeds_statistics(self):
        """The first observation becomes the summary (no zero-decay bias)."""
        w = fixed_weights()
        reg = DecayedGMRegularizer(
            w.size, rho=0.9, prune_components=False, merge_components=False
        )
        resp = reg.mixture.responsibilities(w)
        expected_s0 = resp.sum(axis=0)
        expected_s1 = resp.T @ (w * w)

        reg.upt_gm_param(w)
        state = reg.em_state()
        np.testing.assert_allclose(state.resp_sum, expected_s0)
        np.testing.assert_allclose(state.weighted_sq, expected_s1)
        assert state.mstep_count == 1

    def test_second_update_blends_with_rho(self):
        w = fixed_weights()
        reg = DecayedGMRegularizer(
            w.size, rho=0.5, prune_components=False, merge_components=False
        )
        reg.upt_gm_param(w)
        s1 = reg.em_state()
        fresh = reg.mixture.responsibilities(w).sum(axis=0)
        reg.upt_gm_param(w)
        s2 = reg.em_state()
        np.testing.assert_allclose(
            s2.resp_sum, 0.5 * s1.resp_sum + 0.5 * fresh
        )
        assert s2.mstep_count == 2

    @pytest.mark.parametrize("rho", [0.0, 1.0, -0.1, 1.5])
    def test_rho_out_of_range_rejected(self, rho):
        with pytest.raises(ValueError, match="rho"):
            DecayedGMRegularizer(8, rho=rho)

    def test_statistics_stay_aligned_while_k_collapses(self):
        """Stats rows track the mixture through pruning and merging."""
        w = fixed_weights()
        reg = DecayedGMRegularizer(w.size, rho=0.8)
        k0 = reg.mixture.n_components
        for _ in range(300):
            reg.upt_gm_param(w)
            state = reg.em_state()
            k = reg.mixture.n_components
            assert state.resp_sum.shape == (k,)
            assert state.weighted_sq.shape == (k,)
            assert np.all(np.isfinite(state.pi))
            assert np.all(np.isfinite(state.lam))
        assert reg.mixture.n_components < k0


class TestMergeUnderOnlinePath:
    """`merge_similar_components` semantics on the streaming side."""

    def test_duplicate_precisions_merge_and_sum_statistics(self):
        w = fixed_weights(40)
        reg = DecayedGMRegularizer(w.size, rho=0.9)
        reg.mixture = GaussianMixture(
            pi=np.array([0.5, 0.5]), lam=np.array([25.0, 25.0])
        )
        reg.upt_gm_param(w)
        state = reg.em_state()
        assert reg.mixture.n_components == 1
        # With identical precisions each row's responsibilities are
        # 0.5/0.5, so the merged (summed) mass is the full sample count.
        np.testing.assert_allclose(state.resp_sum, [float(w.size)])
        assert np.isfinite(state.weighted_sq).all()

    def test_duplicate_precision_merge_matches_batch_helper(self):
        pi = np.array([0.3, 0.3, 0.4])
        lam = np.array([10.0, 10.0, 500.0])
        merged_pi, merged_lam = merge_similar_components(pi, lam)
        assert merged_pi.shape == (2,)
        np.testing.assert_allclose(merged_pi, [0.6, 0.4])
        np.testing.assert_allclose(merged_lam, [10.0, 500.0])

    def test_near_zero_mixing_weight_does_not_nan(self):
        """A vanishing component neither NaNs the merge nor the E-step."""
        pi = np.array([1e-12, 1.0 - 1e-12])
        lam = np.array([10.0, 10.0])
        merged_pi, merged_lam = merge_similar_components(pi, lam)
        assert np.isfinite(merged_pi).all()
        assert np.isfinite(merged_lam).all()
        np.testing.assert_allclose(merged_pi.sum(), 1.0)

        mixture = GaussianMixture(pi=pi, lam=np.array([10.0, 400.0]))
        resp = mixture.responsibilities(fixed_weights(30))
        assert np.isfinite(resp).all()
        np.testing.assert_allclose(resp.sum(axis=1), 1.0)

    def test_merge_plan_groups_match_applied_merge(self):
        pi = np.array([0.25, 0.25, 0.25, 0.25])
        lam = np.array([10.0, 10.1, 300.0, 301.0])
        groups = merge_plan(pi, lam, rel_tol=0.02)
        assert sorted(sorted(g) for g in groups) == [[0, 1], [2, 3]]

    def test_k_stable_once_collapsed(self):
        """After convergence, further online steps keep K fixed."""
        w = fixed_weights()
        reg = DecayedGMRegularizer(w.size, rho=0.8)
        for _ in range(400):
            reg.upt_gm_param(w)
        k = reg.mixture.n_components
        for _ in range(50):
            reg.upt_gm_param(w)
            assert reg.mixture.n_components == k
            resp = reg.mixture.responsibilities(w)
            assert np.isfinite(resp).all()


class TestDecayedGMRegularizer:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="rho"):
            DecayedGMRegularizer(8, rho=1.0)
        with pytest.raises(ValueError, match="warmup_steps"):
            DecayedGMRegularizer(8, warmup_steps=-1)
        with pytest.raises(ValueError, match="eager_epochs"):
            DecayedGMRegularizer(
                8,
                warmup_steps=5,
                schedule=LazyUpdateSchedule(
                    model_interval=4, gm_interval=4, eager_epochs=0
                ),
            )

    def test_warmup_steps_are_eager_then_lazy_intervals_apply(self):
        """Every warm-up step refreshes; afterwards only Im/Ig ticks do."""
        reg = DecayedGMRegularizer(
            16,
            rho=0.9,
            warmup_steps=3,
            schedule=LazyUpdateSchedule(
                model_interval=4, gm_interval=4, eager_epochs=1
            ),
        )
        w = fixed_weights(16)
        mstep_counts = []
        for it in range(8):
            reg.prepare(w, it)
            reg.update(w, it)
            mstep_counts.append(reg._n_mstep)
        # Steps 0-2 (warm-up) each ran the M-step; steps 3, 5, 6, 7
        # reused the stale mixture; step 4 hit the Ig=4 interval.
        assert mstep_counts == [1, 2, 3, 3, 4, 4, 4, 4]

    def test_zero_warmup_is_lazy_from_the_start(self):
        reg = DecayedGMRegularizer(
            16,
            warmup_steps=0,
            schedule=LazyUpdateSchedule(
                model_interval=5, gm_interval=5, eager_epochs=1
            ),
        )
        w = fixed_weights(16)
        for it in range(4):
            reg.prepare(w, it)
            reg.update(w, it)
        # Only iteration 0 (0 % 5 == 0) ran the M-step.
        assert reg._n_mstep == 1

    def test_em_state_roundtrip_carries_decayed_statistics(self):
        w = fixed_weights(24)
        reg = DecayedGMRegularizer(24, rho=0.8, warmup_steps=2)
        for it in range(5):
            reg.prepare(w, it)
            reg.update(w, it)
        snapshot = reg.em_state()
        assert snapshot.resp_sum is not None
        assert snapshot.mstep_count == reg.mstep_count

        resumed = DecayedGMRegularizer(24, rho=0.8, warmup_steps=2)
        resumed.load_em_state(snapshot)
        np.testing.assert_allclose(resumed.mixture.pi, reg.mixture.pi)
        np.testing.assert_allclose(resumed.mixture.lam, reg.mixture.lam)
        np.testing.assert_allclose(resumed._resp_sum, reg._resp_sum)
        np.testing.assert_allclose(resumed._weighted_sq, reg._weighted_sq)

        # The resumed stream continues identically.
        reg.upt_gm_param(w)
        resumed.upt_gm_param(w)
        np.testing.assert_allclose(resumed.mixture.pi, reg.mixture.pi)
        np.testing.assert_allclose(resumed.mixture.lam, reg.mixture.lam)


@pytest.mark.parametrize("cls", [GMRegularizer, DecayedGMRegularizer])
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("bad", [np.inf, 1e200])
def test_nonfinite_weight_fails_the_step(cls, k, bad):
    """An inf weight, or one whose square overflows, fails the step at
    every K, batch and online.

    The E-step's reference row is ``exp(-0 * w^2)``, NaN where ``w^2``
    is inf, and that NaN fails the M-step's mixture validation.  A
    reference row filled with 1 would let K = 1 clamp lambda and go on.
    """
    reg = cls(64, hyperparams=GMHyperParams(n_components=k))
    w = fixed_weights(64)
    w[5] = bad
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ValueError, match="positive and finite"
    ):
        reg.prepare(w, 0)
        reg.gradient(w)
        reg.update(w, 0)
