import numpy as np
import pytest

from gaa import autodiff as ad
from gaa.exceptions import ConfigError, ShapeError
from gaa.losses import (
    LossWeights,
    alignment_loss,
    domain_bce,
    source_ce,
    target_entropy,
    total_loss,
)

from helpers import loop_domain_bce, loop_source_ce, loop_target_entropy


def rand_probs(rng, n, c):
    raw = rng.random((n, c)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


class TestSourceCe:
    def test_perfect_one_hot_is_zero_up_to_clamp(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss = source_ce(ad.constant(probs), np.array([0, 1]))
        assert loss.item() <= 1e-11

    def test_uniform_is_log_c(self):
        probs = np.full((4, 3), 1 / 3)
        loss = source_ce(ad.constant(probs), np.array([0, 1, 2, 0]))
        assert loss.item() == pytest.approx(np.log(3), abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        probs = rand_probs(rng, 7, 4)
        labels = rng.integers(0, 4, size=7)
        loss = source_ce(ad.constant(probs), labels)
        assert loss.item() == pytest.approx(loop_source_ce(probs, labels), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            source_ce(ad.constant(np.full((2, 2), 0.5)), np.array([0, 2]))

    def test_strictly_decreases_as_mass_moves_to_true_label(self):
        prev = None
        for p in np.linspace(0.1, 0.9, 9):
            probs = np.array([[p, 1 - p]])
            loss = source_ce(ad.constant(probs), np.array([0])).item()
            if prev is not None:
                assert loss < prev
            prev = loss


class TestAlignment:
    """L_A on the four pooled 1 x e attention rows."""

    def test_identical_tensors_give_zero(self):
        rng = np.random.default_rng(1)
        a = ad.constant(rng.normal(size=(1, 3)))
        b = ad.constant(rng.normal(size=(1, 3)))
        assert alignment_loss(a, a, b, b).item() == 0.0

    def test_matches_mean_distance_oracle(self):
        rng = np.random.default_rng(2)
        a_s, a_t, f_s, f_t = (rng.normal(size=(1, 4)) for _ in range(4))
        got = alignment_loss(*[ad.constant(x) for x in (a_s, a_t, f_s, f_t)]).item()
        want = ((a_s - a_t) ** 2).sum() + ((f_s - f_t) ** 2).sum()
        assert got == pytest.approx(want, abs=1e-12)

    def test_symmetric_in_domain_swap(self):
        rng = np.random.default_rng(3)
        a_s, a_t, f_s, f_t = (rng.normal(size=(1, 3)) for _ in range(4))
        fwd = alignment_loss(*[ad.constant(x) for x in (a_s, a_t, f_s, f_t)]).item()
        rev = alignment_loss(*[ad.constant(x) for x in (a_t, a_s, f_t, f_s)]).item()
        assert fwd == pytest.approx(rev, abs=1e-12)

    def test_column_mismatch(self):
        with pytest.raises(ShapeError):
            alignment_loss(ad.constant(np.zeros((1, 3))), ad.constant(np.zeros((1, 2))),
                           ad.constant(np.zeros((1, 3))), ad.constant(np.zeros((1, 3))))

    def test_node_rows_are_a_shape_error(self):
        rows = [ad.constant(np.zeros((1, 3))) for _ in range(3)]
        with pytest.raises(ShapeError, match=r"1 x e rows"):
            alignment_loss(ad.constant(np.zeros((4, 3))), *rows)
        with pytest.raises(ShapeError, match=r"1 x e rows"):
            alignment_loss(*[ad.constant(np.zeros((4, 3))) for _ in range(4)])


class TestDomainBce:
    def test_perfect_discrimination_near_zero(self):
        loss = domain_bce(ad.constant(np.ones((3, 1))), ad.constant(np.zeros((3, 1))))
        assert loss.item() <= 1e-11

    def test_half_everywhere_is_ln2(self):
        loss = domain_bce(ad.constant(np.full((4, 1), 0.5)), ad.constant(np.full((2, 1), 0.5)))
        assert loss.item() == pytest.approx(np.log(2), abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        p_s = rng.uniform(0.01, 0.99, size=(6, 1))
        p_t = rng.uniform(0.01, 0.99, size=(9, 1))
        got = domain_bce(ad.constant(p_s), ad.constant(p_t)).item()
        assert got == pytest.approx(loop_domain_bce(p_s, p_t), abs=1e-12)


class TestTargetEntropy:
    def test_one_hot_rows_zero(self):
        probs = np.eye(3)
        assert target_entropy(ad.constant(probs)).item() <= 1e-10

    def test_uniform_rows_log_c(self):
        probs = np.full((5, 4), 0.25)
        assert target_entropy(ad.constant(probs)).item() == pytest.approx(np.log(4), abs=1e-12)

    def test_two_class_reference_value(self):
        loss = target_entropy(ad.constant(np.array([[0.9, 0.1]])))
        assert loss.item() == pytest.approx(0.3251, abs=5e-5)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        probs = rand_probs(rng, 8, 3)
        got = target_entropy(ad.constant(probs)).item()
        assert got == pytest.approx(loop_target_entropy(probs), abs=1e-12)

    def test_bounded_by_log_c(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            probs = rand_probs(rng, 5, 4)
            v = target_entropy(ad.constant(probs)).item()
            assert -1e-9 <= v <= np.log(4) + 1e-9


class TestTotalLoss:
    def scalars(self, *values):
        return [ad.constant([[v]]) for v in values]

    def test_zero_weights_leave_alignment_alone(self):
        l_a, l_s, l_d, l_t = self.scalars(2.5, 1.0, 1.0, 1.0)
        w = LossWeights(alpha=0, beta=0, tau=0)
        assert total_loss(l_a, l_s, l_d, l_t, w).item() == 2.5

    def test_reference_arithmetic(self):
        terms = self.scalars(1.0, 1.0, 1.0, 1.0)
        w = LossWeights(alpha=0.5, beta=0.1, tau=0.01)
        assert total_loss(*terms, w).item() == pytest.approx(1.61, abs=1e-12)

    def test_linear_in_each_weight(self):
        rng = np.random.default_rng(7)
        vals = rng.uniform(0.5, 2.0, size=4)
        for name in ("alpha", "beta", "tau"):
            lo = LossWeights(**{name: 0.3})
            hi = LossWeights(**{name: 0.7})
            base = {"alpha": lo.alpha, "beta": lo.beta, "tau": lo.tau}
            base[name] = 0.3
            f_lo = total_loss(*self.scalars(*vals), LossWeights(**base)).item()
            base[name] = 0.7
            f_hi = total_loss(*self.scalars(*vals), LossWeights(**base)).item()
            slope = (f_hi - f_lo) / 0.4
            term = {"alpha": vals[1], "beta": vals[2], "tau": vals[3]}[name]
            assert slope == pytest.approx(term, abs=1e-9)

    def test_weights_validated(self):
        # a bad weight is a config problem (CLI exit 1), not a math-domain one
        with pytest.raises(ConfigError):
            LossWeights(alpha=-0.1)
        with pytest.raises(ConfigError):
            LossWeights(tau=float("nan"))

    def test_all_losses_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            probs = rand_probs(rng, 6, 3)
            labels = rng.integers(0, 3, size=6)
            p_s = rng.uniform(0.01, 0.99, size=(4, 1))
            p_t = rng.uniform(0.01, 0.99, size=(5, 1))
            assert source_ce(ad.constant(probs), labels).item() >= 0
            assert domain_bce(ad.constant(p_s), ad.constant(p_t)).item() >= 0
            assert target_entropy(ad.constant(probs)).item() >= 0
