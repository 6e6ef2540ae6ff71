import numpy as np
import pytest

from depthlab.boolfn import BooleanFn, enumerate_signs, inner_product, or_parity_fn, parity_family
from depthlab.dists import uniform_signs
from depthlab.sq import (
    AdversarialOracle,
    HonestNoisyOracle,
    QueryBudgetError,
    adversarial_game,
    certify_from_gram,
    certify_sqdim,
    correlation_count_check,
    correlation_weak_learner,
    f_family_gram,
    hoeffding_zset,
    make_correlation_learner,
    make_correlation_query,
    make_majority_learner,
    make_random_query_learner,
)


@pytest.fixture(scope="module")
def parity10():
    return parity_family(10), uniform_signs(10)


class TestOracles:
    def test_honest_answers_within_tolerance(self, parity10):
        family, dist = parity10
        target = family[77]
        oracle = HonestNoisyOracle(target, dist, tau=0.05, seed=3)
        for j in (0, 77, 400, 1023):
            q = make_correlation_query(family[j])
            v = oracle.query(q)
            truth = oracle.true_expectation(q)
            assert abs(v - truth) <= 0.05
        assert oracle.queries_used == 4

    def test_budget_exhaustion(self, parity10):
        family, dist = parity10
        oracle = HonestNoisyOracle(family[1], dist, tau=0.1, seed=0, budget=2)
        q = make_correlation_query(family[1])
        oracle.query(q)
        oracle.query(q)
        with pytest.raises(QueryBudgetError):
            oracle.query(q)

    def test_out_of_range_query_rejected(self, parity10):
        family, dist = parity10
        oracle = HonestNoisyOracle(family[0], dist, tau=0.1, seed=0)
        with pytest.raises(ValueError):
            oracle.query(lambda X, y: 2.0 * y)

    def test_adversarial_answer_is_label_agnostic_mean(self, parity10):
        family, dist = parity10
        oracle = AdversarialOracle(family[:64], dist, tau=0.5)
        # q(x, y) = x_1 ignores the label: C_g must equal E[x_1] = 0
        v = oracle.query(lambda X, y: X[:, 0])
        assert v == 0.0
        # independent enumeration of C_g for a label-dependent query
        v2 = oracle.query(lambda X, y: y * X[:, 0])
        assert v2 == 0.0

    def test_tau_floor_for_adversary(self, parity10):
        family, dist = parity10
        with pytest.raises(ValueError):
            AdversarialOracle(family, dist, tau=1e-4)


class TestCertificates:
    @pytest.mark.parametrize("n", [4, 8, 10])
    def test_all_parities_certify_with_zero_gram(self, n):
        fam = parity_family(n)
        cert = certify_sqdim(fam, uniform_signs(n))
        assert cert.passed
        assert cert.max_abs_inner == 0.0
        assert cert.size == 2**n

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [12, 14])
    def test_all_parities_certify_large(self, n):
        fam = parity_family(n)
        cert = certify_sqdim(fam, uniform_signs(n))
        assert cert.passed and cert.max_abs_inner == 0.0

    def test_duplicate_family_fails(self):
        fam = parity_family(4)
        cert = certify_sqdim([fam[3], fam[3]], uniform_signs(4))
        assert not cert.passed
        assert cert.max_abs_inner == 1.0

    def test_f_family_gram_matches_enumeration(self):
        n = 4
        zs = enumerate_signs(n)[[1, 6, 11, 14]]
        G = f_family_gram(zs)
        dist = uniform_signs(2 * n)
        for i in range(4):
            for j in range(4):
                ip = abs(inner_product(or_parity_fn(zs[i], n), or_parity_fn(zs[j], n), dist))
                assert G[i, j] == ip

    def test_hoeffding_certificate_at_n48(self):
        Z = hoeffding_zset(48, 16, seed=0)
        cert = certify_from_gram(f_family_gram(Z))
        assert cert.passed
        assert cert.max_abs_inner <= 2.0**-12


class TestHoeffdingZset:
    def test_pairwise_hamming_floor(self):
        Z = hoeffding_zset(48, 16, seed=5)
        H = (48 - Z.astype(np.int64) @ Z.T.astype(np.int64)) // 2
        np.fill_diagonal(H, 48)
        assert H.min() >= 12

    def test_single_vector_always_succeeds(self):
        assert hoeffding_zset(24, 1, seed=0).shape == (1, 24)

    def test_deterministic(self):
        assert np.array_equal(hoeffding_zset(48, 16, seed=9), hoeffding_zset(48, 16, seed=9))

    def test_oversized_request_rejected(self):
        with pytest.raises(ValueError):
            hoeffding_zset(24, 5, seed=0)  # 2^(24/12) = 4


class TestWeakLearner:
    def test_recovers_planted_parity(self, parity10):
        family, dist = parity10
        target = family[0b1000]  # the single-coordinate parity on bit 3
        oracle = HonestNoisyOracle(target, dist, tau=1e-3, seed=1)
        got = correlation_weak_learner(oracle, family)
        assert np.array_equal(got.table, target.table)
        assert oracle.queries_used == len(family)

    def test_family_of_one(self, parity10):
        family, dist = parity10
        oracle = HonestNoisyOracle(family[9], dist, tau=0.5, seed=0)
        got = correlation_weak_learner(oracle, [family[4]])
        assert got is family[4]

    def test_orthogonal_target_answers_stay_small(self):
        n = 8
        dist = uniform_signs(n)
        family = parity_family(n)
        target = family[255]
        others = [f for i, f in enumerate(family) if i != 255][:64]
        tau = 1e-3
        oracle = HonestNoisyOracle(target, dist, tau=tau, seed=2)
        got = correlation_weak_learner(oracle, others)
        for answer in oracle.log:
            assert abs(answer) <= tau  # truth is 0 for every member
        loss = float(np.dot(dist.weights,
                            np.maximum(0.0, 1.0 - target(dist.points) * got(dist.points))))
        assert loss >= 1.0 - 2 * tau


class TestAdversarialGame:
    def test_loss_floor_small_family(self):
        n = 9
        dist = uniform_signs(n)
        family = parity_family(n)
        d = len(family)
        floor = 1.0 - 2.0 / np.sqrt(d)
        for seed in range(10):
            learner = make_random_query_learner(family, seed)
            res = adversarial_game(family, learner, budget=1, tau=d ** (-1 / 3), dist=dist)
            assert res.loss >= floor
            assert all(c <= 4 * d ** (2 / 3) for c in res.inconsistent_counts)

    def test_budget_zero_trivial_floor(self):
        n = 9
        dist = uniform_signs(n)
        family = parity_family(n)
        learner = make_correlation_learner(family)
        res = adversarial_game(family, learner, budget=0, tau=0.5, dist=dist)
        assert res.loss >= 1.0 - 2.0 / np.sqrt(len(family))
        assert res.inconsistent_counts == []

    def test_never_asserts_across_seeds(self):
        # the consistent low-correlation member always exists
        n = 9
        dist = uniform_signs(n)
        family = parity_family(n)
        for seed in range(50):
            learner = make_random_query_learner(family, seed)
            adversarial_game(family, learner, budget=1, tau=0.5, dist=dist)
        for seed in range(6):
            for name, learner in [
                ("corr", make_correlation_learner(family)),
                ("rand", make_random_query_learner(family, seed)),
                ("maj", make_majority_learner()),
            ]:
                adversarial_game(family, learner, budget=1, tau=0.5, dist=dist)


class TestCorrelationCountCheck:
    def test_orthogonal_family_bound(self):
        # 100 orthogonal members: count <= 2/(0.25 - 0.01) -> at most 8
        n = 7
        dist = uniform_signs(n)
        family = parity_family(n)[:100]
        cert = certify_sqdim(family, dist)
        h = family[0](dist.points)
        count = correlation_count_check(family, h, tau=0.5, dist=dist, certificate=cert)
        assert 1 <= count <= 8

    def test_self_correlation_counts(self):
        n = 6
        dist = uniform_signs(n)
        family = parity_family(n)[:32]
        cert = certify_sqdim(family, dist)
        count = correlation_count_check(family, family[0](dist.points), tau=0.9,
                                        dist=dist, certificate=cert)
        assert count >= 1

    def test_random_h_respects_bound(self, rng, parity10):
        family, dist = parity10
        cert = certify_sqdim(family, dist)
        d = len(family)
        for _ in range(20):
            h = rng.uniform(-1.0, 1.0, size=dist.n_points)
            count = correlation_count_check(family, h, tau=0.2, dist=dist,
                                            certificate=cert)
            assert count <= 2.0 / (0.04 - 1.0 / d)

    def test_tau_precondition(self, parity10):
        family, dist = parity10
        with pytest.raises(ValueError):
            correlation_count_check(family, np.zeros(dist.n_points), tau=0.01,
                                    dist=dist)
