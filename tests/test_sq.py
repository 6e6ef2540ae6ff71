import numpy as np
import pytest

from depthlab.boolfn import (
    BooleanFn,
    ParityFamily,
    enumerate_signs,
    inner_product,
    or_parity_fn,
    parity_family,
)
from depthlab.dists import induced_pair, uniform_signs
from depthlab.kernel import FeatureMap, min_hinge_family, verify_linear_hardness
from depthlab.sq import (
    AdversarialOracle,
    HonestNoisyOracle,
    QueryBudgetError,
    SqOracle,
    adversarial_game,
    certify_from_gram,
    certify_sqdim,
    correlation_count_check,
    correlation_weak_learner,
    f_family_gram,
    hoeffding_zset,
    min_hamming,
    make_correlation_learner,
    make_majority_learner,
    make_random_query_learner,
)


@pytest.fixture(scope="module")
def parity10():
    return parity_family(10), uniform_signs(10)


class TestOracles:
    def test_honest_answers_within_tolerance(self, parity10):
        family, dist = parity10
        target = BooleanFn(10, family[77])
        oracle = HonestNoisyOracle(target, tau=0.05, seed=3)
        labels = target.table
        weights = np.full(dist.n_points, 1.0 / dist.n_points)
        for j in (0, 77, 400, 1023):
            (v,) = oracle.query(family[j])
            truth = np.dot(weights, labels * family[j])
            assert abs(v - truth) <= 0.05
        assert len(oracle.log) == 4

    def test_budget_exhaustion(self, parity10):
        family, dist = parity10
        oracle = HonestNoisyOracle(BooleanFn(10, family[1]), tau=0.1, seed=0, budget=2)
        q = family[1]
        oracle.query(q)
        oracle.query(q)
        with pytest.raises(QueryBudgetError):
            oracle.query(q)

    def test_out_of_range_query_rejected(self, parity10):
        family, dist = parity10
        oracle = HonestNoisyOracle(BooleanFn(10, family[0]), tau=0.1, seed=0)
        with pytest.raises(ValueError):
            oracle.query(np.full(dist.n_points, 2.0))  # q = 2y

    def test_adversarial_answer_is_label_agnostic_mean(self, parity10):
        family, dist = parity10
        oracle = AdversarialOracle(family[:64], tau=0.5)
        x1 = dist.points[:, 0]
        # q(x, y) = x_1 ignores the label: C_g must equal E[x_1] = 0
        assert oracle.query(np.zeros(dist.n_points), x1).tolist() == [0.0]
        # independent enumeration of C_g for a label-dependent query y * x_1
        assert oracle.query(x1).tolist() == [0.0]

    def test_tau_floor_for_adversary(self, parity10):
        family, dist = parity10
        with pytest.raises(ValueError):
            AdversarialOracle(family, tau=1e-4)


class TestCorrelationBlocks:
    """A block of k correlation rows against k one-row queries."""

    @pytest.mark.parametrize("make", [
        lambda fam: HonestNoisyOracle(BooleanFn(10, fam[77]), tau=0.05, seed=3),
        lambda fam: AdversarialOracle(fam, tau=0.5),
    ])
    def test_block_equals_sequential_queries(self, parity10, make):
        family, dist = parity10
        members = family[[0, 77, 5, 1023, 77, 640]]
        block, seq = make(family), make(family)
        seq.query(np.ones(dist.n_points))  # q = y first, on both
        block.query(np.ones(dist.n_points))
        answers = block.query(members)
        expected = [float(seq.query(f)[0]) for f in members]
        assert answers.tolist() == expected
        assert block.log == seq.log
        assert all(type(a) is float for a in block.log)
        if isinstance(block, AdversarialOracle):
            assert len(block.weighted_gbars) == len(seq.weighted_gbars) == 7
            for a, b in zip(block.weighted_gbars, seq.weighted_gbars):
                assert np.array_equal(a, b)

    def test_overrunning_block_is_refused_whole(self, parity10):
        family, dist = parity10
        oracle = HonestNoisyOracle(BooleanFn(10, family[1]), tau=0.1, seed=0, budget=3)
        oracle.query(family[:2])
        log = list(oracle.log)
        with pytest.raises(QueryBudgetError):
            oracle.query(family[2:4])
        assert oracle.log == log
        oracle.query(family[2:3])
        assert oracle.remaining_queries == 0

    def test_block_range_and_width_checked(self, parity10):
        family, dist = parity10
        oracle = HonestNoisyOracle(BooleanFn(10, family[1]), tau=0.1, seed=0)
        with pytest.raises(ValueError):
            oracle.query(np.full((2, dist.n_points), 1.5))
        with pytest.raises(ValueError):
            oracle.query(np.ones((2, dist.n_points - 1)))
        with pytest.raises(ValueError):
            oracle.query(np.ones((2, dist.n_points)), np.zeros((1, dist.n_points)))
        assert oracle.log == []


class TestParityFamilyQueries:
    """The parity family is asked as one correlation block, never as a matrix."""

    def test_answers_match_the_dense_table(self, parity10, monkeypatch):
        family, dist = parity10
        target = BooleanFn(10, family[77])
        dense = HonestNoisyOracle(target, tau=0.1, seed=3).query(family[:])

        def refuse(*args, **kwargs):
            raise AssertionError("the parity family was materialized")

        fast_oracle = HonestNoisyOracle(target, tau=0.1, seed=3)
        with monkeypatch.context() as patch:
            # np.asarray's sequence fallback reads rows through __getitem__ too
            patch.setattr(ParityFamily, "__getitem__", refuse)
            fast = fast_oracle.query(family)
        assert fast.tobytes() == dense.tobytes()
        assert len(fast_oracle.log) == len(family)
        assert np.array_equal(correlation_weak_learner(
            HonestNoisyOracle(target, tau=0.1, seed=4), family).table, family[77])

    def test_budget_counts_every_member(self, parity10):
        family, dist = parity10
        oracle = HonestNoisyOracle(BooleanFn(10, family[1]), tau=0.1, seed=0,
                                   budget=len(family) - 1)
        with pytest.raises(QueryBudgetError):
            oracle.query(family)
        assert len(oracle.log) == 0

    def test_family_of_another_width_refused(self, parity10):
        family, dist = parity10
        oracle = HonestNoisyOracle(BooleanFn(10, family[1]), tau=0.1, seed=0)
        with pytest.raises(ValueError):
            oracle.query(parity_family(9))


class TestPinnedAnswers:
    """Both oracles' answer bits on one query sequence, pinned from the same
    queries asked as callables q(X, y) when queries were callables."""

    HONEST = ["0x1.00320d4f8f2a4p-4", "0x1.56bf36f2bc99ap-3", "0x1.5a4d597e502bep-3",
              "-0x1.19634950aa578p-3", "-0x1.99426b378e458p-4", "0x1.7e84cb5d23e88p-3",
              "-0x1.fa9bbb6459796p-3", "0x1.48f01a3dffc80p-3", "0x1.3032f7e486986p-3",
              "-0x1.06ad471c30790p-6", "-0x1.9363bc2977e14p-4", "-0x1.02e46576a232cp-3"]
    ADVERSARY = ["0x0.0p+0", "-0x1.0000000000000p-5"] + ["0x0.0p+0"] * 9 + [
        "0x1.0000000000000p-6"]

    def test_answer_bits_pinned(self):
        n = 6
        family = parity_family(n)
        m = family.shape[1]
        r_even, r_odd, r1, r2 = np.random.default_rng(5).integers(0, 2, size=(4, m)) * 2.0 - 1.0
        honest = HonestNoisyOracle(BooleanFn(n, family[13]), tau=0.25, seed=7)
        adversary = AdversarialOracle(family, tau=0.5)
        for oracle in (honest, adversary):
            oracle.query(np.ones(m))  # q = y
            oracle.query(np.zeros(m), r_even)  # q = r_even(x)
            oracle.query(r_odd)  # q = y * r_odd(x)
            oracle.query(family[:8])  # eight member correlations in one block
            oracle.query(0.5 * r2, 0.5 * r1)  # q = (r1(x) + y * r2(x)) / 2
            with pytest.raises(ValueError):  # each part is in range, q = 1.2 at y = 1 is not
                oracle.query(np.full(m, 0.6), np.full(m, 0.6))
        assert [v.hex() for v in honest.log] == self.HONEST
        assert [v.hex() for v in adversary.log] == self.ADVERSARY
        odd = np.vstack([np.ones(m), np.zeros(m), r_odd, family[:8], 0.5 * r2])
        weights = np.full(m, 1.0 / m)
        assert [g.tobytes() for g in adversary.weighted_gbars] == [
            (weights * g).tobytes() for g in odd]


class TestFamilySupport:
    """A family is its own support: its table columns are the points, and
    rows over any other number of points are refused."""

    def test_family_off_its_enumeration_refused(self, parity10):
        family, _ = parity10
        narrow = np.zeros(2**9)  # a hypothesis over 512 points, not the family's 1024
        with pytest.raises(ValueError):
            correlation_count_check(family, narrow, tau=0.5, certificate=certify_sqdim(family))
        with pytest.raises(ValueError):
            adversarial_game(family, lambda oracle: narrow, budget=0, tau=0.5)
        oracle = AdversarialOracle(family, tau=0.5)
        with pytest.raises(ValueError):
            oracle.query(narrow)
        assert oracle.log == []

    def test_honest_oracle_off_its_enumeration_refused(self):
        # a 6-bit target's 64 table columns are the support: 16-point rows
        # and a family of 3-bit parities are no queries on it
        oracle = HonestNoisyOracle(BooleanFn(6, parity_family(6)[5]), tau=0.5, seed=0)
        with pytest.raises(ValueError):
            oracle.query(np.ones(16))
        with pytest.raises(ValueError):
            oracle.query(parity_family(3))
        assert oracle.log == []

    def test_kernel_family_off_its_enumeration_refused(self, parity10):
        family, _ = parity10
        # the feature table refuses a support that is not its enumeration
        pairs = induced_pair(8, enumerate_signs(8)[:4])
        psi = FeatureMap(np.ascontiguousarray(family[:4].T, dtype=np.float64))
        with pytest.raises(ValueError):
            min_hinge_family(psi, 1.0, family[:8], pairs, iters=1)
        with pytest.raises(ValueError):
            verify_linear_hardness(psi, 1.0, family[:8], pairs, iters=1)
        # a family of 2^10 columns against features on 2^9 points fails its product
        narrow = FeatureMap(np.ascontiguousarray(parity_family(9)[:4].T, dtype=np.float64))
        for fam in (family, family[:8]):
            with pytest.raises(ValueError):
                min_hinge_family(narrow, 1.0, fam, uniform_signs(9), iters=1)


class TestCertificates:
    @pytest.mark.parametrize("n", [4, 8, 10])
    def test_all_parities_certify_with_zero_gram(self, n):
        fam = parity_family(n)
        cert = certify_sqdim(fam)
        assert cert.passed
        assert cert.max_abs_inner == 0.0
        assert cert.size == 2**n

    @pytest.mark.slow
    @pytest.mark.parametrize("n", [12, 14])
    def test_all_parities_certify_large(self, n):
        fam = parity_family(n)
        cert = certify_sqdim(fam)
        assert cert.passed and cert.max_abs_inner == 0.0

    @pytest.mark.parametrize("n", range(1, 11))
    def test_parity_gram_matches_the_explicit_table(self, n):
        # F[:] is an explicit table, so its gram takes the blocked matmul
        fam = parity_family(n)
        assert certify_sqdim(fam) == certify_sqdim(fam[:])

    @staticmethod
    def _dense_off_diagonal_max(T, n):
        gram = (T.astype(np.float64) @ T.T.astype(np.float64)) * 2.0**-n
        np.fill_diagonal(gram, 0.0)
        return float(np.abs(gram).max())

    def test_random_table_gram_matches_the_dense_matmul(self):
        n = 9
        T = (np.random.default_rng(909).integers(0, 2, size=(300, 2**n)) * 2 - 1).astype(np.int8)
        cert = certify_sqdim(T)
        assert cert.size == 300 and not cert.passed
        assert cert.max_abs_inner == self._dense_off_diagonal_max(T, n)

    def test_parity_table_with_a_repeated_row_fails(self):
        n = 8
        T = parity_family(n)[:]
        T[200] = T[17]
        cert = certify_sqdim(T)
        assert not cert.passed
        assert cert.max_abs_inner == self._dense_off_diagonal_max(T, n) == 1.0

    def test_duplicate_family_fails(self):
        fam = parity_family(4)
        cert = certify_sqdim(fam[[3, 3]])
        assert not cert.passed
        assert cert.max_abs_inner == 1.0

    def test_f_family_gram_matches_enumeration(self):
        n = 4
        zs = enumerate_signs(n)[[1, 6, 11, 14]]
        G = f_family_gram(zs)
        for i in range(4):
            for j in range(4):
                ip = abs(inner_product(or_parity_fn(zs[i], n), or_parity_fn(zs[j], n)))
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
        # the first draw, bit for bit: one row's least distance is n >= n/4
        assert hoeffding_zset(24, 1, seed=0).tolist() == [
            [1, 1, 1, -1, -1, -1, -1, -1, -1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, -1, 1, 1, -1]]

    def test_min_hamming(self):
        assert min_hamming(np.ones((1, 7), dtype=np.int8)) == 7
        Z = np.array([[1, 1, -1, 1], [1, -1, -1, -1], [-1, -1, 1, -1]], dtype=np.int8)
        assert min_hamming(Z) == 2

    def test_deterministic(self):
        assert np.array_equal(hoeffding_zset(48, 16, seed=9), hoeffding_zset(48, 16, seed=9))

    def test_oversized_request_rejected(self):
        with pytest.raises(ValueError):
            hoeffding_zset(24, 5, seed=0)  # 2^(24/12) = 4

    def test_huge_n_does_not_overflow(self):
        # 2^(20000/12) is beyond float64; the admissibility check must not form it
        Z = hoeffding_zset(20000, 16, seed=0)
        H = (20000 - Z.astype(np.int64) @ Z.T.astype(np.int64)) // 2
        np.fill_diagonal(H, 20000)
        assert Z.shape == (16, 20000) and H.min() >= 5000


class TestWeakLearner:
    def test_recovers_planted_parity(self, parity10):
        family, dist = parity10
        target = BooleanFn(10, family[0b1000])  # the single-coordinate parity on bit 3
        oracle = HonestNoisyOracle(target, tau=1e-3, seed=1)
        got = correlation_weak_learner(oracle, family)
        assert np.array_equal(got.table, target.table)
        assert len(oracle.log) == len(family)

    def test_family_of_one(self, parity10):
        family, dist = parity10
        oracle = HonestNoisyOracle(BooleanFn(10, family[9]), tau=0.5, seed=0)
        got = correlation_weak_learner(oracle, family[4:5])
        assert np.array_equal(got.table, family[4])

    def test_orthogonal_target_answers_stay_small(self):
        n = 8
        dist = uniform_signs(n)
        family = parity_family(n)
        target = BooleanFn(n, family[255])
        others = family[np.arange(len(family)) != 255][:64]
        tau = 1e-3
        oracle = HonestNoisyOracle(target, tau=tau, seed=2)
        got = correlation_weak_learner(oracle, others)
        for answer in oracle.log:
            assert abs(answer) <= tau  # truth is 0 for every member
        weights = np.full(dist.n_points, 1.0 / dist.n_points)
        loss = float(np.dot(weights, np.maximum(0.0, 1.0 - target.table * got.table)))
        assert loss >= 1.0 - 2 * tau


class TestAdversarialGame:
    def test_loss_floor_small_family(self):
        n = 9
        family = parity_family(n)
        d = len(family)
        floor = 1.0 - 2.0 / np.sqrt(d)
        for seed in range(10):
            learner = make_random_query_learner(family, seed)
            res = adversarial_game(family, learner, budget=1, tau=d ** (-1 / 3))
            assert res.loss >= floor
            assert all(c <= 4 * d ** (2 / 3) for c in res.inconsistent_counts)

    def test_budget_zero_trivial_floor(self):
        n = 9
        family = parity_family(n)
        learner = make_correlation_learner(family)
        res = adversarial_game(family, learner, budget=0, tau=0.5)
        assert res.loss >= 1.0 - 2.0 / np.sqrt(len(family))
        assert res.inconsistent_counts == []

    def test_no_survivor_beyond_the_bound_is_no_contradiction(self):
        # 64 correlation queries rule out all 64 members, far beyond d^(1/3)/8 = 1/2
        family = parity_family(6)
        with pytest.raises(ValueError, match=r"budget = 64 .* d\^\(1/3\)/8 = 0.5"):
            adversarial_game(family, make_correlation_learner(family), 64, 0.5)

    def test_random_query_learner_needs_a_budget(self):
        oracle = AdversarialOracle(parity_family(4), tau=0.5)
        with pytest.raises(ValueError, match="budget"):
            make_random_query_learner(parity_family(4), 0)(oracle)
        assert oracle.log == []

    def test_never_asserts_across_seeds(self):
        # the consistent low-correlation member always exists
        n = 9
        family = parity_family(n)
        for seed in range(50):
            learner = make_random_query_learner(family, seed)
            adversarial_game(family, learner, budget=1, tau=0.5)
        for seed in range(6):
            for name, learner in [
                ("corr", make_correlation_learner(family)),
                ("rand", make_random_query_learner(family, seed)),
                ("maj", make_majority_learner()),
            ]:
                adversarial_game(family, learner, budget=1, tau=0.5)


class _PruneEachQuery(SqOracle):
    """Reference adversary: prunes the family right after every query."""

    def __init__(self, family, tau, budget):
        super().__init__(family.shape[1], tau, budget)
        self.values = family[:].astype(np.float64)
        self.radius = len(family) ** (-1.0 / 3.0)
        self.consistent = np.ones(len(family), dtype=bool)
        self.counts = []

    def _answers(self, even, odd):
        w = np.full(self.m, 1.0 / self.m)
        for g in odd:
            bad = np.abs(self.values @ (w * g)) > self.radius
            self.counts.append(int(np.count_nonzero(bad)))
            self.consistent &= ~bad
        return np.zeros(len(odd)) if even is None else even @ w


def _reference_game(family, learner, budget, tau):
    oracle = _PruneEachQuery(family, tau, budget)
    h = learner(oracle)
    h_vals = np.asarray(h, dtype=np.float64)
    w = np.full(oracle.m, 1.0 / oracle.m)
    corr = oracle.values @ (w * np.clip(h_vals, -1.0, 1.0))
    ok = oracle.consistent & (corr < 2.0 / np.sqrt(len(family)))
    j = int(np.argmax(ok))
    loss = float(np.dot(w, np.maximum(0.0, 1.0 - oracle.values[j] * h_vals)))
    return j, loss, oracle.counts


class TestGameMatchesPerQueryPruning:
    @pytest.mark.parametrize("name,make", [
        ("correlation", lambda fam, s: make_correlation_learner(fam)),
        ("random-query", lambda fam, s: make_random_query_learner(fam, s)),
        ("majority", lambda fam, s: make_majority_learner()),
    ])
    def test_same_choice_loss_and_counts(self, name, make):
        n = 9
        family = parity_family(n)
        d = len(family)
        seen_counts = set()
        for budget, tau in [(1, d ** (-1 / 3)), (2, 0.5), (3, d ** (-1 / 3))]:
            for seed in range(4):
                res = adversarial_game(family, make(family, seed), budget, tau)
                j, loss, counts = _reference_game(family, make(family, seed),
                                                  budget, tau)
                assert (res.chosen_index, res.loss, res.inconsistent_counts) == (
                    j, loss, counts)
                seen_counts.update(counts)
        assert seen_counts  # every learner asked at least one query
        if name == "correlation":
            assert seen_counts == {1}  # each member's query rules out itself


class TestCorrelationCountCheck:
    def test_orthogonal_family_bound(self):
        # 100 orthogonal members: count <= 2/(0.25 - 0.01) -> at most 8
        n = 7
        family = parity_family(n)[:100]
        cert = certify_sqdim(family)
        h = family[0]
        count = correlation_count_check(family, h, tau=0.5, certificate=cert)
        assert 1 <= count <= 8

    def test_self_correlation_counts(self):
        n = 6
        family = parity_family(n)[:32]
        cert = certify_sqdim(family)
        count = correlation_count_check(family, family[0], tau=0.9, certificate=cert)
        assert count >= 1

    def test_random_h_respects_bound(self, rng, parity10):
        family, dist = parity10
        cert = certify_sqdim(family)
        d = len(family)
        for _ in range(20):
            h = rng.uniform(-1.0, 1.0, size=dist.n_points)
            count = correlation_count_check(family, h, tau=0.2, certificate=cert)
            assert count <= 2.0 / (0.04 - 1.0 / d)

    def test_c8_counts_match_the_dense_table(self, parity10):
        # C8's 200 draws: the uniform h is not dyadic, so the fast and dense
        # correlations may differ in the last bits, but no count moves
        family, dist = parity10
        table = family[:]
        cert = certify_sqdim(family)
        rng = np.random.default_rng(808)
        counts = []
        for tau in (0.2, 0.5):
            for _ in range(100):
                h = rng.uniform(-1.0, 1.0, size=dist.n_points)
                counts.append((correlation_count_check(family, h, tau, certificate=cert),
                               correlation_count_check(table, h, tau, certificate=cert)))
        assert len(counts) == 200 and all(fast == dense for fast, dense in counts)

    def test_tau_precondition(self, parity10):
        family, dist = parity10
        with pytest.raises(ValueError):
            correlation_count_check(family, np.zeros(dist.n_points), tau=0.01)
