import pytest

from plbc.allocate import allocate, enumerate_candidates
from plbc.bch import bch_generator
from plbc.channel import ChannelParams
from plbc.codec import construct_pbch, params_for
from plbc.errors import ConstructionError
from plbc.gf2 import poly_divmod, poly_reciprocal

CANDIDATE_FAMILY_1023 = [
    (0, 100, 0, 21),
    (10, 90, 3, 19),
    (20, 80, 5, 17),
    (30, 70, 7, 15),
    (40, 60, 9, 13),
    (50, 50, 11, 11),
    (60, 40, 13, 9),
    (70, 30, 15, 7),
    (80, 20, 17, 5),
    (90, 10, 19, 3),
    (100, 0, 21, 0),
]


class TestEnumerate:
    def test_n1023_eleven_candidates(self):
        cands = enumerate_candidates(1023, 923)
        assert len(cands) == 11
        got = [(c.l, c.r, c.d0, c.d1) for c in cands]
        assert got == CANDIDATE_FAMILY_1023
        assert [c.t0 for c in cands] == list(range(11))

    def test_small_family(self):
        cands = enumerate_candidates(15, 7)
        assert [(c.l, c.r) for c in cands] == [(0, 8), (4, 4), (8, 0)]
        assert [(c.d0, c.d1) for c in cands] == [(0, 5), (3, 3), (5, 0)]

    def test_m_optional(self):
        assert len(enumerate_candidates(1023, 923)) == 11

    def test_indivisible_redundancy(self):
        with pytest.raises(ValueError):
            enumerate_candidates(1023, 920)


def buildable_by_polynomials(n, k, l):
    """The existence rule made from the polynomials, not the coset table:
    deg g(d1) = r, deg h*(d0) = l, and g has no root in common with the
    reciprocal h of h* (gcd 1), so the masking code nests inside C."""
    m = n.bit_length()
    r = n - k - l
    g = bch_generator(n, 2 * (r // m) + 1 if r else 1)
    hstar = bch_generator(n, 2 * (l // m) + 1 if l else 1)
    a, b = g, poly_reciprocal(hstar)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return (g.bit_length() - 1, hstar.bit_length() - 1, a) == (r, l, 1)


class TestExistence:
    def test_every_split_up_to_n255(self):
        # every (n, k, l) with l and r multiples of m, m = 2..8: PlbcParams
        # accepts exactly the splits the polynomials allow, construct_pbch
        # builds every one of them, and enumerate_candidates lists them
        splits = unbuildable = empty = 0
        for m in range(2, 9):
            n = (1 << m) - 1
            for k in range(1 + (n - 1) % m, n + 1, m):
                built = []
                for l in range(0, n - k + 1, m):
                    splits += 1
                    try:
                        params_for(n, k, l)
                    except ConstructionError:
                        assert not buildable_by_polynomials(n, k, l), (n, k, l)
                        with pytest.raises(ConstructionError):
                            construct_pbch(n, k, l)
                        unbuildable += 1
                        continue
                    assert buildable_by_polynomials(n, k, l), (n, k, l)
                    construct_pbch(n, k, l)
                    built.append(l)
                if built:
                    assert [c.l for c in enumerate_candidates(n, k)] == built
                else:
                    with pytest.raises(ConstructionError, match="can be built"):
                        enumerate_candidates(n, k)
                    empty += 1
        assert (splits, unbuildable, empty) == (831, 618, 23)

    @pytest.mark.parametrize("split,message", [
        ((15, 3, 0),
         "generator degree 10 != r=12 at n=15 d1=7 (short cyclotomic coset)"),
        ((15, 3, 12),
         "mask-check degree 10 != l=12 at n=15 d0=7 (short cyclotomic coset)"),
        ((31, 1, 10),
         "generator and mask checks share roots (coset leaders [7]); "
         "the masking code would not nest inside the outer code"),
        ((255, 127, 64),
         "generator and mask checks share roots (coset leaders [15]); "
         "the masking code would not nest inside the outer code"),
    ])
    def test_messages(self, split, message):
        # the checks run in this order: generator degree, mask-check
        # degree, shared roots
        with pytest.raises(ConstructionError) as exc:
            params_for(*split)
        assert str(exc.value) == message

    def test_only_buildable_splits_ranked(self):
        assert [c.l for c in enumerate_candidates(15, 3)] == [4, 8]
        rep = allocate(15, 3, ChannelParams(0.3, 0.0), "bound")
        assert [r.candidate.l for r in rep.results] == [4, 8]
        with pytest.raises(ConstructionError):
            allocate(255, 55, ChannelParams(0.01, 0.01), "bound")

    def test_k_above_n(self):
        with pytest.raises(ValueError, match=r"k \+ l exceeds n"):
            enumerate_candidates(15, 19)


class TestAllocateBound:
    def test_epsilon_zero_prefers_all_ecc(self):
        rep = allocate(1023, 923, ChannelParams(0.0, 4e-3), "bound")
        assert rep.best.candidate.l == 0
        rep = allocate(15, 7, ChannelParams(0.0, 0.01), "bound")
        assert rep.best.candidate.l == 0

    def test_p_zero_prefers_all_masking(self):
        rep = allocate(1023, 923, ChannelParams(8e-3, 0.0), "bound")
        assert rep.best.candidate.l == 100
        rep = allocate(15, 7, ChannelParams(0.3, 0.0), "bound")
        assert rep.best.candidate.l == 8

    def test_channel5_interior_optimum(self):
        rep = allocate(1023, 923, ChannelParams(6e-3, 1e-3), "bound")
        assert rep.best.candidate.l == 30

    def test_results_sorted_and_best_is_min(self):
        rep = allocate(1023, 923, ChannelParams(2e-3, 3e-3), "bound")
        ls = [r.candidate.l for r in rep.results]
        assert ls == sorted(ls)
        assert all(rep.best.metric <= r.metric for r in rep.results)

    def test_tie_breaks_to_smallest_l(self):
        # a noiseless channel zeroes every metric, so the tie rule decides
        rep = allocate(15, 7, ChannelParams(0.0, 0.0), "bound")
        assert all(r.metric == 0.0 for r in rep.results)
        assert rep.best.candidate.l == 0

    def test_bound_metric_curves_frozen(self):
        # regression fixture: bound metric per candidate for channels 2-6
        # (binomial A_w); channels 2-3 descend then ascend across the whole
        # sweep, channels 4-6 jump at l=10 before descending (the masking
        # union bound overshoots when d0 = 3 at these defect rates)
        want_shapes = {
            2: [-1, +1, +1, +1, +1, +1, +1, +1, +1, +1],
            3: [-1, -1, +1, +1, +1, +1, +1, +1, +1, +1],
            4: [+1, -1, +1, +1, +1, +1, +1, +1, +1, +1],
            5: [+1, -1, -1, +1, +1, +1, +1, +1, +1, +1],
            6: [+1, -1, -1, +1, +1, +1, +1, +1, +1, +1],
        }
        channels = {
            2: (2e-3, 3e-3),
            3: (3e-3, 2.5e-3),
            4: (4e-3, 2e-3),
            5: (6e-3, 1e-3),
            6: (7e-3, 5e-4),
        }
        for cid, (eps, p) in channels.items():
            rep = allocate(1023, 923, ChannelParams(eps, p), "bound")
            metrics = [r.metric for r in rep.results]
            shape = [+1 if b > a else -1 for a, b in zip(metrics, metrics[1:])]
            assert shape == want_shapes[cid], (cid, metrics)

    def test_detail_carries_bound(self):
        rep = allocate(15, 7, ChannelParams(0.05, 0.01), "bound")
        for res in rep.results:
            assert res.detail is not None
            assert res.metric == res.detail.total

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            allocate(15, 7, ChannelParams(0.1, 0.01), "tea-leaves")


class TestAllocateSimulation:
    def test_needs_trials(self):
        with pytest.raises(ValueError):
            allocate(15, 7, ChannelParams(0.1, 0.01), "simulation")

    def test_small_family_report(self):
        ch = ChannelParams(0.3, 0.0)
        rep = allocate(15, 7, ch, "simulation", trials=4096, seed=21)
        assert rep.method == "simulation"
        for res in rep.results:
            lo, hi = res.detail.ci95
            assert lo <= res.metric <= hi
        # all-masking wins outright on an error-free channel
        assert rep.best.candidate.l == 8

    def test_reproducible(self):
        ch = ChannelParams(0.2, 0.02)
        a = allocate(15, 7, ch, "simulation", trials=2048, seed=33)
        b = allocate(15, 7, ch, "simulation", trials=2048, seed=33)
        assert [r.metric for r in a.results] == [r.metric for r in b.results]

    def test_candidates_use_distinct_streams(self):
        # identical (l, r) evaluated under different candidate indexes must
        # see different randomness; equality across the report would hint
        # at stream reuse
        ch = ChannelParams(0.25, 0.03)
        rep = allocate(15, 7, ch, "simulation", trials=2048, seed=33)
        fail_counts = [r.detail.decoding_failures for r in rep.results]
        assert len(set(fail_counts)) > 1
