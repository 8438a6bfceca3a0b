"""Unlabeled counting: good-element counts, the five at-most routes, series,
and closed forms."""

import functools
import inspect
import math
import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiorders
from semiorders import counting
from semiorders.bijection import IndexOutOfRangeError, arrangement_to_semiorder
from semiorders.core import Semiorder, level_profile
from semiorders.counting import (
    ClosedFormUnavailableError,
    InvalidParametersError,
    TrigPrecisionLossError,
    catalan,
    count_by_good,
    count_exact,
    count_leq,
    p_polynomial,
    poly_mul,
    series_divide,
    series_exact,
    series_leq,
    trig_count,
    trig_estimate,
)
from semiorders.labeled import (
    OrderedSetPartition,
    all_ordered_partitions,
    count_labeled_exact,
    count_labeled_leq,
    ordered_bell,
    staircase_seed,
)
from semiorders.oracle import enumerate_posets, enumerate_semiorders, labeled_posets, oracle_counts
from semiorders.trees import DyckPath, all_dyck_words, all_trees
from semiorders.trunk import InvalidRtlmSetError, narayana, rtlm_to_dyck
from semiorders.verify import run_suite


class TestCountByGood:
    def test_base_row(self):
        for n in range(1, 8):
            for k in range(1, n + 1):
                assert count_by_good(n, 0, k) == (1 if n == k else 0)

    def test_against_tree_enumeration(self):
        # 6-node height-2 trees refined by number of deepest nodes
        observed = {}
        for tree in all_trees(6):
            if tree.height != 2:
                continue
            deepest = tree_deepest_count(tree)
            observed[deepest] = observed.get(deepest, 0) + 1
        assert observed == {k: count_by_good(5, 1, k) for k in range(1, 5)}
        assert [count_by_good(5, 1, k) for k in range(1, 5)] == [4, 6, 4, 1]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_catalan_marginal(self, n):
        total = sum(
            count_by_good(n, h, k) for h in range(n) for k in range(1, n + 1)
        )
        assert total == catalan(n)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_k_marginal_matches_exact_counts(self, n):
        for h in range(n):
            assert sum(count_by_good(n, h, k) for k in range(1, n + 1)) == count_exact(n, h)

    def test_invalid_parameters(self):
        for bad in [(0, 0, 1), (3, -1, 1), (3, 0, 0), (3, 0, 4)]:
            with pytest.raises(InvalidParametersError, match="1 <= k <= n"):
                count_by_good(*bad)

    def test_too_long_is_zero_and_not_memoised(self):
        count_by_good(6, 2, 1)
        cached = dict(counting._row_cache)
        for n in (1, 5, 12):
            for h in (n, n + 1, 2 * n + 3, 10**6):
                assert [count_by_good(n, h, k) for k in range(1, n + 1)] == [0] * n
        assert counting._row_cache == cached

    def test_keeps_one_row(self):
        count_by_good(9, 2, 3)
        count_by_good(11, 3, 1)
        assert list(counting._row_cache) == [(11, 3)]

    def test_against_memo_on_full_grid(self):
        for n in range(1, 41):
            for h in range(n + 3):
                for k in range(1, n + 1):
                    assert count_by_good(n, h, k) == reference_by_good(n, h, k), (n, h, k)

    @settings(deadline=None)  # the reference memo is slow to fill at n near 120
    @given(st.data())
    def test_against_memo_on_random_grid(self, data):
        n = data.draw(st.integers(1, 120))
        h = data.draw(st.integers(0, n + 2))
        k = data.draw(st.integers(1, n))
        assert count_by_good(n, h, k) == reference_by_good(n, h, k)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_against_oracle(self, n):
        observed = Counter()
        for s in enumerate_semiorders(n):
            profile = level_profile(s)
            observed[profile.length, len(profile.good_elements)] += 1
        assert observed == {
            (h, k): count_by_good(n, h, k)
            for h in range(n) for k in range(1, n + 1) if count_by_good(n, h, k)
        }

    def test_long_row_sums_to_exact_count(self):
        start = time.perf_counter()
        row = [count_by_good(600, 3, k) for k in range(1, 601)]
        elapsed = time.perf_counter() - start
        assert sum(row) == count_exact(600, 3)
        assert elapsed < 2.0, f"row (600, 3) took {elapsed:.2f}s"


@functools.lru_cache(maxsize=None)
def reference_by_good(n, h, k):
    """t(n, h, k) by the recursive memo: the k deepest nodes hang below the
    m nodes one level up, C(m+k-1, m-1) ways, over the trees of height h-1."""
    if h == 0:
        return 1 if n == k else 0
    if h >= n:  # a chain of h edges needs h + 1 elements
        return 0
    return sum(
        math.comb(m + k - 1, m - 1) * reference_by_good(n - k, h - 1, m)
        for m in range(1, n - k + 1)
    )


def tree_deepest_count(tree):
    level = [tree]
    while True:
        nxt = [c for node in level for c in node.children]
        if not nxt:
            return len(level)
        level = nxt


class TestCountLeq:
    def test_powers_of_two_at_height_one(self):
        for n in range(1, 13):
            assert count_leq(n, 1, "closed") == 2 ** (n - 1)
        assert count_leq(10, 1, "closed") == 512

    def test_height_three_closed(self):
        assert count_leq(1, 3, "closed") == 1
        assert count_leq(2, 3, "closed") == 2
        assert count_leq(5, 3, "closed") == 41
        for n in range(21):
            assert count_leq(n, 3, "closed") == count_leq(n, 3, "convolution")

    def test_height_two_row(self):
        assert [count_leq(n, 2) for n in range(1, 6)] == [1, 2, 5, 13, 34]
        for n in range(2, 21):
            assert count_leq(n, 2) == 3 * count_leq(n - 1, 2) - count_leq(n - 2, 2)

    @pytest.mark.parametrize("h", range(11))
    def test_tiny_bases(self, h):
        assert count_leq(0, h) == 1
        assert count_leq(1, h) == 1

    @pytest.mark.parametrize("h", range(7))
    def test_methods_agree(self, h):
        for n in range(19):
            reference = count_leq(n, h, "convolution")
            assert count_leq(n, h, "alternating") == reference
            assert count_leq(n, h, "series") == reference
            assert count_leq(n, h, "trig") == reference

    def test_closed_unavailable(self):
        with pytest.raises(ClosedFormUnavailableError):
            count_leq(5, 2, "closed")

    def test_bad_arguments(self):
        with pytest.raises(InvalidParametersError):
            count_leq(-1, 0)
        with pytest.raises(InvalidParametersError):
            count_leq(3, 3, "sorcery")

    @pytest.mark.parametrize("n, h", [(2.0, 1), (5, 2.0), (4, 1.5), (3, "2"), (None, 0)])
    def test_non_integer_sizes_before_any_route(self, n, h):
        for count in (count_leq, count_exact):
            for method in counting.METHODS:
                with pytest.raises(InvalidParametersError, match="need integers n and h"):
                    count(n, h, method)

    def test_bools_count_as_integers(self):
        assert count_leq(True, True) == count_leq(1, 1) == 1
        assert count_exact(5, True, "alternating") == count_exact(5, 1) == 15

    @pytest.mark.parametrize("n, h", [(0, 0), (0, 3), (5, 0), (3, 3)])
    def test_unknown_method_before_any_shortcut(self, n, h):
        for count in (count_leq, count_exact):
            with pytest.raises(InvalidParametersError, match="unknown method 'sorcery'"):
                count(n, h, "sorcery")

    @pytest.mark.parametrize("h", range(0, 80, 7))
    def test_alternating_matches_the_series(self, h):
        assert [count_leq(n, h, "alternating") for n in range(80)] == list(series_leq(h, 79))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_monotone_and_stabilizing_in_h(self, n):
        values = [count_leq(n, h) for h in range(n + 2)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[n - 1] == catalan(n)
        assert values[n] == catalan(n)


class TestRouteTable:
    """One table entry per route; the closed route alone takes the caller's h unlowered."""

    def test_methods_are_the_table(self):
        assert counting.METHODS == tuple(counting._ROUTES)
        assert counting._DEFAULT in counting.METHODS

    @pytest.mark.parametrize("method", counting.METHODS)
    def test_no_route_checks_itself(self, method):
        assert counting._ROUTES[method].check in set(counting.METHODS) - {method}

    def test_closed_names_the_callers_bound(self):
        with pytest.raises(ClosedFormUnavailableError, match=r"length bound h = 5;") as caught:
            count_leq(3, 5, "closed")
        assert caught.value.h == 5
        for method in set(counting.METHODS) - {"closed"}:
            assert count_leq(3, 5, method) == 5
        with pytest.raises(ClosedFormUnavailableError, match=r"length bound h = 0;") as caught:
            count_leq(0, 0, "closed")
        assert caught.value.h == 0

    def test_closed_exact_edges(self):
        with pytest.raises(ClosedFormUnavailableError, match=r"exact length h = 5;") as caught:
            count_exact(3, 5, "closed")
        assert caught.value.h == 5
        assert count_exact(0, 5, "closed") == 0
        assert count_exact(5, 0, "closed") == 1


# each function with valid arguments; every one of its int parameters is gated, package-wide
INTEGER_ARGUMENTS = [
    (catalan, (5,)), (p_polynomial, (3,)), (count_by_good, (5, 1, 2)),
    (series_leq, (2, 6)), (series_exact, (2, 6)),
    (trig_estimate, (5, 2, 40)), (trig_count, (5, 2, 40)), (ordered_bell, (4,)),
    (count_leq, (5, 2)), (count_exact, (5, 2)), (count_labeled_leq, (5, 2)),
    (count_labeled_exact, (5, 2)), (narayana, (4, 2)), (rtlm_to_dyck, (((1, 1),), 1)),
    (arrangement_to_semiorder, (4, (2,))), (staircase_seed, (4,)), (all_ordered_partitions, (3,)),
    (enumerate_semiorders, (4,)), (enumerate_posets, (3,)), (labeled_posets, (3,)),
    (oracle_counts, (4,)), (run_suite, ("trunk", 2)), (all_trees, (3,)), (all_dyck_words, (2,)),
]
# the functions that raise their own ValueError subclass, not InvalidParametersError
OWN_ERROR = {arrangement_to_semiorder: IndexOutOfRangeError, rtlm_to_dyck: InvalidRtlmSetError}


def int_parameters(function) -> list[int]:
    """Positions of the parameters annotated int (or int | None)."""
    parameters = inspect.signature(function).parameters.values()
    return [i for i, p in enumerate(parameters) if p.annotation in ("int", "int | None")]


def call(function, *args):
    """function(*args), a generator advanced once, so that its checks have run."""
    result = function(*args)
    return next(result) if inspect.isgenerator(result) else result


def test_every_public_integer_parameter_has_a_row():
    public = {getattr(semiorders, name) for name in semiorders.__all__}
    with_ints = {f for f in public if inspect.isfunction(f) and int_parameters(f)}
    assert len(with_ints) >= 16  # as many as when this test was written: the annotations are read
    assert with_ints <= {function for function, _ in INTEGER_ARGUMENTS}


@pytest.mark.parametrize("function, args", INTEGER_ARGUMENTS,
                         ids=[function.__name__ for function, _ in INTEGER_ARGUMENTS])
@pytest.mark.parametrize("bad", [2.0, "3", None])
def test_non_integer_arguments_raise_a_typed_error(function, args, bad):
    assert call(function, *args) is not None
    for i in int_parameters(function):
        if bad is None and function in (trig_estimate, trig_count) and i == 2:
            continue  # digits=None is the default precision
        with pytest.raises(OWN_ERROR.get(function, InvalidParametersError),
                           match=r"^need integers .*= " + re.escape(repr(bad))):
            call(function, *args[:i], bad, *args[i + 1:])


def test_bools_are_integers():
    assert catalan(True) == ordered_bell(True) == count_by_good(True, False, True) == 1
    assert p_polynomial(True) == (1, -1)
    assert series_leq(True, True) == (1, 1)
    assert series_exact(False, True) == (0, 1)
    assert trig_count(True, True) == trig_estimate(True, False)[0] == 1
    assert count_labeled_leq(True, False) == count_labeled_exact(True, False) == 1
    assert narayana(True, True) == 1
    assert rtlm_to_dyck(((1, 1),), True) == DyckPath("UD")
    assert rtlm_to_dyck((), False) == DyckPath("")
    assert arrangement_to_semiorder(True, ()) == staircase_seed(True) == Semiorder((0,))
    assert list(all_ordered_partitions(True)) == [OrderedSetPartition(((1,),))]
    assert list(enumerate_semiorders(True)) == [Semiorder((0,))]
    assert len(enumerate_posets(True)) == len(list(labeled_posets(True))) == 1
    assert oracle_counts(True) == oracle_counts(True, "posets") == {0: 1}
    assert run_suite("trunk", True)[1]
    assert len(list(all_trees(True))) == len(list(all_dyck_words(True))) == 1


@pytest.mark.parametrize("function, args, message", [
    (catalan, (-1,), "need n >= 0"),
    (p_polynomial, (-1,), "need h >= 0"),
    (ordered_bell, (-1,), "need n >= 0"),
    (series_leq, (-1, 3), "need h >= 0"),
    (series_exact, (2, -1), "need order >= 0"),
    (series_divide, ((1,), (1, 1), -1), "need order >= 0"),
    (count_by_good, (3, 0, 4), "need n >= 1, h >= 0, 1 <= k <= n; got (3, 0, 4)"),
    (count_by_good, (0, 0, 0), "need n >= 1, h >= 0, 1 <= k <= n; got (0, 0, 0)"),
    (trig_estimate, (5, 2, 0), "need digits >= 1; got 0"),
    (count_leq, (-1, 0), "need n >= 0 and h >= 0"),
    (trig_count, (-1, 2), "need n >= 0 and h >= 0"),
    (narayana, (4, 5), "need 1 <= k <= m; got (4, 5)"),
    (narayana, (0, 0), "need 1 <= k <= m; got (0, 0)"),
    (narayana, (True, 2), "need 1 <= k <= m; got (True, 2)"),
    (rtlm_to_dyck, (((1, 1),), -1),
     "((1, 1),) are not the right-to-left minima of a permutation of 1..-1"),
    (arrangement_to_semiorder, (0, ()), "need n >= 1"),
    (arrangement_to_semiorder, (True, (2,)), "upper indices must lie in 2..True"),
    (staircase_seed, (0,), "need k >= 1"),
    (all_ordered_partitions, (-1,), "need n >= 0"),
    (enumerate_semiorders, (-1,), "need n >= 0; got -1"),
    (enumerate_posets, (-2,), "need n >= 0; got -2"),
    (labeled_posets, (-1,), "need n >= 0; got -1"),
    (oracle_counts, (-1,), "need n >= 0; got -1"),
    (run_suite, ("all", 0), "need max_n >= 1; got 0"),
    (run_suite, ("all", False), "need max_n >= 1; got False"),
    (all_trees, (-1,), "need node_count >= 0"),
    (all_dyck_words, (-1,), "need semilength >= 0"),
], ids=lambda v: getattr(v, "__name__", None))
def test_range_messages(function, args, message):
    with pytest.raises(OWN_ERROR.get(function, InvalidParametersError)) as caught:
        call(function, *args)
    assert str(caught.value) == message


class TestTrig:
    def test_precision_loss_guard(self):
        from semiorders.counting import trig_count

        with pytest.raises(TrigPrecisionLossError) as err:
            trig_count(30, 10, digits=17)
        assert err.value.n == 30 and err.value.h == 10
        assert err.value.residue > 0.25

    @pytest.mark.parametrize("digits", [15, 16])
    def test_guard_needs_digits_after_the_point(self, digits):
        # f_leq(30, 10) has 16 digits: at 16 or fewer the sum rounds to an
        # integer, the residue reads 0, and the nearest integer is wrong
        from semiorders.counting import trig_count

        nearest, residue = trig_estimate(30, 10, digits)
        assert residue == 0 and nearest != count_leq(30, 10)
        with pytest.raises(TrigPrecisionLossError, match="0 digits after the point") as err:
            trig_count(30, 10, digits=digits)
        assert (err.value.n, err.value.h, err.value.residue) == (30, 10, 0)

    @pytest.mark.parametrize("n", [1, 5, 30])
    def test_digits_below_one_are_rejected(self, n):
        from semiorders.counting import trig_count

        for digits in (0, -3):
            with pytest.raises(InvalidParametersError, match="need digits >= 1"):
                trig_estimate(n, 2, digits)
            with pytest.raises(InvalidParametersError, match="need digits >= 1"):
                trig_count(n, 2, digits)

    def test_two_digits_after_the_point_pass(self):
        from semiorders.counting import trig_count

        assert trig_count(30, 10, digits=18) == count_leq(30, 10) == 3514791913340867

    def test_pi_cache_keeps_one_entry(self):
        from semiorders import counting
        from semiorders.counting import trig_count

        counting._pi_cache.clear()
        # precision grows with n, then lower precisions are served from the highest
        for n in (*range(0, 40, 3), *range(36, 0, -3)):
            assert trig_count(n, 4) == count_leq(n, 4, "series")
        assert list(counting._pi_cache) == [35 + (62 * 39) // 100]

    def test_residues_small_at_scale(self):
        for h in (0, 5, 10):
            for n in (2, 17, 30):
                value, residue = trig_estimate(n, h)
                assert residue < 1e-20
                assert value == count_leq(n, h)

    def test_formula_also_holds_at_n_one(self):
        # stated separately from the n >= 2 sum, but empirically the sum
        # itself already gives 1 at n = 1 for every h here
        from decimal import Decimal, localcontext

        from semiorders.counting import _dec_cos, _dec_pi, _dec_sin

        for h in range(11):
            with localcontext() as ctx:
                ctx.prec = 40
                pi = _dec_pi()
                total = Decimal(0)
                for j in range(1, (h + 2) // 2 + 1):
                    theta = pi * j / (h + 3)
                    total += _dec_sin(theta) ** 2 * _dec_cos(theta) ** 2
                value = total * Decimal(4) ** 2 / (h + 3)
            assert abs(value - 1) < Decimal("1e-30")


class TestPolynomials:
    def test_small_cases(self):
        assert p_polynomial(0) == (1,)
        assert p_polynomial(1) == (1, -1)
        assert p_polynomial(2) == (1, -2)
        assert p_polynomial(3) == (1, -3, 1)

    def test_recurrence(self):
        # with the base cases above, this pins the closed form to p_{h+1} = p_h - x p_{h-1}
        for h in range(1, 300):
            lhs = p_polynomial(h + 1)
            rhs_main = p_polynomial(h)
            rhs_shift = (0,) + p_polynomial(h - 1)
            width = max(len(rhs_main), len(rhs_shift))
            rhs = tuple(
                (rhs_main[i] if i < len(rhs_main) else 0)
                - (rhs_shift[i] if i < len(rhs_shift) else 0)
                for i in range(width)
            )
            while len(rhs) > 1 and rhs[-1] == 0:
                rhs = rhs[:-1]
            assert lhs == rhs


class TestSeries:
    def test_geometric_like_division(self):
        assert series_divide((1, -1), (1, -2), 5) == (1, 1, 2, 4, 8, 16)

    def test_divide_requires_unit_constant(self):
        with pytest.raises(InvalidParametersError):
            series_divide((1,), (2, 1), 3)

    def test_leq_one(self):
        assert series_leq(1, 5) == (1, 1, 2, 4, 8, 16)

    def test_leq_three(self):
        assert series_leq(3, 6) == (1, 1, 2, 5, 14, 41, 122)

    def test_exact_leading_zeros(self):
        for h in range(5):
            coefficients = series_exact(h, h + 3)
            assert all(c == 0 for c in coefficients[: h + 1])

    @pytest.mark.parametrize("h", range(6))
    def test_series_match_counts(self, h):
        leq = series_leq(h, 14)
        exact = series_exact(h, 14)
        for n in range(15):
            assert leq[n] == count_leq(n, h)
            assert exact[n] == count_exact(n, h)

    def test_poly_mul(self):
        assert poly_mul((1, 1), (1, -1)) == (1, 0, -1)
        assert poly_mul((2,), (3,)) == (6,)

    @given(st.integers(0, 40), st.integers(0, 30))
    def test_height_clamp_keeps_the_series(self, h, order):
        # the division on the unclamped h is the reference
        leq = series_divide(p_polynomial(h), p_polynomial(h + 1), order)
        denominator = poly_mul(p_polynomial(h + 1), p_polynomial(h))
        exact = series_divide((0,) * (h + 1) + (1,), denominator, order)
        assert series_leq(h, order) == leq
        assert series_exact(h, order) == exact

    @given(st.integers(0, 25), st.integers(0, 40),
           st.sampled_from(("convolution", "alternating", "series", "trig")))
    def test_height_clamp_keeps_the_counts(self, n, h, method):
        assert count_leq(n, h, method) == reference_leq(n, h)


def reference_leq(n, h):
    """f_leq(n, h) by the convolution loop as it was written before the rows
    generator: one whole pass for each h, no clamp on h."""
    row = [1] * (n + 1)  # h = 0: only antichains
    for _ in range(h):
        nxt = [1]
        for m in range(1, n + 1):
            nxt.append(sum(nxt[t] * row[m - 1 - t] for t in range(m)))
        row = nxt
    return row[n]


class TestRecurrenceWindows:
    """The convolution and signed recurrences each take a term as one dot
    product over a window; the loop in reference_leq and the series route
    are the references."""

    @pytest.mark.parametrize("h", range(41))
    def test_alternating_across_its_seeds(self, h):
        # unclamped h: n runs from the Catalan seeds into the recurrence proper
        for n in range((h + 1) // 2 + 4):
            assert counting._leq_alternating(n, h) == reference_leq(n, h), (n, h)

    @settings(deadline=None, max_examples=30)  # convolution near (300, 30) takes ~0.5 s
    @given(st.integers(0, 300), st.integers(0, 30))
    def test_recurrences_match_the_series(self, n, h):
        for count in (count_leq, count_exact):
            expected = count(n, h, "series")
            assert count(n, h, "convolution") == expected
            assert count(n, h, "alternating") == expected


class TestCountExact:
    def test_three_elements(self):
        assert [count_exact(3, h) for h in range(3)] == [1, 3, 1]
        assert sum(count_exact(3, h) for h in range(3)) == catalan(3)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_vanishes_for_long_chains(self, n):
        for h in range(n, n + 3):
            assert count_exact(n, h) == 0

    def test_empty_convention(self):
        assert count_exact(0, 0) == 0
        assert count_exact(0, 4) == 0

    def test_length_three_recurrence(self):
        # f_3(n) = 3 f_3(n-1) + f_2(n-2) + f_1(n-2)
        for n in range(2, 21):
            lhs = count_exact(n, 3)
            rhs = (
                3 * count_exact(n - 1, 3)
                + count_exact(n - 2, 2)
                + count_exact(n - 2, 1)
            )
            assert lhs == rhs

    @settings(deadline=None)  # the reference runs O(h n^2) twice near (100, 30)
    @given(st.integers(0, 100), st.integers(1, 30))
    def test_one_pass_matches_two(self, n, h):
        expected = reference_leq(n, h) - reference_leq(n, h - 1)
        assert count_exact(n, h) == expected
        assert count_exact(n, h, "series") == expected

    # h in {0, n - 1, n, n + 2} for n in {0, 1, 2}; h = n - 1 = -1 is rejected
    @pytest.mark.parametrize("n, h, value", [
        (0, 0, 0), (0, 2, 0),
        (1, 0, 1), (1, 1, 0), (1, 3, 0),
        (2, 0, 1), (2, 1, 1), (2, 2, 0), (2, 4, 0),
    ])
    def test_edges(self, n, h, value):
        for method in ("convolution", "alternating", "series", "trig"):
            assert count_exact(n, h, method) == value

    def test_closed_at_heights_zero_and_one(self):
        for n in range(13):
            for h in (0, 1):
                assert count_exact(n, h, "closed") == count_exact(n, h)
        assert count_exact(10, 1, "closed") == 511

    @pytest.mark.parametrize("h", [2, 3, 4, 7])
    def test_closed_unavailable_names_the_callers_height(self, h):
        with pytest.raises(ClosedFormUnavailableError, match=rf"exact length h = {h};") as caught:
            count_exact(5, h, "closed")
        assert caught.value.h == h

    def test_bad_arguments(self):
        with pytest.raises(InvalidParametersError):
            count_exact(0, -1)
        with pytest.raises(InvalidParametersError, match="unknown method 'sorcery'"):
            count_exact(3, 1, "sorcery")
        with pytest.raises(InvalidParametersError, match="unknown method 'sorcery'"):
            count_exact(3, 5, "sorcery")

    @pytest.mark.parametrize("n, h", [(2, 1), (6, 2), (6, 5), (40, 7)])
    def test_convolution_runs_the_recurrence_once(self, monkeypatch, n, h):
        passes = []
        rows = counting._convolution_rows

        def counted(*args):
            passes.append(args)
            return rows(*args)

        monkeypatch.setattr(counting, "_convolution_rows", counted)
        assert count_exact(n, h) == count_exact(n, h, "series")
        assert passes == [(n, h)]


def reference_divide(numerator, denominator, order):
    """Long division as it was written before the windowed stepper: every
    coefficient, and a remainder list just as long."""
    remainder = list(numerator[: order + 1]) + [0] * max(0, order + 1 - len(numerator))
    out = []
    for n in range(order + 1):
        c = remainder[n]
        out.append(c)
        if c:
            for i in range(1, min(len(denominator), order + 1 - n)):
                remainder[n + i] -= c * denominator[i]
    return tuple(out)


def reference_row(n, h):
    """The good-element row (n, h) packed at y = 2^(2n), by the hand-written
    second division that preceded the chained steppers."""
    bits = 2 * n
    top, p_h, lower = n - h, p_polynomial(h), p_polynomial(h - 1) if h else (1,)
    f = list(reference_divide((0, 1 << bits), p_h, top))
    for m in range(1, top + 1):
        f[m] -= sum(p_h[i] * f[m - i] for i in range(1, min(len(p_h), m + 1)))
        f[m] += sum(lower[i] * f[m - 1 - i] for i in range(min(len(lower), m))) << bits
    return [f[top] >> bits * k & ((1 << bits) - 1) for k in range(1, n + 1)]


class TestStepper:
    """Every division goes through counting._coefficients; the loops it
    replaced are the references."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 200), st.integers(0, 30))
    def test_against_the_full_division(self, n, h):
        leq = reference_divide(p_polynomial(h), p_polynomial(h + 1), n)
        lower = reference_divide(p_polynomial(h - 1), p_polynomial(h), n) if h else (1,) + (0,) * n
        denominator = poly_mul(p_polynomial(h + 1), p_polynomial(h))
        exact = reference_divide((0,) * (h + 1) + (1,), denominator, n)
        assert series_leq(h, n) == leq
        assert series_exact(h, n) == exact
        assert count_leq(n, h, "series") == leq[n]
        assert count_exact(n, h, "series") == (leq[n] - lower[n] if n else 0) == exact[n]
        if h < n:
            assert [count_by_good(n, h, k) for k in range(1, n + 1)] == reference_row(n, h)

    @given(st.lists(st.integers(-9, 9), max_size=6), st.lists(st.integers(-9, 9), max_size=5),
           st.integers(0, 30))
    def test_divide_matches_the_remainder_loop(self, numerator, tail, order):
        denominator = (1, *tail)
        expected = reference_divide(numerator, denominator, order)
        assert series_divide(numerator, denominator, order) == expected
