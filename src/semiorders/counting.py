"""Exact counts of semiorders by element count and bounded chain length.

Everything here is arbitrary-precision integer arithmetic; counts grow
like 3^n already at length 3, so nothing ever goes through machine ints.
Five independent routes, each one entry of ``_ROUTES``, give f_leq(n, h), the
number of nonisomorphic n-element semiorders of length at most h; all agree:

* ``convolution`` -- f(n) = sum_t f_leq_h(t) * f_leq_{h-1}(n-1-t), the
  recurrence realized structurally by core.split/core.join; its pass to
  row h builds row h - 1 first, so an exact count reads both off one pass;
* ``alternating`` -- a short signed recurrence in n with binomial
  coefficients drawn from the denominator polynomial p_{h+1};
* ``series``      -- expansion of the rational generating function
  p_h(x) / p_{h+1}(x), where p_0 = 1, p_1 = 1 - x and
  p_{h+1} = p_h - x * p_{h-1};
* ``trig``        -- a finite trigonometric sum evaluated in
  high-precision decimal floating point and rounded, with a residue
  guard; a numeric cross-check, not a primary path;
* ``closed``      -- closed forms, available for h = 1 (2^(n-1)) and
  h = 3 ((3^(n-1) + 1) / 2) only.

Exact-length counts are differences of consecutive at-most counts, and
count_by_good refines them by the number of good (deepest-level) elements.
Marking the deepest level in the plane-tree continued fraction
B_{j+1} = x / (1 - B_j), B_0 = x y (Flajolet, "Combinatorial aspects of
continued fractions", 1980) gives them from the same p-polynomials, with
no bound on n: t(n, h, k) = [x^(n-h-k)] p_{h-1}^(k-1) / p_h^(k+1), p_{-1} = 1.

Every polynomial division runs through one stepper, ``_coefficients``, which
keeps only the last deg(denominator) coefficients: a single count holds O(h).
The convolution and signed recurrences likewise take each term as one
C-level dot product, ``sum(map(mul, ...))``, over the row or window it needs.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from itertools import chain, islice, repeat
from operator import mul

from . import InvalidParametersError, _ints


class ClosedFormUnavailableError(ValueError):
    def __init__(self, h: int, exact: bool = False):
        super().__init__(f"no closed form for exact length h = {h}; only h = 0 and h = 1" if exact
                         else f"no closed form for length bound h = {h}; only h = 1 and h = 3")
        self.h = h


class TrigPrecisionLossError(ArithmeticError):
    def __init__(self, n: int, h: int, residue: float, fraction_digits: int):
        super().__init__(
            f"trigonometric sum for (n={n}, h={h}) is too coarse to round: residue {residue:.3g} "
            f"(at most 0.25) with {fraction_digits} digits after the point (at least 2)"
        )
        self.n = n
        self.h = h
        self.residue = residue


def catalan(n: int) -> int:
    """C_n = binom(2n, n) / (n + 1); counts all n-element semiorders."""
    [n] = _ints(n=(n, 0))
    return math.comb(2 * n, n) // (n + 1)


def _convolution_rows(n: int, h: int):
    """Yield the rows f_leq(0..n, j) for j = 0, 1, ..., h; row j is C_m at m <= j + 1."""
    row = [1] * (n + 1)  # j = 0: only antichains
    yield row
    for _ in range(h):
        nxt = [1]
        for _ in range(n):  # f_j(m) = sum_t f_j(m-1-t) f_{j-1}(t), t < m = len(nxt)
            nxt.append(sum(map(mul, reversed(nxt), row)))
        row = nxt
        yield row


def _leq_alternating(n: int, h: int) -> int:
    # The signed recurrence holds once n exceeds floor((h+1)/2); below that
    # every n-element semiorder is shorter than h anyway, so the count is
    # the full Catalan number and seeds the recurrence.  There are at least
    # (h + 2) // 2 seeds, as many as the recurrence has terms.
    seed_top = (h + 1) // 2
    if n <= seed_top:
        return catalan(n)
    signed = [(-1) ** (k + 1) * math.comb(h + 2 - k, k) for k in range(1, (h + 2) // 2 + 1)]
    window = deque(maxlen=len(signed))  # f(m-1), f(m-2), ...
    window.extendleft(map(catalan, range(seed_top + 1)))
    for _ in range(seed_top, n):
        window.appendleft(sum(map(mul, signed, window)))
    return window[0]


def p_polynomial(h: int) -> tuple[int, ...]:
    """Ascending coefficients of p_h = sum_j (-1)^j C(h+1-j, j) x^j (p_{h+1} = p_h - x p_{h-1})."""
    [h] = _ints(h=(h, 0))
    return tuple((-1) ** j * math.comb(h + 1 - j, j) for j in range((h + 3) // 2))


def poly_mul(a, b) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        for j, bv in enumerate(b):
            out[i + j] += av * bv
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _coefficients(numerator, denominator, shifted=(), bits=0):
    """Yield c_0, c_1, ... of numerator / (denominator - x 2^bits shifted), denominator[0] = 1:
    c_m = a_m - sum_{i>=1} d_i c_{m-i} + 2^bits sum_{i>=0} s_i c_{m-1-i}, keeping that window only.
    numerator is any iterable (another stepper too); shifting beats multiplying by big d_i."""
    tail = denominator[1:]
    width = max(len(tail), len(shifted))
    window = deque([0] * width, maxlen=width)  # c_{m-1}, c_{m-2}, ...
    for a in chain(numerator, repeat(0)):
        c = a - sum(map(mul, tail, window))
        if shifted:
            c += sum(map(mul, shifted, window)) << bits
        window.appendleft(c)
        yield c


def _fraction(h: int, order: int, at_most: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """p_h / p_{h+1}, entry n f_leq(n, h) (at_most), or x^(h+1) / (p_{h+1} p_h), entry n f(n, h);
    an h past order + 1 is lowered to it, which moves no entry 0..order."""
    h = min(_ints(h=(h, 0))[0], _ints(order=(order, 0))[0] + 1)
    if at_most:
        return p_polynomial(h), p_polynomial(h + 1)
    return (0,) * (h + 1) + (1,), poly_mul(p_polynomial(h + 1), p_polynomial(h))


def series_divide(numerator, denominator, order: int) -> tuple[int, ...]:
    """First order+1 coefficients of numerator/denominator, exactly.

    The denominator must have constant term 1, which keeps the long
    division inside the integers.
    """
    [order] = _ints(order=(order, 0))
    if not denominator or denominator[0] != 1:
        raise InvalidParametersError("denominator must have constant term 1")
    return tuple(islice(_coefficients(numerator, denominator), order + 1))


def series_leq(h: int, order: int) -> tuple[int, ...]:
    """Coefficients 0..order of p_h / p_{h+1}; entry n is f_leq(n, h)."""
    return series_divide(*_fraction(h, order, True), order)


def series_exact(h: int, order: int) -> tuple[int, ...]:
    """Coefficients 0..order of x^(h+1) / (p_{h+1} p_h); entry n is f(n, h)."""
    return series_divide(*_fraction(h, order, False), order)


_row_cache: dict[tuple[int, int], int] = {}  # one entry: the last row read, packed as below


def count_by_good(n: int, h: int, k: int) -> int:
    """t(n, h, k): n-element semiorders of length h with k good elements (plane trees: n+1
    nodes, height h+1, k deepest) is [x^(n-h-k)] p_{h-1}^(k-1) / p_h^(k+1), with p_{-1} = 1
    (Flajolet 1980; module docstring).  Keeps the last row."""
    n, h, k = _ints("need n >= 1, h >= 0, 1 <= k <= n; got ({:d}, {:d}, {:d})",
                    n=(n, k), h=(h, 0), k=(k, 1))  # n >= k >= 1
    if k > n - h:  # a chain of h edges needs h + 1 elements, k of them good
        return 0
    bits = 2 * n  # every count is below C_n < 4^n
    if (n, h) not in _row_cache:
        # sum_k t(n, h, k) y^k = [x^(n-h)] x y / (p_h (p_h - x y p_{h-1})); at y = 2^bits, one integer
        # holding the row as base-y digits.  Divide by p_h, then by p_h - x y p_{h-1}, y as a shift.
        p_h, lower = p_polynomial(h), p_polynomial(h - 1) if h else (1,)
        row = _coefficients(_coefficients((0, 1 << bits), p_h), p_h, lower, bits)
        _row_cache.clear()
        _row_cache[(n, h)] = next(islice(row, n - h, None))
    return _row_cache[(n, h)] >> bits * k & ((1 << bits) - 1)


_pi_cache: dict[int, Decimal] = {}  # one entry, {precision: pi}, the highest computed so far


def _dec_pi() -> Decimal:
    """Pi at the current decimal context precision (arctan-style series)."""
    from decimal import Decimal, getcontext

    prec = getcontext().prec
    for cached_prec, pi in _pi_cache.items():
        if cached_prec >= prec:
            return +pi  # rounded to the caller's precision
    getcontext().prec += 2
    lasts, t, s, n, na, d, da = Decimal(0), Decimal(3), Decimal(3), 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    getcontext().prec -= 2
    result = +s
    _pi_cache.clear()
    _pi_cache[prec] = result
    return result


def _dec_taylor(x: Decimal, i: int, term: Decimal | int) -> Decimal:
    """sin or cos of x by its Taylor series: term x^i / i! first, i = 1 or 0."""
    from decimal import Decimal, getcontext

    getcontext().prec += 2
    lasts, s, fact, num, sign = Decimal(0), term, 1, term, 1
    while s != lasts:
        lasts = s
        i += 2
        fact *= i * (i - 1)
        num *= x * x
        sign *= -1
        s += num / fact * sign
    getcontext().prec -= 2
    return +s


def _dec_sin(x: Decimal) -> Decimal:
    return _dec_taylor(x, 1, x)


def _dec_cos(x: Decimal) -> Decimal:
    return _dec_taylor(x, 0, 1)


def trig_estimate(n: int, h: int, digits: int | None = None) -> tuple[int, float]:
    """Evaluate the trigonometric sum for f_leq(n, h) and round it.

    Returns (nearest integer, rounding residue).  Working precision scales
    with n because the summands reach 4^(n+1); pass ``digits`` to override
    (chiefly to exercise the precision-loss guard).  The residue alone is
    no proof: with no digit left after the point it reads 0 whatever the
    error, so the default precision keeps 30 or more of them.
    """
    return _trig_rounded(n, h, digits)[:2]


def _trig_rounded(n: int, h: int, digits: int | None) -> tuple[int, float, int]:
    """trig_estimate's (nearest, residue) and the digits the precision left after the point."""
    from decimal import ROUND_HALF_EVEN, Decimal, localcontext

    n, h = _ints(n=(n, 0), h=(h, 0))
    digits = 35 + (62 * n) // 100 if digits is None else digits
    [digits] = _ints("need digits >= 1; got {:d}", digits=(digits, 1))
    if n <= 1:
        return 1, 0.0, digits - 1
    with localcontext() as ctx:
        ctx.prec = digits
        pi = _dec_pi()
        total = Decimal(0)
        for j in range(1, (h + 2) // 2 + 1):
            theta = pi * j / (h + 3)
            sin_sq = _dec_sin(theta) ** 2
            cos_sq = _dec_cos(theta) ** 2
            total += sin_sq * cos_sq**n
        value = total * Decimal(4) ** (n + 1) / (h + 3)
        nearest = int(value.to_integral_value(rounding=ROUND_HALF_EVEN))
        residue = abs(value - nearest)
        return nearest, float(residue), max(digits - 1 - value.adjusted(), 0)


def trig_count(n: int, h: int, digits: int | None = None) -> int:
    """Rounded trigonometric value; a residue above 0.25, or under 2 digits after the point, raises."""
    nearest, residue, fraction_digits = _trig_rounded(n, h, digits)
    if residue > 0.25 or fraction_digits < 2:
        raise TrigPrecisionLossError(n, h, residue, fraction_digits)
    return nearest


def _leq_closed(n: int, h: int) -> int:  # takes the caller's h, so that an error names it
    if h not in (1, 3):
        raise ClosedFormUnavailableError(h)
    return 1 if n == 0 else 2 ** (n - 1) if h == 1 else (3 ** (n - 1) + 1) // 2


def _exact_closed(n: int, h: int) -> int:
    if h == 1:  # f_leq(n, 1) - f_leq(n, 0); no other h - 1, h pair has closed forms
        return 2 ** (n - 1) - 1
    raise ClosedFormUnavailableError(h, exact=True)


def _exact_convolution(n: int, h: int) -> int:
    """f_leq(n, h) - f_leq(n, h - 1), rows h - 1 and h of one pass; both are C_n once h >= n."""
    if h >= n:
        return 0
    below, top = deque(_convolution_rows(n, h), maxlen=2)
    return top[n] - below[n]


def _series_count(n: int, h: int, at_most: bool) -> int:  # entry n alone, from an O(h) window
    return next(islice(_coefficients(*_fraction(h, n, at_most)), n, None))


def _cap(n: int, h: int) -> int:  # h lowered to n - 1, past which f_leq(n, h) = C_n
    return min(h, max(n - 1, 0))


# exact is None where it is the difference of two at-most counts; at_most: the CLI reports only that
_Route = namedtuple("_Route", "leq exact check at_most", defaults=(False,))
_ROUTES = {  # each entry looks its functions up when called, so a patched one takes effect
    "convolution": _Route(lambda n, h: deque(_convolution_rows(n, _cap(n, h)), maxlen=1)[0][n],
                          _exact_convolution, "series"),
    "alternating": _Route(lambda n, h: _leq_alternating(n, _cap(n, h)), None, "series"),
    "series": _Route(lambda n, h: _series_count(n, _cap(n, h), True),
                     lambda n, h: _series_count(n, h, False), "alternating"),
    "trig": _Route(lambda n, h: trig_count(n, _cap(n, h)), None, "series"),
    "closed": _Route(_leq_closed, _exact_closed, "series", at_most=True),
}
_DEFAULT = "convolution"
METHODS = tuple(_ROUTES)


def _route(n: int, h: int, method: str) -> tuple[int, int, _Route]:
    n, h = _ints(n=(n, 0), h=(h, 0))
    if method not in METHODS:
        raise InvalidParametersError(f"unknown method {method!r}; choose from {METHODS}")
    return n, h, _ROUTES[method]


def count_leq(n: int, h: int, method: str = _DEFAULT) -> int:
    """Number of nonisomorphic n-element semiorders of length at most h."""
    n, h, route = _route(n, h, method)
    return route.leq(n, h)


def count_exact(n: int, h: int, method: str = _DEFAULT) -> int:
    """Number of nonisomorphic n-element semiorders of length exactly h; 0 at n = 0, by the
    series convention that the empty semiorder has no longest chain."""
    n, h, route = _route(n, h, method)
    if n == 0 or h == 0:  # at h = 0, the antichain alone
        return 1 if n else 0
    return route.exact(n, h) if route.exact else route.leq(n, h) - route.leq(n, h - 1)
