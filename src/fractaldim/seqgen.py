"""Integer sequences that drive digit-block sets, with exact growth checks.

Everything here is exact: terms are arbitrary-precision naturals and every
comparison is done on cross-multiplied integers, never on floats.  A term may
occupy at most min(``digit_cap``, ``_TERM_DIGIT_BUDGET``) decimal digits.
Once a term would exceed that limit, generation fails, naming the offending
index: with :class:`HorizonExceededError` when the cap is the limit, and
with :class:`BudgetExceededError` under a larger cap.  (Power towers leave
the representable range after a handful of terms: with the default cap the
base-2 tower stops after index 5.)  A power or square term surely past the
limit is refused before it is built.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import accumulate, count, islice, repeat
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from ._digits import _digits_exceed, _power_exceeds
from .errors import BudgetExceededError, HorizonExceededError, InputError, check_object

# each kind's parameter fields, in the order errors name them, and their least values
_KIND_KEYS = {
    "explicit": {"terms": 1},
    "arithmetic": {"first": 1, "step": 0},
    "geometric": {"first": 1, "ratio": 1},
    "double_exponential": {"base": 2},
    "power_tower": {"base": 2},
    "squared_sum": {"seed": 1},
}
KINDS = tuple(_KIND_KEYS)

DEFAULT_HORIZON = 64
DEFAULT_DIGIT_CAP = 1_000_000
# Digits any one term may reach under a larger cap, so a huge cap stops at the
# term where a cap of this size stops.
_TERM_DIGIT_BUDGET = DEFAULT_DIGIT_CAP

#: verdict states for :func:`dimzero_criterion`
SATISFIED = "satisfied"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


class _SequenceSpec(NamedTuple):
    kind: str
    horizon: int = DEFAULT_HORIZON
    digit_cap: int = DEFAULT_DIGIT_CAP
    first: int | None = None
    step: int | None = None
    ratio: int | None = None
    base: int | None = None
    seed: int | None = None
    terms: tuple[int, ...] | None = None


class SequenceSpec(_SequenceSpec):
    """Description of a nondecreasing natural-number sequence.

    ``horizon`` is the largest usable term index (indices 0..horizon are
    generable), and ``digit_cap`` bounds the decimal size of any single term.
    Parameter fields are kind-specific; unused ones stay ``None``.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kw):
        self = super().__new__(cls, *args, **kw)
        if self.kind not in KINDS:
            raise InputError(f"unknown sequence kind {self.kind!r}")
        if self.horizon < 0:
            raise InputError("horizon must be >= 0")
        if self.digit_cap < 1:
            raise InputError("digit_cap must be >= 1")
        k, least = self.kind, _KIND_KEYS[self.kind]
        if k == "explicit" and not self.terms:
            raise InputError("explicit sequence needs a nonempty term list")
        for name in least:
            if getattr(self, name) is None:
                raise InputError(f"missing parameter {name!r}")
        if k == "explicit":
            if any(t < 1 for t in self.terms):
                raise InputError("every term must be >= 1")
        elif any(getattr(self, name) < v for name, v in least.items()):
            needs = " and ".join(f"{name} >= {v}" for name, v in least.items())
            raise InputError(f"{k} needs {needs}")
        return self

    # -- convenience constructors -------------------------------------

    @classmethod
    def explicit(cls, terms: Sequence[int], **kw) -> "SequenceSpec":
        return cls(kind="explicit", terms=tuple(terms), **kw)

    @classmethod
    def arithmetic(cls, first: int, step: int, **kw) -> "SequenceSpec":
        return cls(kind="arithmetic", first=first, step=step, **kw)

    @classmethod
    def geometric(cls, first: int, ratio: int, **kw) -> "SequenceSpec":
        return cls(kind="geometric", first=first, ratio=ratio, **kw)

    @classmethod
    def double_exponential(cls, base: int, **kw) -> "SequenceSpec":
        return cls(kind="double_exponential", base=base, **kw)

    @classmethod
    def power_tower(cls, base: int, **kw) -> "SequenceSpec":
        return cls(kind="power_tower", base=base, **kw)

    @classmethod
    def squared_sum(cls, seed: int, **kw) -> "SequenceSpec":
        return cls(kind="squared_sum", seed=seed, **kw)


class GrowthVerdict(NamedTuple):
    """Outcome of the dimension-zero growth criterion on a window.

    ``satisfied`` means every margin a_n - K*sum(a_i, i<n) in the window is
    positive and strictly increasing AND the ratio a_n / sum(a_i, i<n) is
    strictly increasing.  The ratio clause is what distinguishes genuinely
    super-geometric growth: margins alone grow for any geometric sequence
    once K is below ratio-1, but a_n - K*sum diverges for *every* K exactly
    when a_n/sum is unbounded.
    """

    status: str
    witness_index: int
    margin: Fraction | None


# ---------------------------------------------------------------------------
# term generation


def _too_long(index: int, cap: int, limit: int) -> Exception:
    """The error for term ``index`` past ``limit`` digits: the cap's when the cap is the limit."""
    if limit == cap:
        return HorizonExceededError(
            f"term {index} exceeds the digit cap of {cap} decimal digits", index=index
        )
    return BudgetExceededError(
        f"term {index} has over {limit} decimal digits, the budget of any one term"
    )


def _raw_terms(spec: SequenceSpec) -> Iterator[int]:
    """The terms a_0, a_1, .. without the digit limit; an explicit list ends in an error.

    Arithmetic and geometric terms come straight from C iterators, with no
    generator frame around them.  The other kinds refuse an exponent or a
    square surely past the limit before building it.
    """
    if spec.kind == "arithmetic":
        return count(spec.first, spec.step)
    if spec.kind == "geometric":
        return accumulate(repeat(spec.ratio), mul, initial=spec.first)
    return _grown_terms(spec)


def _grown_terms(spec: SequenceSpec) -> Iterator[int]:
    cap, k = spec.digit_cap, spec.kind
    limit = min(cap, _TERM_DIGIT_BUDGET)
    if k == "explicit":
        yield from spec.terms
        raise HorizonExceededError(
            f"explicit sequence has only {len(spec.terms)} terms",
            index=len(spec.terms),
        )
    if k == "double_exponential":
        b, i = spec.base, 0
        exponent = 1  # b**n at n = 0
        while True:
            if _power_exceeds(b, exponent, limit):  # surely too long: refused unbuilt
                raise _too_long(i, cap, limit)
            yield b**exponent
            exponent *= b
            i += 1
    if k == "power_tower":
        t, i = 1, 0
        while True:
            yield t
            i += 1
            if _power_exceeds(spec.base, t, limit):
                raise _too_long(i, cap, limit)
            t = spec.base**t
    if k == "squared_sum":
        total, t = 0, spec.seed
        for i in count(1):
            yield t
            total += t
            # total**2 has more than limit digits if total has more than limit/2, rounded up
            if _digits_exceed(total, (limit + 1) // 2):
                raise _too_long(i, cap, limit)
            t = total * total
    raise AssertionError(f"unhandled kind {k}")


def _safe_prefix(spec: SequenceSpec) -> int:
    """How many leading terms surely fit under the digit limit, at most horizon + 1.

    Arithmetic and geometric terms never decrease.  An arithmetic prefix is
    exact: everything through the horizon, or up to the first term reaching
    10**limit.  A geometric one is all or nothing, from a bound on the bit
    length of the term at the horizon.  Every other kind gets 0.
    """
    limit, n = min(spec.digit_cap, _TERM_DIGIT_BUDGET), spec.horizon + 1
    if spec.kind == "arithmetic":
        first, step = spec.first, spec.step
        if not _digits_exceed(first + spec.horizon * step, limit):
            return n
        # step > 0 here unless the first term is already too long
        return max(0, -((first - 10**limit) // step)) if step else 0
    if spec.kind == "geometric":
        if spec.ratio == 1:
            return 0 if _digits_exceed(spec.first, limit) else n
        # a_horizon < 2**bits, as ratio <= 2**(ratio-1).bit_length(); and
        # 2**bits < 10**limit when 10*bits <= 33*limit, as 2**33 < 10**10
        bits = spec.first.bit_length() + spec.horizon * (spec.ratio - 1).bit_length()
        return n if 10 * bits <= 33 * limit else 0
    return 0


def _iter_terms(spec: SequenceSpec) -> Iterator[int]:
    """The terms a_0, a_1, .., each past the safe prefix checked against the digit limit."""
    cap = spec.digit_cap
    limit = min(cap, _TERM_DIGIT_BUDGET)
    raw, known = _raw_terms(spec), _safe_prefix(spec)
    yield from islice(raw, min(known, sys.maxsize))
    for i, t in enumerate(raw, known):
        if _digits_exceed(t, limit):
            raise _too_long(i, cap, limit)
        yield t


def terms(spec: SequenceSpec, n: int) -> list[int]:
    """First ``n`` terms a_0 .. a_{n-1}.  Requires n-1 <= horizon."""
    return list(_first_terms(spec, n))


def _first_terms(spec: SequenceSpec, n: int) -> Iterator[int]:
    """The stream of the first ``n`` terms, with n checked before any term is drawn."""
    if n < 0:
        raise InputError("term count must be >= 0")
    if n > spec.horizon + 1:
        raise HorizonExceededError(
            f"requested term index {n - 1} is beyond horizon {spec.horizon}",
            index=spec.horizon,
        )
    if n > sys.maxsize:
        raise InputError(f"term count must be <= {sys.maxsize}")
    return islice(_iter_terms(spec), n)


# ---------------------------------------------------------------------------
# growth checks


def tail_domination(spec: SequenceSpec, k: int, eps) -> bool:
    """Whether sum(a_i, i<=k) <= (1+eps)*a_k, compared exactly."""
    eps = Fraction(eps)
    if eps < 0:
        raise InputError("eps must be >= 0")
    if k < 0:
        raise InputError("k must be >= 0")
    total = 0
    for last in _first_terms(spec, k + 1):
        total += last
    # cross-multiplied: total <= (1+eps)*a_k
    return total * eps.denominator <= (eps.denominator + eps.numerator) * last


def dimzero_criterion(spec: SequenceSpec, K, n_lo: int, n_hi: int) -> GrowthVerdict:
    """Test whether the sequence grows fast enough to force dimension zero.

    Margins mu_n = a_n - K*sum(a_i, i<n) must be positive and strictly
    increasing over [n_lo, n_hi], and the ratios a_n / sum(a_i, i<n) must be
    strictly increasing as well (the finite stand-in for the margins
    diverging under every choice of K).  A term past the digit limit anywhere
    in [0, n_hi] yields ``inconclusive`` with its index as witness, so terms
    are still drawn after a violation; they stream, held one at a time.
    """
    K = Fraction(K)
    if K <= 0:
        raise InputError("K must be positive")
    if not 0 <= n_lo < n_hi <= spec.horizon:
        raise InputError("need 0 <= n_lo < n_hi <= horizon")
    p, q = K.numerator, K.denominator
    # prev_scaled is q * margin, kept integral; prev_ratio the pair (a_n, S_n)
    verdict = prev_scaled = prev_ratio = None
    total_before, n = 0, -1
    try:
        for n, a_n in enumerate(_first_terms(spec, n_hi + 1)):
            if n < n_lo or verdict is not None:  # after a violation, only a failing term matters
                total_before += a_n
                continue
            scaled = a_n * q - p * total_before
            if (
                scaled <= 0
                or (prev_scaled is not None and scaled <= prev_scaled)
                # a_n/S_n must exceed a_prev/S_prev
                or (prev_ratio is not None and a_n * prev_ratio[1] <= prev_ratio[0] * total_before)
            ):
                verdict = GrowthVerdict(VIOLATED, n, Fraction(scaled, q))
                continue
            if total_before > 0:
                prev_ratio = (a_n, total_before)
            prev_scaled = scaled
            total_before += a_n
    except (HorizonExceededError, BudgetExceededError):  # term n + 1 is past the limit
        return GrowthVerdict(INCONCLUSIVE, n + 1, None)
    return verdict or GrowthVerdict(SATISFIED, n_hi, Fraction(prev_scaled, q))


def squared_sum_check(spec: SequenceSpec, n: int) -> list[tuple[int, bool]]:
    """Per index i < n, exact check of a_i >= (sum of earlier terms)**2."""
    out, total = [], 0
    for i, t in enumerate(_first_terms(spec, n)):
        # total**2 has 2b-1 or 2b bits for b = total.bit_length() >= 1, so
        # only a term of one of those lengths needs the square
        bits, b2 = t.bit_length(), 2 * total.bit_length()
        out.append((i, bits > b2 or (bits >= b2 - 1 and t >= total * total)))
        total += t
    return out


# ---------------------------------------------------------------------------
# JSON wire format


def spec_from_json(obj: dict) -> SequenceSpec:
    check_object(obj, "sequence spec")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise InputError(f"unknown sequence kind {kind!r}")
    allowed = ("horizon", "digit_cap", *_KIND_KEYS[kind])
    check_object(obj, "sequence spec", ("kind", *allowed))
    kw = {}
    for key in allowed:
        if key not in obj:
            continue
        value = obj[key]
        if key == "terms":  # an integer is a value whose type is int, so never a bool
            if not isinstance(value, list) or not all(type(t) is int for t in value):
                raise InputError("terms must be a list of integers")
            value = tuple(value)
        elif type(value) is not int:
            raise InputError(f"{key} must be an integer")
        kw[key] = value
    return SequenceSpec(kind=kind, **kw)
