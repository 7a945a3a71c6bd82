"""Integer sequences that drive digit-block sets, with exact growth checks.

Everything here is exact: terms are arbitrary-precision naturals and every
comparison is done on cross-multiplied integers, never on floats.  A term may
occupy at most ``digit_cap`` decimal digits; once a term would exceed that,
generation fails with :class:`HorizonExceededError` naming the offending
index.  (Power towers leave the representable range after a handful of
terms: with the default cap the base-2 tower stops after index 5.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import HorizonExceededError, InputError

KINDS = (
    "explicit",
    "arithmetic",
    "geometric",
    "double_exponential",
    "power_tower",
    "squared_sum",
)

DEFAULT_HORIZON = 64
DEFAULT_DIGIT_CAP = 1_000_000

#: verdict states for :func:`dimzero_criterion`
SATISFIED = "satisfied"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SequenceSpec:
    """Description of a nondecreasing natural-number sequence.

    ``horizon`` is the largest usable term index (indices 0..horizon are
    generable), and ``digit_cap`` bounds the decimal size of any single term.
    Parameter fields are kind-specific; unused ones stay ``None``.
    """

    kind: str
    horizon: int = DEFAULT_HORIZON
    digit_cap: int = DEFAULT_DIGIT_CAP
    first: int | None = None
    step: int | None = None
    ratio: int | None = None
    base: int | None = None
    seed: int | None = None
    terms: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown sequence kind {self.kind!r}")
        if self.horizon < 0:
            raise InputError("horizon must be >= 0")
        if self.digit_cap < 1:
            raise InputError("digit_cap must be >= 1")
        k = self.kind
        if k == "explicit":
            if not self.terms:
                raise InputError("explicit sequence needs a nonempty term list")
            if any(t < 1 for t in self.terms):
                raise InputError("every term must be >= 1")
        elif k == "arithmetic":
            self._need(first=self.first, step=self.step)
            if self.first < 1 or self.step < 0:
                raise InputError("arithmetic needs first >= 1 and step >= 0")
        elif k == "geometric":
            self._need(first=self.first, ratio=self.ratio)
            if self.first < 1 or self.ratio < 1:
                raise InputError("geometric needs first >= 1 and ratio >= 1")
        elif k in ("double_exponential", "power_tower"):
            self._need(base=self.base)
            if self.base < 2:
                raise InputError(f"{k} needs base >= 2")
        elif k == "squared_sum":
            self._need(seed=self.seed)
            if self.seed < 1:
                raise InputError("squared_sum needs seed >= 1")

    @staticmethod
    def _need(**fields):
        for name, value in fields.items():
            if value is None:
                raise InputError(f"missing parameter {name!r}")

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


@dataclass(frozen=True)
class GrowthVerdict:
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


_LOG10_2 = 0.30102999566398120

#: largest chunk of an arithmetic or geometric sequence produced at once
_CHUNK_MAX = 1024


def _digits_exceed(value: int, cap: int) -> bool:
    bits = value.bit_length()
    # log10(2) bounds decide all but borderline cases without big-int work;
    # the exact fallback compares against 10**cap (digits > cap iff >= 10**cap)
    if (bits - 1) * _LOG10_2 > cap:
        return True
    if bits * _LOG10_2 + 1 < cap:
        return False
    return value >= 10**cap


def _check_digits(value: int, cap: int, index: int) -> int:
    if _digits_exceed(value, cap):
        raise HorizonExceededError(
            f"term {index} exceeds the digit cap of {cap} decimal digits",
            index=index,
        )
    return value


def _monotone_chunks(spec: SequenceSpec) -> Iterator[Iterable[int]]:
    """Consecutive runs of an arithmetic or geometric sequence, doubling in size.

    The terms never decrease, so a chunk whose last term is within the digit
    cap is within it throughout.  An arithmetic chunk checks that last term;
    a geometric one bounds its bit length before building anything.  No
    chunk reaches past the horizon, as no reader asks for those terms.  From
    the first chunk that might cross the cap on, or past the horizon, the
    terms come one at a time, each checked, so the error names the first
    term past the cap.
    """
    cap, step, ratio = spec.digit_cap, spec.step, spec.ratio
    arithmetic = spec.kind == "arithmetic"
    t, i, size = spec.first, 0, 1
    while i <= spec.horizon:
        if arithmetic:
            last = t + (size - 1) * step
            fits = not _digits_exceed(last, cap)
        else:
            # t * ratio**(size-1) < 2**bits, as ratio <= 2**(ratio-1).bit_length()
            bits = t.bit_length() + (size - 1) * (ratio - 1).bit_length()
            fits = bits * _LOG10_2 + 1 < cap
        if not fits:
            break
        if arithmetic:
            yield range(t, last + 1, step) if step else repeat(t, size)
            t = last + step
        else:
            chunk = list(accumulate(repeat(ratio, size - 1), mul, initial=t))
            yield chunk
            t = chunk[-1] * ratio
        i += size
        size = min(2 * size, _CHUNK_MAX, spec.horizon + 1 - i)
    yield _stepped_terms(spec, t, i)


def _stepped_terms(spec: SequenceSpec, t: int, i: int) -> Iterator[int]:
    """Arithmetic or geometric terms from ``t`` at index ``i``, each checked."""
    cap = spec.digit_cap
    while True:
        yield _check_digits(t, cap, i)
        t = t + spec.step if spec.kind == "arithmetic" else t * spec.ratio
        i += 1


def _iter_terms(spec: SequenceSpec) -> Iterator[int]:
    cap = spec.digit_cap
    k = spec.kind
    if k == "explicit":
        for i, t in enumerate(spec.terms):
            yield _check_digits(t, cap, i)
        raise HorizonExceededError(
            f"explicit sequence has only {len(spec.terms)} terms",
            index=len(spec.terms),
        )
    if k in ("arithmetic", "geometric"):
        yield from chain.from_iterable(_monotone_chunks(spec))
    if k == "double_exponential":
        b, i = spec.base, 0
        exponent = 1  # b**n at n = 0
        while True:
            _guard_exponent(b, exponent, cap, i)
            yield _check_digits(b**exponent, cap, i)
            exponent *= b
            i += 1
    if k == "power_tower":
        t, i = 1, 0
        while True:
            yield t
            _guard_exponent(spec.base, t, cap, i + 1)
            t = _check_digits(spec.base**t, cap, i + 1)
            i += 1
    if k == "squared_sum":
        total, i = 0, 0
        t = spec.seed
        while True:
            yield _check_digits(t, cap, i)
            total += t
            t = total * total
            i += 1
    raise AssertionError(f"unhandled kind {k}")


def _guard_exponent(base: int, exponent: int, cap: int, index: int) -> None:
    # base**exponent has about exponent*log10(base) digits; refuse before
    # materializing something astronomically past the cap.
    if exponent > int(cap / math.log10(base)) + 2:
        raise HorizonExceededError(
            f"term {index} exceeds the digit cap of {cap} decimal digits",
            index=index,
        )


def terms(spec: SequenceSpec, n: int) -> list[int]:
    """First ``n`` terms a_0 .. a_{n-1}.  Requires n-1 <= horizon."""
    if n < 0:
        raise InputError("term count must be >= 0")
    if n > spec.horizon + 1:
        raise HorizonExceededError(
            f"requested term index {n - 1} is beyond horizon {spec.horizon}",
            index=spec.horizon,
        )
    return list(islice(_iter_terms(spec), n))


def prefix_sums(spec: SequenceSpec, n: int) -> list[int]:
    """Running sums of the first ``n`` terms (exact big integers)."""
    out, total = [], 0
    for t in terms(spec, n):
        total += t
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# growth checks


def lemma_inequality_check(x_lo: int, x_hi: int) -> list[tuple[int, bool]]:
    """Exact check of 2**x > 2**(x-1) + x*x for each x in [x_lo, x_hi]."""
    if not 1 <= x_lo <= x_hi:
        raise InputError("need 1 <= x_lo <= x_hi")
    return [(x, 2**x > 2 ** (x - 1) + x * x) for x in range(x_lo, x_hi + 1)]


def tail_domination(spec: SequenceSpec, k: int, eps) -> bool:
    """Whether sum(a_i, i<=k) <= (1+eps)*a_k, compared exactly."""
    eps = Fraction(eps)
    if eps < 0:
        raise InputError("eps must be >= 0")
    if k < 0:
        raise InputError("k must be >= 0")
    ts = terms(spec, k + 1)
    total = sum(ts)
    # cross-multiplied: total <= (1+eps)*a_k
    return total * eps.denominator <= (eps.denominator + eps.numerator) * ts[-1]


def dimzero_criterion(spec: SequenceSpec, K, n_lo: int, n_hi: int) -> GrowthVerdict:
    """Test whether the sequence grows fast enough to force dimension zero.

    Margins mu_n = a_n - K*sum(a_i, i<n) must be positive and strictly
    increasing over [n_lo, n_hi], and the ratios a_n / sum(a_i, i<n) must be
    strictly increasing as well (the finite stand-in for the margins
    diverging under every choice of K).  A digit-cap failure inside the
    window yields ``inconclusive`` with the failure index as witness.
    """
    K = Fraction(K)
    if K <= 0:
        raise InputError("K must be positive")
    if not 0 <= n_lo < n_hi <= spec.horizon:
        raise InputError("need 0 <= n_lo < n_hi <= horizon")
    try:
        ts = terms(spec, n_hi + 1)
    except HorizonExceededError as exc:
        return GrowthVerdict(INCONCLUSIVE, exc.index or n_hi, None)

    p, q = K.numerator, K.denominator
    prev_scaled = None  # q * margin, kept integral
    prev_ratio = None  # (a_n, S_n) pair for exact ratio comparison
    total_before = sum(ts[:n_lo])
    for n in range(n_lo, n_hi + 1):
        a_n = ts[n]
        scaled = a_n * q - p * total_before
        margin = Fraction(scaled, q)
        if scaled <= 0:
            return GrowthVerdict(VIOLATED, n, margin)
        if prev_scaled is not None and scaled <= prev_scaled:
            return GrowthVerdict(VIOLATED, n, margin)
        if total_before > 0:
            if prev_ratio is not None:
                a_prev, s_prev = prev_ratio
                # a_n/S_n must exceed a_prev/S_prev
                if a_n * s_prev <= a_prev * total_before:
                    return GrowthVerdict(VIOLATED, n, margin)
            prev_ratio = (a_n, total_before)
        prev_scaled = scaled
        total_before += a_n
    return GrowthVerdict(SATISFIED, n_hi, Fraction(prev_scaled, q))


def squared_sum_check(spec: SequenceSpec, n: int) -> list[tuple[int, bool]]:
    """Per index i < n, exact check of a_i >= (sum of earlier terms)**2."""
    ts = terms(spec, n)
    out, total = [], 0
    for i, t in enumerate(ts):
        out.append((i, t >= total * total))
        total += t
    return out


# ---------------------------------------------------------------------------
# JSON wire format

_COMMON_KEYS = {"kind", "horizon", "digit_cap"}
_KIND_KEYS = {
    "explicit": {"terms"},
    "arithmetic": {"first", "step"},
    "geometric": {"first", "ratio"},
    "double_exponential": {"base"},
    "power_tower": {"base"},
    "squared_sum": {"seed"},
}


def spec_to_json(spec: SequenceSpec) -> dict:
    obj = {"kind": spec.kind, "horizon": spec.horizon, "digit_cap": spec.digit_cap}
    for key in _KIND_KEYS[spec.kind]:
        value = getattr(spec, key)
        obj[key] = list(value) if key == "terms" else value
    return obj


def spec_from_json(obj: dict) -> SequenceSpec:
    if not isinstance(obj, dict):
        raise InputError("sequence spec must be a JSON object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise InputError(f"unknown sequence kind {kind!r}")
    allowed = _COMMON_KEYS | _KIND_KEYS[kind]
    unknown = set(obj) - allowed
    if unknown:
        raise InputError(f"unknown keys in sequence spec: {sorted(unknown)}")
    kw = {}
    for key in allowed:
        if key == "kind" or key not in obj:
            continue
        value = obj[key]
        if key == "terms":
            if not isinstance(value, list) or not all(isinstance(t, int) for t in value):
                raise InputError("terms must be a list of integers")
            kw[key] = tuple(value)
        else:
            if not isinstance(value, int) or isinstance(value, bool):
                raise InputError(f"{key} must be an integer")
            kw[key] = value
    return SequenceSpec(kind=kind, **kw)
