"""Strategy types for the three-goods cut-and-choose game.

Two players share three foods (0, 1, 2) each round. The cutter removes one
food; the chooser eats one of the remaining two; the cutter eats the leftover.

* The cutter's mixed strategy is a point on the probability simplex:
  ``p_i`` is the frequency with which food ``i`` is rejected.
* The chooser's mixed strategy is six conditional probabilities ``c[k|j]``
  (choose food ``k`` when food ``j`` is absent), pairwise normalized so that
  the two options offered in any round sum to one. Only three of the six are
  independent.
* An equivalent coordinate system uses three parameters ``t_i`` in [-1, 1]:

      c[2|0] = (1 + t0)/2    c[1|0] = (1 - t0)/2
      c[0|1] = (1 + t1)/2    c[2|1] = (1 - t1)/2
      c[1|2] = (1 + t2)/2    c[0|2] = (1 - t2)/2

Floating-point discipline
-------------------------
All invariants here are exact, not approximate:

* a constructed cutter's components sum to 1.0 bit-exactly (inputs within
  1e-12 of normalized are repaired; worse inputs are rejected);
* the two conditionals of every pair sum to 1.0 bit-exactly;
* converting a chooser to t-parameters and back reproduces it bit-exactly.

To make the round trip exact for every constructible strategy, constructors
snap each independent conditional to the nearest value that maps to and from
t-space without rounding. The snap is the identity for every float of the
form k/2**53 (in particular for everything ``random()`` can produce and for
all decimal literals people type); adversarial inputs below 1/4 with set
bits past the 54th place move by at most one ulp.

Food relabelings transfer all six stored conditionals verbatim so that a
permuted strategy is bit-for-bit the relabeled original.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    InvalidPermutation,
    NegativeProbability,
    NotNormalized,
    OutOfRange,
)

FoodIndex = int
FOODS: tuple[FoodIndex, FoodIndex, FoodIndex] = (0, 1, 2)

# Pairs compared by the preference relation, each tagged with the absent food.
PREFERENCE_PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (1, 2), (0, 2))

_SUM_TOLERANCE = 1e-12


def _require_finite_unit(value: float, name: str) -> float:
    x = float(value)
    if not (0.0 <= x <= 1.0):  # also rejects NaN
        raise OutOfRange(f"{name} must lie in [0, 1], got {value!r}")
    return x


def _canonical_conditional(c: float) -> float:
    # Nearest value whose affine image in t-space round-trips exactly.
    return 0.5 * (1.0 + (2.0 * c - 1.0))


def _exact_simplex(p0: float, p1: float, p2: float) -> tuple[float, float, float]:
    """Scale a near-normalized triple so p0 + p1 + p2 == 1.0 bit-exactly."""
    s = (p0 + p1) + p2
    if s != 1.0:
        p0, p1, p2 = p0 / s, p1 / s, p2 / s
    if (p0 + p1) + p2 == 1.0:
        return p0, p1, p2
    a = p0 + p1
    if a <= 1.0:
        # c + (1 - c) == 1.0 holds for every float c in [0, 1].
        return p0, p1, 1.0 - a
    # Only reachable when p2 is a few ulps large and p0 + p1 rounds above 1.
    return p0, 1.0 - p0, 0.0


@dataclass(frozen=True)
class CutterStrategy:
    """Rejection frequencies of the three foods; a probability simplex point."""

    p0: float
    p1: float
    p2: float

    def __post_init__(self) -> None:
        for name, value in (("p0", self.p0), ("p1", self.p1), ("p2", self.p2)):
            x = float(value)
            if x < 0.0:
                raise NegativeProbability(f"{name} must be >= 0, got {value!r}")
            if not x <= 1.0 + _SUM_TOLERANCE:  # rejects NaN and inf
                raise NotNormalized(f"{name} must be <= 1, got {value!r}")
            object.__setattr__(self, name, x)
        total = (self.p0 + self.p1) + self.p2
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise NotNormalized(
                f"rejection probabilities must sum to 1 within {_SUM_TOLERANCE}, "
                f"got sum {total!r}"
            )
        q0, q1, q2 = _exact_simplex(self.p0, self.p1, self.p2)
        object.__setattr__(self, "p0", q0)
        object.__setattr__(self, "p1", q1)
        object.__setattr__(self, "p2", q2)

    @property
    def p(self) -> tuple[float, float, float]:
        return (self.p0, self.p1, self.p2)


def make_cutter(p0: float, p1: float, p2: float) -> CutterStrategy:
    """Validate and renormalize a cutter strategy from three rejection frequencies."""
    return CutterStrategy(p0, p1, p2)


@dataclass(frozen=True)
class ChooserStrategy:
    """Six conditional choice probabilities ``c[k|j]``: pick k when j is absent.

    Field ``ckj`` holds c[k|j]; each pair given the same absent food sums to
    1.0 exactly. Build instances via :func:`make_chooser`,
    :func:`from_t_params` or :func:`symmetric_chooser`.
    """

    c10: float
    c20: float
    c01: float
    c21: float
    c02: float
    c12: float

    def __post_init__(self) -> None:
        pairs = (
            ("c10", "c20", self.c10, self.c20),
            ("c01", "c21", self.c01, self.c21),
            ("c02", "c12", self.c02, self.c12),
        )
        for name_a, name_b, a, b in pairs:
            a = _require_finite_unit(a, name_a)
            b = _require_finite_unit(b, name_b)
            if a + b != 1.0:
                raise NotNormalized(
                    f"{name_a} + {name_b} must equal 1.0 exactly, got {a + b!r}"
                )
            if _canonical_conditional(a) != a or _canonical_conditional(b) != b:
                raise NotNormalized(
                    f"{name_a}/{name_b} are not exactly representable in the "
                    "t coordinates; construct via make_chooser or from_t_params"
                )
            object.__setattr__(self, name_a, a)
            object.__setattr__(self, name_b, b)

    def conditional(self, choice: FoodIndex, absent: FoodIndex) -> float:
        """Return c[choice|absent]."""
        if choice == absent or choice not in FOODS or absent not in FOODS:
            raise OutOfRange(f"no conditional for choice={choice}, absent={absent}")
        return getattr(self, f"c{choice}{absent}")

    def as_table(self) -> dict[tuple[FoodIndex, FoodIndex], float]:
        """All six conditionals keyed by (choice, absent)."""
        return {
            (1, 0): self.c10,
            (2, 0): self.c20,
            (0, 1): self.c01,
            (2, 1): self.c21,
            (0, 2): self.c02,
            (1, 2): self.c12,
        }


def _chooser_from_primary(c20: float, c01: float, c12: float) -> ChooserStrategy:
    # The primary triple is the (1 + t)/2 side; complements derived once.
    c20 = _canonical_conditional(c20)
    c01 = _canonical_conditional(c01)
    c12 = _canonical_conditional(c12)
    return ChooserStrategy(
        c10=1.0 - c20,
        c20=c20,
        c01=c01,
        c21=1.0 - c01,
        c02=1.0 - c12,
        c12=c12,
    )


def make_chooser(c10: float, c01: float, c12: float) -> ChooserStrategy:
    """Build a chooser from the independent triple c[1|0], c[0|1], c[1|2]."""
    c10 = _require_finite_unit(c10, "c10")
    c01 = _require_finite_unit(c01, "c01")
    c12 = _require_finite_unit(c12, "c12")
    return _chooser_from_primary(1.0 - c10, c01, c12)


@dataclass(frozen=True)
class TParams:
    """Chooser coordinates t0, t1, t2, each in [-1, 1]."""

    t0: float
    t1: float
    t2: float

    def __post_init__(self) -> None:
        for name, value in (("t0", self.t0), ("t1", self.t1), ("t2", self.t2)):
            x = float(value)
            if not (-1.0 <= x <= 1.0):
                raise OutOfRange(f"{name} must lie in [-1, 1], got {value!r}")
            object.__setattr__(self, name, x)

    @property
    def t(self) -> tuple[float, float, float]:
        return (self.t0, self.t1, self.t2)


def to_t_params(chooser: ChooserStrategy) -> TParams:
    """Coordinates t_i = 2*c[plus-side] - 1; exact inverse of from_t_params."""
    return TParams(
        2.0 * chooser.c20 - 1.0,
        2.0 * chooser.c01 - 1.0,
        2.0 * chooser.c12 - 1.0,
    )


def from_t_params(t: TParams) -> ChooserStrategy:
    """Chooser with c[2|0] = (1+t0)/2, c[0|1] = (1+t1)/2, c[1|2] = (1+t2)/2."""
    return _chooser_from_primary(
        0.5 * (1.0 + t.t0),
        0.5 * (1.0 + t.t1),
        0.5 * (1.0 + t.t2),
    )


def symmetric_chooser(t: float) -> ChooserStrategy:
    """The one-parameter cyclic family: all three plus-side conditionals (1+t)/2."""
    x = float(t)
    if not (-1.0 <= x <= 1.0):
        raise OutOfRange(f"t must lie in [-1, 1], got {t!r}")
    return from_t_params(TParams(x, x, x))


class Verdict(enum.Enum):
    """Outcome of one pairwise comparison."""

    FIRST_PREFERRED = "first_preferred"
    SECOND_PREFERRED = "second_preferred"
    TIE = "tie"


class PreferenceKind(enum.Enum):
    """Shape of the chooser's pairwise preference pattern."""

    TRANSITIVE_STRICT = "transitive_strict"
    INTRANSITIVE_CYCLE_CONDITION_1 = "intransitive_cycle_condition_1"
    INTRANSITIVE_CYCLE_CONDITION_2 = "intransitive_cycle_condition_2"
    INTRANSITIVE_INDIFFERENCE = "intransitive_indifference"
    PARTIALLY_TIED = "partially_tied"


@dataclass(frozen=True)
class PreferenceRelation:
    """Pairwise verdicts for the pairs (0,1), (1,2), (0,2) at tolerance eps."""

    verdicts: tuple[Verdict, Verdict, Verdict]
    eps: float

    def winner(self, pair_index: int) -> FoodIndex | None:
        """Preferred food of the pair, or None on a tie."""
        a, b = PREFERENCE_PAIRS[pair_index]
        v = self.verdicts[pair_index]
        if v is Verdict.TIE:
            return None
        return a if v is Verdict.FIRST_PREFERRED else b


@dataclass(frozen=True)
class PreferenceClass:
    """Classification of a chooser; strict transitive patterns carry their order."""

    kind: PreferenceKind
    order: tuple[FoodIndex, FoodIndex, FoodIndex] | None = None

    def __post_init__(self) -> None:
        if (self.order is not None) != (self.kind is PreferenceKind.TRANSITIVE_STRICT):
            raise OutOfRange("order is carried exactly by TRANSITIVE_STRICT")


# Preference between a and b is read off the pair offered when the third food
# is absent: a is preferred when c[a|third] exceeds c[b|third].
_PAIR_CONDITIONALS = (
    ("c02", "c12"),  # pair (0, 1), food 2 absent
    ("c10", "c20"),  # pair (1, 2), food 0 absent
    ("c01", "c21"),  # pair (0, 2), food 1 absent
)


def classify_preferences(
    chooser: ChooserStrategy, eps: float = 0.0
) -> tuple[PreferenceRelation, PreferenceClass]:
    """Pairwise verdicts plus the cycle/order classification of a chooser.

    With eps = 0 the comparison is strict: the two cyclic win patterns map to
    the two intransitive-cycle classes, the six acyclic patterns to a strict
    transitive order, and an all-tie pattern (the t = 0 chooser) to
    intransitive indifference. Any other tie pattern is PARTIALLY_TIED.
    """
    e = float(eps)
    if not (0.0 <= e < 1.0):
        raise OutOfRange(f"eps must lie in [0, 1), got {eps!r}")

    verdicts: list[Verdict] = []
    for first_attr, second_attr in _PAIR_CONDITIONALS:
        ca = getattr(chooser, first_attr)
        cb = getattr(chooser, second_attr)
        if abs(ca - cb) <= e:
            verdicts.append(Verdict.TIE)
        elif ca > cb:
            verdicts.append(Verdict.FIRST_PREFERRED)
        else:
            verdicts.append(Verdict.SECOND_PREFERRED)
    relation = PreferenceRelation(tuple(verdicts), e)

    n_ties = sum(v is Verdict.TIE for v in verdicts)
    if n_ties == 3:
        return relation, PreferenceClass(PreferenceKind.INTRANSITIVE_INDIFFERENCE)
    if n_ties > 0:
        return relation, PreferenceClass(PreferenceKind.PARTIALLY_TIED)

    wins = [0, 0, 0]
    for i in range(3):
        wins[relation.winner(i)] += 1  # type: ignore[index]
    if sorted(wins) == [1, 1, 1]:
        # A 3-cycle; its direction is fixed by who wins the (0, 1) pair.
        if relation.winner(0) == 1:
            return relation, PreferenceClass(
                PreferenceKind.INTRANSITIVE_CYCLE_CONDITION_1
            )
        return relation, PreferenceClass(PreferenceKind.INTRANSITIVE_CYCLE_CONDITION_2)
    order = tuple(sorted(FOODS, key=lambda f: wins[f], reverse=True))
    return relation, PreferenceClass(PreferenceKind.TRANSITIVE_STRICT, order)  # type: ignore[arg-type]


def _check_permutation(perm: Sequence[int]) -> tuple[int, int, int]:
    try:
        p = tuple(int(x) for x in perm)
    except (TypeError, ValueError) as exc:
        raise InvalidPermutation(f"not a permutation of (0, 1, 2): {perm!r}") from exc
    if sorted(p) != [0, 1, 2]:
        raise InvalidPermutation(f"not a permutation of (0, 1, 2): {perm!r}")
    return p  # type: ignore[return-value]


def permute_foods(
    cutter: CutterStrategy,
    chooser: ChooserStrategy,
    perm: Iterable[int],
) -> tuple[CutterStrategy, ChooserStrategy]:
    """Relabel foods: new index perm[i] plays the role old index i played.

    The permuted strategies carry the original probabilities verbatim
    (p'[perm[i]] == p[i] and c'[perm[k]|perm[j]] == c[k|j], bit for bit).
    """
    sigma = _check_permutation(perm)
    new_p = [0.0, 0.0, 0.0]
    for i in FOODS:
        new_p[sigma[i]] = cutter.p[i]
    # Bypass __post_init__: its exact-sum repair is order-dependent at ulp
    # level, the relabeling contract is bitwise, and a relabeled valid cutter
    # is valid.
    new_cutter = object.__new__(CutterStrategy)
    for name, value in zip(("p0", "p1", "p2"), new_p):
        object.__setattr__(new_cutter, name, value)

    table = chooser.as_table()
    new_table = {(sigma[k], sigma[j]): v for (k, j), v in table.items()}
    new_chooser = ChooserStrategy(
        c10=new_table[(1, 0)],
        c20=new_table[(2, 0)],
        c01=new_table[(0, 1)],
        c21=new_table[(2, 1)],
        c02=new_table[(0, 2)],
        c12=new_table[(1, 2)],
    )
    return new_cutter, new_chooser
