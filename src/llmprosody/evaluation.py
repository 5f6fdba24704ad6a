"""Listening-test aggregation: MOS summaries, paired t-tests, preference shares.

Ratings are 1-5 opinion scores per (stimulus, system, rater); preferences are
three-way forced choices per stimulus set.  Display values round half-up to
one decimal; the raw values are always kept alongside.  Confidence intervals
are t-based and labelled as such in the formatted output; the Student t
distribution is computed here from the regularised incomplete beta function.
``decimal`` is imported inside the one helper that rounds, so importing this
module does not load it.  The CLI imports this module only inside its
``eval`` commands.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple

from .errors import Checked, DataError
from .features import mean, sample_std


class RatingRecord(Checked, namedtuple("RatingRecord", "stimulus_id system_id rater_id score")):
    __slots__ = ()
    stimulus_id: str
    system_id: str
    rater_id: str
    score: int

    def _check(self) -> None:
        if self.score not in (1, 2, 3, 4, 5):
            raise DataError(f"score must be an integer 1..5, got {self.score!r}")


class PreferenceRecord(Checked, namedtuple("PreferenceRecord", "set_id rater_id chosen_system systems_in_set")):
    __slots__ = ()
    set_id: str
    rater_id: str
    chosen_system: str
    systems_in_set: tuple[str, str, str]

    def _check(self) -> None:
        if len(self.systems_in_set) != 3 or len(set(self.systems_in_set)) != 3:
            raise DataError(f"systems_in_set must name 3 distinct systems, got {self.systems_in_set!r}")
        if self.chosen_system not in self.systems_in_set:
            raise DataError(f"chosen system {self.chosen_system!r} not in {self.systems_in_set!r}")


def _round_half_up_1(numerator: int | str, denominator: int = 1) -> str:
    """``numerator / denominator`` in decimal, rounded half-up to one decimal place."""
    from decimal import ROUND_HALF_UP, Decimal

    return str((Decimal(numerator) / Decimal(denominator)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def _log_beta(a: float, b: float) -> float:
    """log B(a, b), free of the cancellation between two large ``lgamma`` values."""
    small, large = sorted((a, b))
    if a + b < 170.0:  # every gamma below is finite
        return math.log(math.gamma(a) / math.gamma(a + b) * math.gamma(b))
    # log Γ(s) - log Γ(large) by Stirling's series; with large >= 85, its first omitted term is < 1e-16
    s = large + small
    log_ratio = ((large - 0.5) * math.log1p(small / large) + small * math.log(s) - small
                 + (1 / s - 1 / large) / 12 - (1 / s**3 - 1 / large**3) / 360
                 + (1 / s**5 - 1 / large**5) / 1260)
    return math.lgamma(small) - log_ratio


def _ibeta(a: float, b: float, x: float, y: float) -> float:
    """The regularised incomplete beta function I_x(a, b), with ``y`` = 1 - x given exactly.

    Lentz's method evaluates its continued fraction, which converges fast for
    x < (a + 1) / (a + b + 2); above that, I_x(a, b) = 1 - I_y(b, a).
    """
    if x == 0.0 or y == 0.0:
        return 0.0 if x == 0.0 else 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _ibeta(b, a, y, x)
    # the log of whichever of x and y is near 1 comes from log1p of the other, which keeps its precision
    log_x, log_y = (math.log(x), math.log1p(-x)) if x < y else (math.log1p(-y), math.log(y))
    front = math.exp(a * log_x + b * log_y - _log_beta(a, b)) / a
    tiny = 1e-300  # stands in for a zero denominator
    f, c, d, k = 1.0, 1.0, 0.0, 0
    while True:
        k += 1
        m = k // 2
        if k % 2:
            term = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            term = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 + term * d
        d = 1.0 / (d if d != 0.0 else tiny)
        c = 1.0 + term / c
        c = c if c != 0.0 else tiny
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-15:
            return front / f


def _t_sf(t: float, df: int) -> float:
    """P(T > t) for Student's t with ``df`` degrees of freedom and t >= 0."""
    t2 = t * t
    return 0.5 * _ibeta(0.5 * df, 0.5, df / (df + t2), t2 / (df + t2))


def _t_ppf(p: float, df: int) -> float:
    """The quantile of Student's t with ``df`` degrees of freedom at 0.5 <= p <= 1, by bisection.

    It solves P(0 < T < t) = p - 0.5 or P(T > t) = 1 - p, whichever side is
    smaller: both are exact in floating point, and the smaller one keeps its
    relative precision.
    """
    if p == 0.5:
        return 0.0
    if p == 1.0:
        return math.inf
    central = p < 0.75

    def below(t: float) -> bool:  # is t below the quantile?
        if not central:
            return _t_sf(t, df) > 1.0 - p
        t2 = t * t
        return 0.5 * _ibeta(0.5, 0.5 * df, t2 / (df + t2), df / (df + t2)) < p - 0.5

    low, high = 0.0, 1.0
    while below(high):
        low, high = high, 2.0 * high
    while True:
        mid = 0.5 * (low + high)
        if mid in (low, high):
            return high
        if below(mid):
            low = mid
        else:
            high = mid


class MosSummary(namedtuple("MosSummary", "mean ci_halfwidth n display confidence")):
    """Per-system MOS with a t-based confidence interval at level ``confidence``."""

    __slots__ = ()
    mean: float
    ci_halfwidth: float
    n: int
    display: str  # e.g. "3.1±0.2", half-up rounding to 1 decimal
    confidence: float


def mos_summary(
    records: list[RatingRecord] | tuple[RatingRecord, ...],
    confidence: float = 0.95,
) -> dict[str, MosSummary]:
    """Mean opinion score per system with a two-tailed t confidence interval."""
    if not 0 < confidence < 1:
        raise DataError(f"confidence must be in (0, 1), got {confidence}")
    p = 0.5 + confidence / 2.0
    if p == 1.0:  # the quantile would be infinite
        raise DataError(f"confidence {confidence!r} is too close to 1: 0.5 + confidence / 2 rounds to 1")
    by_system: dict[str, list[int]] = {}
    for record in records:
        by_system.setdefault(record.system_id, []).append(record.score)
    if not by_system:
        raise DataError("no rating records")
    summaries: dict[str, MosSummary] = {}
    for system in sorted(by_system):
        scores = by_system[system]
        n = len(scores)
        if n < 2:
            raise DataError(f"system {system!r} has {n} rating(s); need at least 2")
        halfwidth = _t_ppf(p, n - 1) * sample_std(scores) / math.sqrt(n)
        display_mean = _round_half_up_1(sum(scores), n)
        display_hw = _round_half_up_1(str(halfwidth))
        summaries[system] = MosSummary(
            mean=mean(scores),
            ci_halfwidth=halfwidth,
            n=n,
            display=f"{display_mean}±{display_hw}",
            confidence=confidence,
        )
    return summaries


class TTestResult(namedtuple("TTestResult", "t p df flag", defaults=(None,))):
    __slots__ = ()
    t: float
    p: float
    df: int
    flag: str | None  # 'all_zero_differences' or 'zero_variance'


def paired_t_test(
    a: list[RatingRecord] | tuple[RatingRecord, ...],
    b: list[RatingRecord] | tuple[RatingRecord, ...],
) -> TTestResult:
    """Two-tailed paired t-test, pairing ratings by (stimulus_id, rater_id).

    Degenerate difference sets are flagged instead of crashing: identical
    pairs give (t=0, p=1), constant nonzero differences give p=0 with an
    infinite t.
    """
    def keyed(records) -> dict[tuple[str, str], int]:
        table: dict[tuple[str, str], int] = {}
        for record in records:
            key = (record.stimulus_id, record.rater_id)
            if key in table:
                raise DataError(f"duplicate rating for stimulus/rater pair {key!r}")
            table[key] = record.score
        return table

    table_a = keyed(a)
    table_b = keyed(b)
    keys = sorted(set(table_a) & set(table_b))
    if len(keys) < 2:
        raise DataError(f"need at least 2 complete pairs, got {len(keys)}")
    diffs = [float(table_a[k] - table_b[k]) for k in keys]
    df = len(keys) - 1
    if not any(diffs):
        return TTestResult(t=0.0, p=1.0, df=df, flag="all_zero_differences")
    sd = sample_std(diffs)
    mean_diff = mean(diffs)
    if sd == 0.0:
        return TTestResult(
            t=math.copysign(math.inf, mean_diff), p=0.0, df=df, flag="zero_variance"
        )
    t = mean_diff / (sd / math.sqrt(len(keys)))
    return TTestResult(t=t, p=2.0 * _t_sf(abs(t), df), df=df)


class PreferenceShare(namedtuple("PreferenceShare", "system wins fraction percent")):
    __slots__ = ()
    system: str
    wins: int
    fraction: float  # raw wins/total
    percent: float  # half-up rounded to 1 decimal


class PreferenceSummary(namedtuple("PreferenceSummary", "shares total")):
    __slots__ = ()
    shares: tuple[PreferenceShare, ...]  # ordered by wins desc, then name
    total: int


def preference_summary(
    records: list[PreferenceRecord] | tuple[PreferenceRecord, ...],
) -> PreferenceSummary:
    """Win percentage per system over three-way preference records."""
    if not records:
        raise DataError("no preference records")
    system_sets = {frozenset(record.systems_in_set) for record in records}
    if len(system_sets) != 1:
        raise DataError(f"records mix {len(system_sets)} different system sets")
    systems = sorted(system_sets.pop())
    wins = Counter(record.chosen_system for record in records)
    total = len(records)
    ordered = sorted(systems, key=lambda s: (-wins[s], s))
    shares = tuple(
        PreferenceShare(
            system=system,
            wins=wins[system],
            fraction=wins[system] / total,
            percent=float(_round_half_up_1(100 * wins[system], total)),
        )
        for system in ordered
    )
    return PreferenceSummary(shares=shares, total=total)


def style_breakdown(
    records: list[PreferenceRecord] | tuple[PreferenceRecord, ...],
    style_of_set: dict[str, str],
) -> dict[str, PreferenceSummary]:
    """Group preference records by style label and summarize each group."""
    if not records:
        raise DataError("no preference records")
    groups: dict[str, list[PreferenceRecord]] = {}
    for record in records:
        style = style_of_set.get(record.set_id)
        if style is None:
            raise DataError(f"set {record.set_id!r} has no style label")
        groups.setdefault(style, []).append(record)
    return {style: preference_summary(groups[style]) for style in sorted(groups)}


RATINGS_HEADER = "stimulus_id\tsystem_id\trater_id\tscore"
PREFERENCES_HEADER = "set_id\trater_id\tchosen_system\tsystems_in_set"
STYLE_LABELS_HEADER = "set_id\tstyle"


def _rows(document: str, header: str, n_fields: int, what: str):
    lines = document.split("\n")
    if not lines or lines[0] != header:
        raise DataError(f"{what} file must start with header {header!r}")
    for line_number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise DataError(
                f"line {line_number}: expected {n_fields} tab-separated fields, got {len(fields)}"
            )
        yield line_number, fields


def parse_ratings(document: str) -> list[RatingRecord]:
    records = []
    for line_number, fields in _rows(document, RATINGS_HEADER, 4, "ratings"):
        try:
            score = int(fields[3])
        except ValueError:
            raise DataError(f"line {line_number}: score {fields[3]!r} is not an integer") from None
        try:
            records.append(
                RatingRecord(
                    stimulus_id=fields[0], system_id=fields[1], rater_id=fields[2], score=score
                )
            )
        except DataError as exc:
            raise DataError(f"line {line_number}: {exc}") from None
    return records


def parse_preferences(document: str) -> list[PreferenceRecord]:
    records = []
    for line_number, fields in _rows(document, PREFERENCES_HEADER, 4, "preferences"):
        systems = tuple(fields[3].split(","))
        try:
            records.append(
                PreferenceRecord(
                    set_id=fields[0],
                    rater_id=fields[1],
                    chosen_system=fields[2],
                    systems_in_set=systems,
                )
            )
        except DataError as exc:
            raise DataError(f"line {line_number}: {exc}") from None
    return records


def parse_style_labels(document: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    for line_number, fields in _rows(document, STYLE_LABELS_HEADER, 2, "style labels"):
        if fields[0] in labels:
            raise DataError(f"line {line_number}: duplicate set id {fields[0]!r}")
        labels[fields[0]] = fields[1]
    return labels


def format_mos_summary(summaries: dict[str, MosSummary]) -> str:
    """Key/value rows for a MOS summary (stable system order) under the confidence it carries."""
    if not summaries:
        raise DataError("no MOS summaries to format")
    confidence, *others = {s.confidence for s in summaries.values()}
    if others:
        raise DataError(f"MOS summaries mix confidence levels {sorted([confidence, *others])}")
    lines = ["ci_method\tt-distribution", f"confidence\t{confidence!r}"]
    for system in sorted(summaries):
        s = summaries[system]
        lines.append(f"{system}.mean\t{s.mean!r}")
        lines.append(f"{system}.ci_halfwidth\t{s.ci_halfwidth!r}")
        lines.append(f"{system}.n\t{s.n}")
        lines.append(f"{system}.display\t{s.display}")
    return "\n".join(lines) + "\n"


def format_preference_summary(summary: PreferenceSummary) -> str:
    """Key/value rows for a preference summary, ordered by wins."""
    lines = [f"total\t{summary.total}"]
    for share in summary.shares:
        lines.append(f"{share.system}.percent\t{share.percent:.1f}")
        lines.append(f"{share.system}.wins\t{share.wins}")
        lines.append(f"{share.system}.fraction\t{share.fraction!r}")
    return "\n".join(lines) + "\n"


def format_style_breakdown(breakdown: dict[str, PreferenceSummary]) -> str:
    blocks = []
    for style in sorted(breakdown):
        summary = breakdown[style]
        lines = [f"{style}.total\t{summary.total}"]
        for share in summary.shares:
            lines.append(f"{style}.{share.system}.percent\t{share.percent:.1f}")
            lines.append(f"{style}.{share.system}.wins\t{share.wins}")
        blocks.append("\n".join(lines))
    return "\n".join(blocks) + "\n"
