import math
import random
from decimal import ROUND_HALF_UP, Decimal

import pytest
from hypothesis import given, strategies as st

from llmprosody.errors import DataError
from llmprosody.evaluation import (
    PreferenceRecord,
    RatingRecord,
    _t_ppf,
    _t_sf,
    format_mos_summary,
    format_preference_summary,
    format_style_breakdown,
    mos_summary,
    paired_t_test,
    parse_preferences,
    parse_ratings,
    parse_style_labels,
    preference_summary,
    style_breakdown,
)

from conftest import PROPERTIES
from reference import tally_preferences


def ratings(system, scores, stimulus_prefix="s", rater="r1"):
    return [
        RatingRecord(f"{stimulus_prefix}{i}", system, rater, score)
        for i, score in enumerate(scores)
    ]


def preference_records(wins_by_system, systems=("proposed", "baseline", "random")):
    """wins_by_system: dict system -> count; one record per win."""
    records = []
    k = 0
    for system, wins in wins_by_system.items():
        for _ in range(wins):
            records.append(
                PreferenceRecord(f"set{k}", f"rater{k % 8}", system, tuple(systems))
            )
            k += 1
    return records


# Frozen fixture: n=24 scores whose mean (3.125) and t-based 95% CI halfwidth
# (0.1894) display as 3.1 +/- 0.2.  Derived by exhaustive search over score
# multisets before the implementation existed.
BASELINE_MOS_SCORES = [3] * 22 + [4, 5]


class TestMosSummary:
    def test_constant_scores(self):
        summary = mos_summary(ratings("sysA", [3, 3, 3, 3]))
        s = summary["sysA"]
        assert s.mean == 3.0
        assert s.ci_halfwidth == 0.0
        assert s.n == 4
        assert s.display == "3.0±0.0"

    def test_baseline_fixture_rounds_to_target(self):
        summary = mos_summary(ratings("baseline", BASELINE_MOS_SCORES))
        assert summary["baseline"].display == "3.1±0.2"

    def test_single_rating_insufficient(self):
        with pytest.raises(DataError, match=r"system 'sysA' has 1 rating\(s\); need at least 2"):
            mos_summary(ratings("sysA", [4]))

    def test_order_and_rater_relabeling_invariance(self, rng):
        scores = [rng.randint(1, 5) for _ in range(40)]
        base = [RatingRecord(f"s{i}", "sysA", f"r{i % 8}", v) for i, v in enumerate(scores)]
        shuffled = base[:]
        rng.shuffle(shuffled)
        relabeled = [
            RatingRecord(r.stimulus_id, r.system_id, f"listener-{r.rater_id}", r.score)
            for r in shuffled
        ]
        assert mos_summary(base) == mos_summary(shuffled) == mos_summary(relabeled)

    def test_halfwidth_matches_direct_formula(self):
        from scipy import stats as sps

        scores = [1, 2, 3, 4, 5, 5, 4, 2]
        summary = mos_summary(ratings("sysA", scores))
        n = len(scores)
        mean = sum(scores) / n
        sd = math.sqrt(sum((s - mean) ** 2 for s in scores) / (n - 1))
        expected = sps.t.ppf(0.975, n - 1) * sd / math.sqrt(n)
        assert summary["sysA"].ci_halfwidth == pytest.approx(expected, abs=1e-12)

    def test_score_validation(self):
        with pytest.raises(DataError, match="score must be an integer 1..5, got 6"):
            RatingRecord("s1", "sysA", "r1", 6)

    def test_display_matches_the_scipy_interval_on_2000_rating_sets(self):
        import numpy as np
        from scipy import stats as sps

        rng = random.Random(2000)
        for _ in range(2000):
            n = rng.randint(2, 120)
            confidence = rng.choice([0.8, 0.9, 0.95, 0.99])
            scores = [rng.randint(1, 5) for _ in range(n)]
            sd = float(np.std(scores, ddof=1))
            halfwidth = float(sps.t.ppf(0.5 + confidence / 2.0, n - 1)) * sd / math.sqrt(n)
            expected = Decimal(str(halfwidth)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
            summary = mos_summary(ratings("sysA", scores), confidence=confidence)["sysA"]
            assert summary.display.split("±")[1] == str(expected), (scores, confidence)


class TestStudentT:
    @PROPERTIES
    @given(df=st.integers(1, 1000), confidence=st.floats(0.1, 1.0, exclude_max=True))
    def test_quantile_agrees_with_scipy(self, df, confidence):
        # below confidence 0.1, scipy's own quantile drifts from the closed forms tested below
        # (by 0.65 relative at confidence 1e-8 and df 1)
        from scipy import stats as sps

        p = 0.5 + confidence / 2.0
        assert _t_ppf(p, df) == pytest.approx(float(sps.t.ppf(p, df)), rel=1e-12)

    @PROPERTIES
    @given(confidence=st.floats(0.0, 0.5))
    def test_quantile_near_the_centre_equals_the_closed_forms(self, confidence):
        p = 0.5 + confidence / 2.0
        assert _t_ppf(p, 1) == pytest.approx(math.tan(math.pi * (p - 0.5)), rel=1e-14)
        assert _t_ppf(p, 2) == pytest.approx((2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p)), rel=1e-14)

    @PROPERTIES
    @given(df=st.integers(1, 1000), t=st.floats(1e-3, 1e6))
    def test_tail_agrees_with_scipy(self, df, t):
        # out to t = 1e6, where the tail underflows for all but small df; below t = 1e-4, scipy's
        # df-1 tail drifts from the closed form tested below
        from scipy import stats as sps

        assert _t_sf(t, df) == pytest.approx(float(sps.t.sf(t, df)), rel=1e-12, abs=1e-300)

    @PROPERTIES
    @given(t=st.floats(0.0, 1e6))
    def test_tail_equals_the_closed_forms(self, t):
        assert _t_sf(t, 1) == pytest.approx(math.atan2(1.0, t) / math.pi, rel=1e-14)
        root = math.sqrt(2.0 + t * t)
        assert _t_sf(t, 2) == pytest.approx(1.0 / (root * (root + t)), rel=1e-14)


class TestPairedTTest:
    def test_textbook_example_to_four_decimals(self):
        # frozen before implementation: diffs [1, 0, 1, 0, 1] over 5 pairs
        a = ratings("sysA", [5, 4, 4, 3, 5])
        b = ratings("sysB", [4, 4, 3, 3, 4])
        result = paired_t_test(a, b)
        assert result.t == pytest.approx(2.4495, abs=5e-5)
        assert result.p == pytest.approx(0.0705, abs=5e-5)
        assert result.df == 4
        assert result.flag is None

    def test_identical_scores_flagged(self):
        a = ratings("sysA", [3, 4, 5])
        b = ratings("sysB", [3, 4, 5])
        result = paired_t_test(a, b)
        assert result.t == 0.0
        assert result.p == 1.0
        assert result.flag == "all_zero_differences"

    def test_constant_nonzero_differences_flagged(self):
        a = ratings("sysA", [4, 5, 3])
        b = ratings("sysB", [3, 4, 2])
        result = paired_t_test(a, b)
        assert math.isinf(result.t) and result.t > 0
        assert result.p == 0.0
        assert result.flag == "zero_variance"

    def test_single_pair_rejected(self):
        with pytest.raises(DataError, match="need at least 2 complete pairs, got 1"):
            paired_t_test(ratings("sysA", [4]), ratings("sysB", [3]))

    def test_pairs_matched_by_stimulus_and_rater(self):
        a = [RatingRecord("s1", "A", "r1", 5), RatingRecord("s2", "A", "r1", 4),
             RatingRecord("s9", "A", "r9", 1)]
        b = [RatingRecord("s2", "B", "r1", 3), RatingRecord("s1", "B", "r1", 4),
             RatingRecord("s9", "B", "r2", 5)]
        result = paired_t_test(a, b)  # s9 has no matching rater; 2 pairs remain
        assert result.df == 1

    def test_antisymmetry(self, rng):
        for _ in range(20):
            n = rng.randint(3, 12)
            a = ratings("sysA", [rng.randint(1, 5) for _ in range(n)])
            b = ratings("sysB", [rng.randint(1, 5) for _ in range(n)])
            try:
                forward = paired_t_test(a, b)
                backward = paired_t_test(b, a)
            except DataError as exc:
                assert "complete pairs" in str(exc)
                continue
            assert forward.t == pytest.approx(-backward.t, abs=1e-12)
            assert forward.p == pytest.approx(backward.p, abs=1e-12)

    def test_shift_invariance(self):
        # adding a constant to both members of every pair leaves diffs alone
        base_a = [2, 4, 3, 5, 2, 3]
        base_b = [2, 4, 4, 3, 2, 2]
        original = paired_t_test(ratings("sysA", base_a), ratings("sysB", base_b))
        shifted = paired_t_test(
            ratings("sysA", [v - 1 for v in base_a]),
            ratings("sysB", [v - 1 for v in base_b]),
        )
        assert original.t == pytest.approx(shifted.t, abs=1e-12)
        assert original.p == pytest.approx(shifted.p, abs=1e-12)


class TestPreferenceSummary:
    def test_target_style_fixture(self):
        # 288/173/99 of 560 realize the rounded 51.4 / 30.9 / 17.7 split exactly
        records = preference_records({"proposed": 288, "baseline": 173, "random": 99})
        summary = preference_summary(records)
        assert summary.total == 560
        by_system = {s.system: s for s in summary.shares}
        assert by_system["proposed"].percent == 51.4
        assert by_system["baseline"].percent == 30.9
        assert by_system["random"].percent == 17.7
        assert [s.system for s in summary.shares] == ["proposed", "baseline", "random"]

    def test_dialogue_fixture_near_targets(self):
        # 232/149/99 of 480 is the closest integer split to 48.4 / 31.0 / 20.6
        records = preference_records({"proposed": 232, "baseline": 149, "random": 99})
        summary = preference_summary(records)
        by_system = {s.system: s for s in summary.shares}
        assert abs(by_system["proposed"].percent - 48.4) <= 0.15
        assert abs(by_system["baseline"].percent - 31.0) <= 0.15
        assert abs(by_system["random"].percent - 20.6) <= 0.15

    def test_single_record(self):
        records = preference_records({"proposed": 1, "baseline": 0, "random": 0})
        summary = preference_summary(records)
        by_system = {s.system: s for s in summary.shares}
        assert by_system["proposed"].percent == 100.0
        assert by_system["baseline"].percent == 0.0
        assert by_system["random"].percent == 0.0

    def test_order_invariance(self, rng):
        records = preference_records({"proposed": 30, "baseline": 20, "random": 10})
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert preference_summary(records) == preference_summary(shuffled)

    def test_matches_naive_tally(self, rng):
        for _ in range(20):
            counts = {
                "proposed": rng.randint(0, 40),
                "baseline": rng.randint(0, 40),
                "random": rng.randint(1, 40),
            }
            records = preference_records(counts)
            summary = preference_summary(records)
            tally = tally_preferences(records)
            for share in summary.shares:
                assert share.wins == tally[share.system]

    def test_percentages_sum_to_100(self, rng):
        for _ in range(50):
            counts = {
                "proposed": rng.randint(0, 50),
                "baseline": rng.randint(0, 50),
                "random": rng.randint(1, 50),
            }
            summary = preference_summary(preference_records(counts))
            assert abs(sum(s.percent for s in summary.shares) - 100.0) <= 0.1 + 1e-9
            assert sum(s.fraction for s in summary.shares) == pytest.approx(1.0, abs=1e-12)

    def test_half_up_rounding(self):
        # 149/400 = 37.25% must round up to 37.3 (banker's rounding would give 37.2)
        records = preference_records({"proposed": 149, "baseline": 171, "random": 80})
        by_system = {s.system: s for s in preference_summary(records).shares}
        assert by_system["proposed"].percent == 37.3

    def test_mixed_sets_rejected(self):
        records = preference_records({"proposed": 2, "baseline": 1, "random": 1})
        odd = PreferenceRecord("setX", "r1", "third", ("first", "second", "third"))
        with pytest.raises(DataError, match="records mix 2 different system sets"):
            preference_summary(records + [odd])

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="no preference records"):
            preference_summary([])

    def test_record_validation(self):
        with pytest.raises(DataError, match="chosen system 'other' not in"):
            PreferenceRecord("s", "r", "other", ("a", "b", "c"))
        with pytest.raises(DataError, match="systems_in_set must name 3 distinct systems"):
            PreferenceRecord("s", "r", "a", ("a", "b"))


def _styled_records(counts_by_style):
    records = []
    labels = {}
    k = 0
    for style, counts in counts_by_style.items():
        for system, wins in counts.items():
            for _ in range(wins):
                set_id = f"{style}-{k}"
                labels[set_id] = style
                records.append(
                    PreferenceRecord(set_id, f"r{k % 8}", system,
                                     ("proposed", "baseline", "random"))
                )
                k += 1
    return records, labels


class TestStyleBreakdown:
    def test_disjoint_styles_are_independent(self):
        records, labels = _styled_records(
            {
                "excited": {"proposed": 3, "baseline": 1, "random": 0},
                "formal": {"proposed": 1, "baseline": 2, "random": 1},
            }
        )
        breakdown = style_breakdown(records, labels)
        assert set(breakdown) == {"excited", "formal"}
        assert breakdown["excited"].total == 4
        assert breakdown["formal"].total == 4

    def test_single_style_equals_whole(self):
        records, labels = _styled_records(
            {"excited": {"proposed": 5, "baseline": 3, "random": 2}}
        )
        assert style_breakdown(records, labels)["excited"] == preference_summary(records)

    def test_six_style_fixture_matches_tally(self, rng):
        styles = ["angry", "calm", "excited", "formal", "sad", "tired"]
        counts_by_style = {
            style: {
                "proposed": rng.randint(1, 12),
                "baseline": rng.randint(1, 12),
                "random": rng.randint(1, 12),
            }
            for style in styles
        }
        records, labels = _styled_records(counts_by_style)
        breakdown = style_breakdown(records, labels)
        for style in styles:
            group = [r for r in records if labels[r.set_id] == style]
            tally = tally_preferences(group)
            for share in breakdown[style].shares:
                assert share.wins == tally[share.system]
                assert breakdown[style].total == len(group)

    def test_unlabeled_set_rejected(self):
        records, labels = _styled_records({"excited": {"proposed": 2, "baseline": 1, "random": 1}})
        del labels[records[0].set_id]
        with pytest.raises(DataError, match="has no style label"):
            style_breakdown(records, labels)

    def test_empty_rejected(self):
        with pytest.raises(DataError) as err:
            style_breakdown([], {"set0": "excited"})
        assert str(err.value) == "no preference records"
        assert err.value.exit_code == 2


RATINGS_DOC = """\
stimulus_id\tsystem_id\trater_id\tscore
s1\tbaseline\tr1\t3
s1\tproposed\tr1\t4
s2\tbaseline\tr2\t2
"""

PREFS_DOC = """\
set_id\trater_id\tchosen_system\tsystems_in_set
set1\tr1\tproposed\tproposed,baseline,random
set1\tr2\tbaseline\tproposed,baseline,random
"""


class TestFileFormats:
    def test_parse_ratings(self):
        records = parse_ratings(RATINGS_DOC)
        assert len(records) == 3
        assert records[1] == RatingRecord("s1", "proposed", "r1", 4)

    def test_parse_ratings_bad_header(self):
        with pytest.raises(DataError, match="ratings file must start with header"):
            parse_ratings("nope\n" + RATINGS_DOC)

    def test_parse_ratings_bad_score_names_line(self):
        with pytest.raises(DataError, match="score 'ten' is not an integer") as err:
            parse_ratings(RATINGS_DOC.replace("s2\tbaseline\tr2\t2", "s2\tbaseline\tr2\tten"))
        assert "line 4" in str(err.value)

    def test_parse_preferences(self):
        records = parse_preferences(PREFS_DOC)
        assert records[0].systems_in_set == ("proposed", "baseline", "random")

    def test_parse_preferences_bad_choice(self):
        with pytest.raises(DataError, match="chosen system 'oracle' not in") as err:
            parse_preferences(PREFS_DOC.replace("set1\tr2\tbaseline", "set1\tr2\toracle"))
        assert "line 3" in str(err.value)

    def test_parse_style_labels(self):
        labels = parse_style_labels("set_id\tstyle\nset1\tangry\nset2\tcalm\n")
        assert labels == {"set1": "angry", "set2": "calm"}

    def test_format_preference_summary(self):
        records = preference_records({"proposed": 288, "baseline": 173, "random": 99})
        text = format_preference_summary(preference_summary(records))
        assert "proposed.percent\t51.4" in text
        assert "baseline.percent\t30.9" in text
        assert "random.percent\t17.7" in text
        assert text.startswith("total\t560")

    def test_format_mos_summary(self):
        text = format_mos_summary(mos_summary(ratings("baseline", BASELINE_MOS_SCORES)))
        assert "ci_method\tt-distribution" in text
        assert "baseline.display\t3.1±0.2" in text

    def test_format_mos_summary_prints_the_confidence_of_its_summaries(self):
        summaries = mos_summary(ratings("baseline", BASELINE_MOS_SCORES), confidence=0.9)
        assert summaries["baseline"].confidence == 0.9
        assert format_mos_summary(summaries).split("\n")[:2] == ["ci_method\tt-distribution", "confidence\t0.9"]

    def test_format_mos_summary_refuses_no_summary_or_mixed_levels(self):
        with pytest.raises(DataError, match="no MOS summaries to format"):
            format_mos_summary({})
        mixed = {
            **mos_summary(ratings("a", [3, 4]), confidence=0.9),
            **mos_summary(ratings("b", [3, 4]), confidence=0.95),
        }
        with pytest.raises(DataError, match=r"MOS summaries mix confidence levels \[0.9, 0.95\]"):
            format_mos_summary(mixed)

    @pytest.mark.parametrize(
        "call, fragment",
        [
            pytest.param(lambda: mos_summary(ratings("a", [3, 4]), confidence=0.0),
                         "confidence must be in (0, 1), got 0.0", id="confidence-zero"),
            pytest.param(lambda: mos_summary(ratings("a", [3, 4]), confidence=1.0),
                         "confidence must be in (0, 1), got 1.0", id="confidence-one"),
            # 0.5 + confidence / 2 rounds to 1, where the t quantile is infinite
            pytest.param(lambda: mos_summary(ratings("a", [3, 4]), confidence=0.9999999999999999),
                         "confidence 0.9999999999999999 is too close to 1", id="confidence-rounds-to-one"),
            pytest.param(lambda: mos_summary([]), "no rating records", id="no-records"),
            pytest.param(lambda: paired_t_test(ratings("a", [3, 4, 3]) * 2, ratings("b", [3, 4, 3])),
                         "duplicate rating for stimulus/rater pair ('s0', 'r1')", id="duplicate-pair"),
            pytest.param(lambda: parse_ratings(RATINGS_DOC + "s3\tbaseline\tr3\n"),
                         "line 5: expected 4 tab-separated fields, got 3", id="field-count"),
            pytest.param(lambda: parse_ratings(RATINGS_DOC.replace("r2\t2", "r2\t7")),
                         "line 4: score must be an integer 1..5, got 7", id="score-out-of-range"),
            pytest.param(lambda: parse_style_labels("set_id\tstyle\nset1\tangry\nset1\tcalm\n"),
                         "line 3: duplicate set id 'set1'", id="duplicate-style-set"),
        ],
    )
    def test_refusals(self, call, fragment):
        with pytest.raises(DataError) as caught:
            call()
        assert fragment in str(caught.value)

    def test_format_style_breakdown(self):
        records, labels = _styled_records(
            {"excited": {"proposed": 2, "baseline": 1, "random": 1}}
        )
        text = format_style_breakdown(style_breakdown(records, labels))
        assert "excited.total\t4" in text
        assert "excited.proposed.percent\t50.0" in text
