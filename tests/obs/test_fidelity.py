"""Paper-fidelity scoreboard: tolerance arithmetic, verdicts, artifacts."""

import pytest

from repro.obs import fidelity
from repro.obs.fidelity import (
    Expectation,
    Scoreboard,
    check_expectations,
    evaluate_summaries,
)
from repro.reporting.fidelity import (
    FIDELITY,
    FIDELITY_SCHEMA,
    build_fidelity_artifact,
    scoreboard_table,
)


class TestExpectationValidation:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="op must be one of"):
            Expectation("m", 1.0, op="eq")

    def test_negative_tolerances_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Expectation("m", 1.0, abs_tol=-0.1)
        with pytest.raises(ValueError, match="non-negative"):
            Expectation("m", 1.0, rel_tol=-0.1)

    def test_drift_factor_below_one_rejected(self):
        with pytest.raises(ValueError, match="drift_factor"):
            Expectation("m", 1.0, drift_factor=0.5)

    def test_bool_takes_no_tolerance(self):
        with pytest.raises(ValueError, match="no tolerance"):
            Expectation("m", True, op="bool", abs_tol=0.1)

    def test_tolerance_is_max_of_abs_and_rel(self):
        assert Expectation("m", 10.0, abs_tol=0.3, rel_tol=0.05).tolerance == 0.5
        assert Expectation("m", 10.0, abs_tol=0.7, rel_tol=0.05).tolerance == 0.7
        # rel_tol scales with |expected|, so negative expectations work too.
        assert Expectation("m", -10.0, rel_tol=0.05).tolerance == 0.5


class TestToleranceBoundaries:
    """Verdict grading exactly at the tolerance and drift boundaries."""

    # 0.25 and its multiples are binary-exact, so the boundaries below test
    # the grading logic rather than IEEE-754 rounding accidents.
    def exp(self, **kwargs):
        kwargs.setdefault("abs_tol", 0.25)
        return Expectation("m", 1.0, **kwargs)

    def test_exactly_at_tolerance_matches(self):
        assert self.exp().check(1.25)[0] == "match"
        assert self.exp().check(0.75)[0] == "match"

    def test_just_beyond_tolerance_drifts(self):
        assert self.exp().check(1.2500001)[0] == "drift"

    def test_exactly_at_drift_boundary_drifts(self):
        # drift_factor=3 -> the band ends at deviation 0.75.
        assert self.exp().check(1.75)[0] == "drift"

    def test_beyond_drift_boundary_fails(self):
        assert self.exp().check(1.7500001)[0] == "fail"
        assert self.exp().check(5.0)[0] == "fail"

    def test_zero_tolerance_has_empty_drift_band(self):
        exact = Expectation("m", 3)
        assert exact.check(3)[0] == "match"
        assert exact.check(4)[0] == "fail"  # no drift verdict possible

    def test_custom_drift_factor(self):
        wide = self.exp(drift_factor=10.0)
        assert wide.check(2.0)[0] == "drift"  # deviation 1.0 <= 10 * 0.25
        assert wide.check(3.6)[0] == "fail"


class TestOps:
    def test_ge_overshoot_always_matches(self):
        exp = Expectation("m", 1.7, op="ge", abs_tol=0.1)
        assert exp.check(99.0)[0] == "match"
        assert exp.check(1.7)[0] == "match"

    def test_ge_shortfall_graded_against_tolerance(self):
        exp = Expectation("m", 1.7, op="ge", abs_tol=0.1)
        assert exp.check(1.6)[0] == "match"  # shortfall 0.1 == tol
        assert exp.check(1.5)[0] == "drift"
        assert exp.check(1.3)[0] == "fail"

    def test_le_is_symmetric_to_ge(self):
        exp = Expectation("m", 0.1, op="le", abs_tol=0.02)
        assert exp.check(0.01)[0] == "match"  # undershooting a cap is fine
        assert exp.check(0.12)[0] == "match"
        assert exp.check(0.15)[0] == "drift"
        assert exp.check(0.5)[0] == "fail"

    def test_bool_exact(self):
        exp = Expectation("m", True, op="bool")
        assert exp.check(True)[0] == "match"
        assert exp.check(False)[0] == "fail"

    def test_bool_rejects_non_bool(self):
        assert Expectation("m", True, op="bool").check(1)[0] == "fail"

    def test_numeric_rejects_bool_and_strings(self):
        assert Expectation("m", 1.0).check(True)[0] == "fail"
        assert Expectation("m", 1.0).check("1.0")[0] == "fail"

    def test_missing_and_nan_fail(self):
        verdict, detail = Expectation("m", 1.0).check(None)
        assert (verdict, detail) == ("fail", "metric missing from summary")
        assert Expectation("m", 1.0).check(float("nan"))[0] == "fail"


class TestDeclarationRegistry:
    def test_declare_and_read_back(self, monkeypatch):
        monkeypatch.setattr(fidelity, "_EXPECTATIONS", {})
        fidelity.declare_expectations("e1", Expectation("m", 1))
        assert fidelity.declared_experiments() == ["e1"]
        assert fidelity.expectations_for("e1")[0].metric == "m"
        assert fidelity.expectations_for("absent") == ()

    def test_double_declaration_rejected(self, monkeypatch):
        monkeypatch.setattr(fidelity, "_EXPECTATIONS", {})
        fidelity.declare_expectations("e1", Expectation("m", 1))
        with pytest.raises(ValueError, match="already declared"):
            fidelity.declare_expectations("e1", Expectation("m2", 1))

    def test_empty_declaration_rejected(self):
        with pytest.raises(ValueError, match="no expectations"):
            fidelity.declare_expectations("empty")

    def test_duplicate_metrics_rejected(self, monkeypatch):
        monkeypatch.setattr(fidelity, "_EXPECTATIONS", {})
        with pytest.raises(ValueError, match="duplicate"):
            fidelity.declare_expectations(
                "e1", Expectation("m", 1), Expectation("m", 2)
            )

    def test_experiment_modules_declare_expectations(self):
        # Importing the package pulls in every experiment module; all of
        # them must declare, and the paper's headline metrics must be present.
        import repro.experiments  # noqa: F401

        declared = fidelity.declared_experiments()
        assert "table1" in declared and "fig10" in declared
        assert "fig11" in declared and "fig12" in declared
        metrics = {
            (e, exp.metric)
            for e in declared
            for exp in fidelity.expectations_for(e)
        }
        assert ("fig10", "servers_saved_fraction") in metrics  # 50% servers
        assert ("fig12", "power_saving_fraction") in metrics  # 53% power
        assert ("fig11", "cpu_util_improvement_measured") in metrics  # 1.7x


class TestEvaluation:
    def exps(self):
        return [Expectation("a", 1.0, abs_tol=0.1), Expectation("b", True, op="bool")]

    def test_check_expectations_grades_each_metric(self):
        verdicts = check_expectations("e", {"a": 1.05, "b": False}, self.exps())
        assert [(v.metric, v.verdict) for v in verdicts] == [
            ("a", "match"),
            ("b", "fail"),
        ]
        assert verdicts[0].experiment == "e"
        assert verdicts[0].tolerance == 0.1

    def test_missing_summary_fails_all(self):
        verdicts = check_expectations("e", None, self.exps())
        assert all(v.verdict == "fail" for v in verdicts)
        assert all(v.detail == "experiment summary missing" for v in verdicts)

    def test_evaluate_defaults_to_present_experiments(self, monkeypatch):
        monkeypatch.setattr(fidelity, "_EXPECTATIONS", {})
        fidelity.declare_expectations("here", Expectation("m", 1))
        fidelity.declare_expectations("absent", Expectation("m", 1))
        scoreboard = evaluate_summaries({"here": {"m": 1}})
        assert scoreboard.experiments == ["here"]
        assert scoreboard.overall == "match"

    def test_evaluate_demanded_experiment_missing_fails(self, monkeypatch):
        monkeypatch.setattr(fidelity, "_EXPECTATIONS", {})
        fidelity.declare_expectations("absent", Expectation("m", 1))
        scoreboard = evaluate_summaries({}, experiments=["absent"])
        assert scoreboard.overall == "fail"

    def test_overall_is_worst_verdict(self):
        exp = Expectation("m", 1.0, abs_tol=0.1)
        match = check_expectations("e", {"m": 1.0}, [exp])
        drift = check_expectations("e", {"m": 1.2}, [exp])
        fail = check_expectations("e", {"m": 9.9}, [exp])
        assert Scoreboard(verdicts=tuple(match)).overall == "match"
        assert Scoreboard(verdicts=tuple(match + drift)).overall == "drift"
        assert Scoreboard(verdicts=tuple(match + drift + fail)).overall == "fail"
        board = Scoreboard(verdicts=tuple(match + drift + fail))
        assert board.counts == {"match": 1, "drift": 1, "fail": 1}
        assert len(board.drifts) == len(board.fails) == 1


class TestArtifact:
    def board(self):
        return Scoreboard(
            verdicts=tuple(
                check_expectations(
                    "e",
                    {"a": 1.0, "b": 3.0},
                    [Expectation("a", 1.0), Expectation("b", 1.0, abs_tol=0.5)],
                )
            )
        )

    def test_build_and_validate(self):
        doc = build_fidelity_artifact(
            self.board(), git_sha="abc", created_utc="2026-08-06T00:00:00+00:00"
        )
        FIDELITY.validate(doc)
        assert doc["schema"] == FIDELITY_SCHEMA
        assert doc["overall"] == "fail"  # b deviates 2.0 > 3 * 0.5
        assert doc["counts"] == {"match": 1, "drift": 0, "fail": 1}
        assert doc["git_sha"] == "abc"
        assert [v["metric"] for v in doc["verdicts"]] == ["a", "b"]

    def test_extra_keys_merged(self):
        doc = build_fidelity_artifact(self.board(), extra={"inputs": {"seed": 7}})
        assert doc["inputs"] == {"seed": 7}

    def test_validation_rejects_bad_docs(self):
        with pytest.raises(ValueError, match="schema"):
            FIDELITY.validate({"schema": "other/v9"})
        doc = build_fidelity_artifact(self.board())
        del doc["overall"]
        with pytest.raises(ValueError, match="overall"):
            FIDELITY.validate(doc)
        doc = build_fidelity_artifact(self.board())
        doc["verdicts"][0]["verdict"] = "meh"
        with pytest.raises(ValueError, match="meh"):
            FIDELITY.validate(doc)

    def test_write_is_append_only_and_round_trips(self, tmp_path):
        doc = build_fidelity_artifact(
            self.board(), git_sha="abc", created_utc="2026-08-06T00:00:00+00:00"
        )
        first = FIDELITY.write(doc, tmp_path)
        second = FIDELITY.write(doc, tmp_path)
        assert first.name == "FIDELITY_20260806_abc.json"
        assert second.name == "FIDELITY_20260806_abc_2.json"
        assert FIDELITY.load(first)["overall"] == doc["overall"]

    def test_load_rejects_corrupt_artifact(self, tmp_path):
        path = tmp_path / "FIDELITY_x.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            FIDELITY.load(path)
        with pytest.raises(FileNotFoundError):
            FIDELITY.load(tmp_path / "absent.json")


class TestScoreboardTable:
    def test_renders_rows_and_summary_line(self):
        verdicts = check_expectations(
            "e", {"a": 1.0}, [Expectation("a", 1.0, source="Fig. X")]
        )
        text = scoreboard_table(Scoreboard(verdicts=tuple(verdicts)))
        assert "experiment" in text and "verdict" in text
        assert "fidelity: match (1 match, 0 drift, 0 fail over 1 experiments)" in text

    def test_fail_is_shouted(self):
        verdicts = check_expectations("e", {}, [Expectation("a", 1.0)])
        text = scoreboard_table(Scoreboard(verdicts=tuple(verdicts)))
        assert "FAIL" in text

    def test_empty_scoreboard(self):
        text = scoreboard_table(Scoreboard(verdicts=()))
        assert "fidelity: match" in text
