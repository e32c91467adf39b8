import io
import json
import math
import sys
from pathlib import Path

import jsonschema
import pytest

from credalbox import (
    NO_MANDATE,
    DecisionReport,
    ToleranceSpec,
    TraceRow,
    explore,
    load_fixture,
    load_path,
)
from credalbox import cli
from credalbox.cli import main
from credalbox.replicate import fixture_text
from support import chain_document

REPORT_SCHEMA = Path(__file__).resolve().parent.parent / "schema" / "report.schema.json"


@pytest.fixture
def fixture_path(tmp_path):
    def write(name):
        target = tmp_path / f"{name}.json"
        target.write_text(fixture_text(name), encoding="utf-8")
        return str(target)
    return write


@pytest.fixture
def undecidable_path(tmp_path):
    # no levels at all: only the vacuous level 0, where neither act
    # dominates, so exploration ends without a mandate
    doc = {
        "problem": "stuck",
        "acts": [
            {"name": "a1", "outcomes": [
                {"label": "G", "utility": 10.0},
                {"label": "not-G", "utility": -30.0},
            ]},
            {"name": "a2", "outcomes": [
                {"label": "H", "utility": -10.0},
                {"label": "not-H", "utility": 0.0},
            ]},
        ],
    }
    target = tmp_path / "stuck.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    return str(target)


@pytest.mark.parametrize("extra, code", [([], 0), (["--tolerance", "0.04"], 2)],
                         ids=["decided", "no-mandate"])
def test_run_exits_with_the_code_main_returns(fixture_path, capsys, monkeypatch,
                                              extra, code):
    argv = ["decide", fixture_path("example_a"), *extra]
    assert main(argv) == code
    want = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["credalbox", *argv])
    with pytest.raises(SystemExit) as exc_info:
        cli.run()
    assert exc_info.value.code == code
    assert capsys.readouterr() == want


class TestDecide:
    def test_decides_berry_problem(self, fixture_path, capsys):
        code = main(["decide", fixture_path("example_c_berry")])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: decided  act: a2  level: 2" in out

    def test_decides_classification_problem(self, fixture_path, capsys):
        code = main(["decide", fixture_path("example_b")])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: decided  act: a1" in out

    def test_table_rounds_to_four_decimals(self, fixture_path, capsys):
        main(["decide", fixture_path("example_a")])
        out = capsys.readouterr().out
        assert "[-16.0000, 10.0000]" in out
        assert "[-5.5000, 0.0000]" in out

    def test_no_mandate_exits_two(self, undecidable_path, capsys):
        code = main(["decide", undecidable_path])
        out = capsys.readouterr().out
        assert code == 2
        assert "status: no mandate within tolerance" in out

    def test_tolerance_override(self, fixture_path, capsys):
        code = main(["decide", fixture_path("example_a"),
                     "--tolerance", "0.04"])
        assert code == 2
        assert "no mandate" in capsys.readouterr().out

    def test_odds_derived_override(self, fixture_path, capsys):
        # stakes 10 against 30 put the cutoff at 0.25, excluding the
        # only level that separates the acts
        code = main(["decide", fixture_path("example_a"), "--odds-derived"])
        out = capsys.readouterr().out
        assert code == 2
        assert "tolerance: 0.25" in out

    def test_json_matches_library_report(self, fixture_path, capsys):
        path = fixture_path("example_c_berry")
        code = main(["decide", path, "--json"])
        got = json.loads(capsys.readouterr().out)
        assert code == 0
        doc = load_fixture("example_c_berry")
        want = explore(doc.problem, doc.build_sequence(), doc.tolerance)
        assert got == want.to_dict()

    @pytest.mark.parametrize("name", ["example_a", "example_b", "example_c_berry",
                                      "example_c_lottery", "example_d"])
    @pytest.mark.parametrize("flags", [[], ["--odds-derived"]])
    def test_json_bytes_match_an_indented_dump(self, fixture_path, capsys, name, flags):
        main(["decide", fixture_path(name), "--json", *flags])
        doc = load_fixture(name)
        spec = ToleranceSpec.odds_derived() if flags else doc.tolerance
        want = explore(doc.problem, doc.build_sequence(), spec)
        assert capsys.readouterr().out == json.dumps(
            want.to_dict(), indent=2, allow_nan=False) + "\n"

    def test_json_non_finite_value_exits_one(self, fixture_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "explore", lambda *args: DecisionReport(
            "p", NO_MANDATE, 0.5, trace=(TraceRow(0, math.inf, {}, ()),)))
        code = main(["decide", fixture_path("example_a"), "--json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("error: Out of range float values are not JSON "
                                "compliant: inf\n")

    def test_json_validates_against_report_schema(self, fixture_path, capsys):
        main(["decide", fixture_path("example_b"), "--json"])
        got = json.loads(capsys.readouterr().out)
        schema = json.loads(REPORT_SCHEMA.read_text(encoding="utf-8"))
        jsonschema.validate(got, schema)

    def test_json_no_mandate_validates_too(self, undecidable_path, capsys):
        code = main(["decide", undecidable_path, "--json"])
        got = json.loads(capsys.readouterr().out)
        assert code == 2
        schema = json.loads(REPORT_SCHEMA.read_text(encoding="utf-8"))
        jsonschema.validate(got, schema)
        assert got["act"] is None

    def test_json_extreme_stakes_stay_valid(self, tmp_path, capsys):
        # a gain of 1e-320 against a loss of 1e300 overflows the odds to
        # infinity, which puts the odds-derived tolerance at its limit 0
        doc = {
            "problem": "extreme",
            "acts": [{"name": "a1", "outcomes": [
                {"label": "G", "utility": 1e-320},
                {"label": "not-G", "utility": -1e300},
            ]}],
            "tolerance": {"mode": "odds-derived"},
        }
        target = tmp_path / "extreme.json"
        target.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["decide", str(target), "--json"])
        got = json.loads(capsys.readouterr().out,
                         parse_constant=lambda name: pytest.fail(name))
        assert code == 2
        assert got["tolerance"] == 0.0
        schema = json.loads(REPORT_SCHEMA.read_text(encoding="utf-8"))
        jsonschema.validate(got, schema)

    def test_overflowing_expected_utility_names_the_act(self, tmp_path, capsys):
        # lower bounds a hair above 1 on two maximal utilities push the
        # expected utility past the largest float
        top = 1.7976931348623157e308
        doc = {
            "problem": "overflow",
            "acts": [{"name": "huge", "outcomes": [
                {"label": "G", "utility": top, "prob": [0.5000000004, 0.6]},
                {"label": "not-G", "utility": top, "prob": [0.5000000004, 0.6]},
            ]}],
        }
        target = tmp_path / "overflow.json"
        target.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["decide", str(target)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "'huge'" in err

    def test_huge_utilities_print_in_short_form(self, tmp_path, capsys):
        doc = {
            "problem": "huge",
            "acts": [{"name": "a1", "outcomes": [
                {"label": "G", "utility": 1e300},
                {"label": "not-G", "utility": -2.5},
            ]}],
        }
        target = tmp_path / "huge.json"
        target.write_text(json.dumps(doc), encoding="utf-8")
        main(["decide", str(target)])
        assert "[-2.5000, 1e+300]" in capsys.readouterr().out

    @pytest.mark.parametrize("doc,code,line", [
        # level 0 already lies beyond the tolerance, so nothing is explored
        ({"problem": "far", "acts": [{"name": "a1", "outcomes": [
            {"label": "G", "utility": 1.0}]}],
          "tolerance": {"mode": "explicit", "max_error": 0.1},
          "levels": [{"error": 0.5}]},
         2, "(no level lies within tolerance)"),
        # point probabilities with equal expected utilities
        ({"problem": "tie", "acts": [
            {"name": "a", "outcomes": [
                {"label": "G", "utility": 10.0, "prob": [0.5, 0.5]},
                {"label": "not-G", "utility": 0.0, "prob": [0.5, 0.5]}]},
            {"name": "b", "outcomes": [
                {"label": "H", "utility": 5.0, "prob": [1.0, 1.0]}]}]},
         0, "status: risk problem (point probabilities, best acts tied)  "
            "first best act: a  level: 0"),
    ], ids=["no-level-within-tolerance", "risk-problem"])
    def test_table_report_lines(self, tmp_path, capsys, doc, code, line):
        target = tmp_path / "doc.json"
        target.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["decide", str(target)]) == code
        assert line in capsys.readouterr().out.splitlines()

    def test_next_most_probable_chain_file(self, tmp_path, capsys):
        target = tmp_path / "chain.json"
        target.write_text(json.dumps(chain_document(12)), encoding="utf-8")
        code = main(["decide", str(target), "--json"])
        got = json.loads(capsys.readouterr().out)
        assert code == 0
        doc = load_path(target)
        assert got == explore(doc.problem, doc.build_sequence(), doc.tolerance).to_dict()
        jsonschema.validate(got, json.loads(REPORT_SCHEMA.read_text(encoding="utf-8")))
        # see chain_document: c5's membership, accepted in body 12, is the
        # first to lift the lower bound on E above 1/3
        assert (got["status"], got["act"], got["level_used"]) == ("decided", "bet", 12)
        assert got["error_used"] == pytest.approx(0.022)

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(["decide", str(tmp_path / "nope.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")

    def test_conflicting_tolerance_flags(self, fixture_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["decide", fixture_path("example_a"),
                  "--tolerance", "0.1", "--odds-derived"])
        assert exc_info.value.code == 1


class TestCompare:
    def test_wide_level_keeps_both_acts(self, fixture_path, capsys):
        code = main(["compare", fixture_path("example_a"), "--level", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "a1: [-16.0000, 10.0000]" in out
        assert "a2: [-5.5000, 0.0000]" in out
        lines = {line.split()[0]: line for line in out.splitlines()
                 if line and line.split()[0] in
                 ("dominance", "maximin", "min-regret", "midpoint", "leximin")}
        assert "a1 a2" in lines["dominance"]
        assert lines["maximin"].split()[1] == "a2"
        assert lines["min-regret"].split()[1] == "a2"
        assert "a2 > a1" in lines["midpoint"]
        assert lines["leximin"].split()[1] == "a2"

    def test_sharp_level_collapses_every_criterion(self, fixture_path, capsys):
        code = main(["compare", fixture_path("example_a"), "--level", "2"])
        out = capsys.readouterr().out
        assert code == 0
        for criterion in ("dominance", "maximin", "min-regret", "midpoint",
                          "leximin"):
            row = next(line for line in out.splitlines()
                       if line.startswith(criterion))
            assert row.split()[1] == "a1"

    def test_level_defaults_to_zero(self, fixture_path, capsys):
        main(["compare", fixture_path("example_a")])
        assert "level: 0 (error 0)" in capsys.readouterr().out

    def test_pessimistic_hurwicz_agrees_with_maximin(self, fixture_path, capsys):
        main(["compare", fixture_path("example_a"), "--level", "1",
              "--alpha", "0"])
        out = capsys.readouterr().out
        maximin_row = next(line for line in out.splitlines()
                           if line.startswith("maximin"))
        hurwicz_row = next(line for line in out.splitlines()
                           if line.startswith("hurwicz(0)"))
        assert hurwicz_row.split()[1] == maximin_row.split()[1]

    @pytest.mark.parametrize("alpha, shown", [("2", "2.0"), ("nan", "nan"),
                                              ("-0.5", "-0.5")])
    def test_refused_alpha_prints_nothing(self, fixture_path, capsys, alpha, shown):
        code = main(["compare", fixture_path("example_a"), "--level", "1",
                     "--alpha", alpha])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"error: hurwicz alpha must lie in [0, 1], got {shown}\n")

    def test_out_of_range_level(self, fixture_path, capsys):
        code = main(["compare", fixture_path("example_a"), "--level", "7"])
        err = capsys.readouterr().err
        assert code == 1
        assert "does not exist" in err


class TestReplicate:
    @pytest.mark.parametrize("example", ["a", "B", "c", "D"])
    def test_examples_pass(self, example, capsys):
        code = main(["replicate", example])
        out = capsys.readouterr().out
        assert code == 0
        assert f"example {example.upper()}: all checks passed" in out

    def test_unknown_example_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["replicate", "Q"])
        assert exc_info.value.code == 1


class TestCp:
    @pytest.mark.parametrize("argv,expected", [
        (["cp", "0", "10", "0.95"], "[0.0000, 0.3085]"),
        (["cp", "4", "4", "0.99"], "[0.2659, 1.0000]"),
        (["cp", "5", "5", "0.9999"], "[0.1380, 1.0000]"),
        # the tails no longer sum n + 1 terms, so a hundred million is quick
        (["cp", "12345678", "100000000", "0.95"], "[0.1234, 0.1235]"),
    ])
    def test_four_decimal_output(self, argv, expected, capsys):
        code = main(argv)
        assert code == 0
        assert capsys.readouterr().out.strip() == expected

    def test_impossible_counts(self, capsys):
        code = main(["cp", "11", "10", "0.95"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestDsThreshold:
    def test_crossing_prints_rate_and_both_sides(self, capsys):
        code = main(["ds-threshold", "--m1", "0.7,0.3", "--m2", "0.6,0.4",
                     "--target", "0.75"])
        out = capsys.readouterr().out
        assert code == 0
        assert "threshold discount rate: 0.2308" in out
        below = next(line for line in out.splitlines() if "below" in line)
        above = next(line for line in out.splitlines() if "above" in line)
        assert "mandates a1" in below
        assert "mandates a2" in above

    def test_target_met_only_at_full_discount(self, capsys):
        code = main(["ds-threshold", "--m1", "0.7,0.3", "--m2", "0.6,0.4",
                     "--target", "0.7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "threshold discount rate: 1.0000" in out
        assert "below" in out
        assert "above" not in out

    def test_unreachable_target_exits_one(self, capsys):
        code = main(["ds-threshold", "--m1", "0.7,0.3", "--m2", "0.6,0.4",
                     "--target", "0.8"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err

    def test_malformed_mass_exits_one(self, capsys):
        code = main(["ds-threshold", "--m1", "0.7", "--m2", "0.6,0.4",
                     "--target", "0.75"])
        assert code == 1
        assert "--m1" in capsys.readouterr().err

    def test_belief_on_the_break_even_point_mandates_nothing(self, capsys):
        # an even second source leaves the pooled belief at 0.75 for every
        # rate, where betting on G (10 or -30) breaks even with passing
        code = main(["ds-threshold", "--m1", "0.75,0.25", "--m2", "0.5,0.5",
                     "--target", "0.75"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "threshold discount rate: 0.0000",
            "  above (r = 0.0010): belief 0.7500 no mandate",
        ]

    def test_non_number_mass_exits_one(self, capsys):
        code = main(["ds-threshold", "--m1", "x,1", "--m2", "0.6,0.4",
                     "--target", "0.5"])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: --m1: masses must be numbers, got 'x,1'\n"

    def test_nan_mass_exits_one(self, capsys):
        code = main(["ds-threshold", "--m1", "nan,1", "--m2", "0.6,0.4",
                     "--target", "0.5"])
        assert code == 1
        assert "error: mass for ['G'] is not finite: nan" in capsys.readouterr().err

    def test_unknown_event_exits_one(self, capsys):
        code = main(["ds-threshold", "--m1", "0.7,0.3", "--m2", "0.6,0.4",
                     "--target", "0.5", "--event", "Z"])
        assert code == 1


class TestParserBasics:
    def test_no_arguments_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert capsys.readouterr().out.startswith("credalbox ")

    def test_parser_is_built_once_per_process(self, monkeypatch, capsys):
        built = []

        class Counting(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        cli._build_parser.cache_clear()
        monkeypatch.setattr(cli, "_Parser", Counting)
        try:
            assert main(["cp", "0", "10", "0.95"]) == 0
            first = list(built)
            assert main(["cp", "4", "4", "0.99"]) == 0
        finally:
            # the next caller builds a plain parser again
            cli._build_parser.cache_clear()
        # the root parser and one per subcommand, all in the first call
        assert first[0] == "credalbox" and len(first) == 6
        assert built == first
        assert capsys.readouterr().out.splitlines() == ["[0.0000, 0.3085]",
                                                        "[0.2659, 1.0000]"]

    def test_usage_error_after_a_run_goes_to_the_current_stderr(
            self, monkeypatch, capsys):
        assert main(["cp", "0", "10", "0.95"]) == 0
        capsys.readouterr()
        err = io.StringIO()
        monkeypatch.setattr(sys, "stderr", err)
        with pytest.raises(SystemExit) as exc_info:
            main(["cp", "3"])
        assert exc_info.value.code == 1
        lines = err.getvalue().splitlines()
        assert lines[0].startswith("usage: credalbox cp ")
        assert lines[-1].startswith("credalbox cp: error: ")
        assert capsys.readouterr().err == ""
