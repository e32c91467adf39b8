import argparse
import gc
import io
import json
import math
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest

from credalbox import (
    NO_MANDATE,
    DecisionReport,
    ToleranceSpec,
    TraceRow,
    accept_next_most_probable,
    accept_threshold,
    explore,
    load_fixture,
    load_path,
    sequence_bytes,
    sequence_from_bodies,
)
from credalbox import cli
from credalbox.cli import main
from credalbox.replicate import fixture_text
from support import chain_document, fixed_point_closure

REPORT_SCHEMA = Path(__file__).resolve().parent.parent / "schema" / "report.schema.json"


def dag_document(n: int, closed: bool) -> dict:
    """chain_document(n) with an idle twin d{k} beside each inner class
    c{k}, so that the order is a DAG of diamonds with incomparable
    classes; closed lists every transitive pair as well, as dumps wrote
    orders before they were kept as given."""
    data = chain_document(n)
    pairs = data["reference_classes"]["specificity"]
    for k in range(1, n - 1):
        pairs += [[f"c{k + 1}", f"d{k}"], [f"d{k}", f"c{k - 1}"]]
    if closed:
        closure = fixed_point_closure(tuple(p) for p in pairs)
        data["reference_classes"]["specificity"] = [list(p) for p in sorted(closure)]
    return data


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


@pytest.mark.parametrize("extra, code", [([], 0), (["--tolerance", "0.04"], 2)],
                         ids=["decided", "no-mandate"])
def test_module_run_as_a_script_exits_with_the_code_main_returns(
        fixture_path, capsys, monkeypatch, extra, code):
    argv = ["decide", fixture_path("example_a"), *extra]
    assert main(argv) == code
    want = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["credalbox", *argv])
    with warnings.catch_warnings():
        # runpy warns that the package has imported credalbox.cli already
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as exc_info:
            runpy.run_module("credalbox.cli", run_name="__main__")
    assert exc_info.value.code == code
    assert capsys.readouterr() == want


@pytest.mark.parametrize("command", ["decide", "compare"])
def test_a_name_stdout_cannot_encode_prints_escaped(tmp_path, capsys, command):
    # a lone surrogate is valid JSON; the tables print it escaped, as
    # stderr would, instead of stopping halfway with an encoding error
    target = tmp_path / "surrogate.json"
    target.write_text(json.dumps({"problem": "p", "acts": [
        {"name": "a\ud800", "outcomes": [{"label": "x", "utility": 1.0}]},
        {"name": "b", "outcomes": [{"label": "y", "utility": 0.0}]}]}),
        encoding="utf-8")
    # what main writes to a stream that escapes, as run makes stdout do
    sys.stdout.reconfigure(errors="backslashreplace")
    assert main([command, str(target)]) == 0
    want = capsys.readouterr().out
    assert "a\\ud800" in want
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8")
    done = subprocess.run([sys.executable, "-m", "credalbox.cli", command, str(target)],
                          env=env, capture_output=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == want.encode("utf-8")


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

    @pytest.mark.parametrize("acceptance, errors", [
        ({"rule": "threshold", "error_levels": [0.1, 0.2]}, [0.0, 0.1, 0.2]),
        ({"rule": "next-most-probable"}, [0.0]),
    ], ids=["threshold", "next-most-probable"])
    def test_an_empty_corpus_keeps_its_error_levels(self, tmp_path, capsys,
                                                     acceptance, errors):
        # no act ever dominates, so the trace has a row for every level
        target = tmp_path / "empty.json"
        target.write_text(json.dumps({
            "problem": "p", "statements": [], "acceptance": acceptance,
            "acts": [{"name": "a", "outcomes": [{"label": "G", "utility": 1.0},
                                                {"label": "not-G", "utility": -1.0}]},
                     {"name": "b", "outcomes": [
                         {"label": "H", "utility": 0.0, "prob": [1.0, 1.0]}]}]}),
            encoding="utf-8")
        assert main(["decide", str(target), "--json"]) == 2
        got = json.loads(capsys.readouterr().out)
        assert [row["error"] for row in got["trace"]] == errors
        doc = load_path(target)
        bodies = (accept_threshold([], acceptance["error_levels"])
                  if acceptance["rule"] == "threshold" else accept_next_most_probable([]))
        assert sequence_bytes(doc.build_sequence()) == \
            sequence_bytes(sequence_from_bodies(bodies, doc.problem))

    def test_closed_order_decides_as_the_order_given(self, tmp_path, capsys):
        outputs, tables = [], []
        for closed in (False, True):
            target = tmp_path / f"dag-{closed}.json"
            target.write_text(json.dumps(dag_document(12, closed)), encoding="utf-8")
            assert main(["decide", str(target), "--json"]) == 0
            outputs.append(capsys.readouterr().out)
            tables.append(load_path(target).refs)
        given, closed = tables
        assert len(closed.specificity) > 2 * len(given.specificity)
        classes = sorted({c for pair in closed.specificity for c in pair})
        for a in classes:
            for b in classes:
                assert given.more_specific(a, b) == closed.more_specific(a, b)
        assert outputs[0] == outputs[1]

    def test_report_independent_of_the_hash_seed(self, tmp_path):
        # the order's bits are numbered in the set's iteration order,
        # which the hash seed changes
        target = tmp_path / "dag.json"
        target.write_text(json.dumps(dag_document(12, False)), encoding="utf-8")
        src = str(Path(cli.__file__).resolve().parent.parent)
        outputs = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-m", "credalbox.cli", "decide", str(target), "--json"],
                env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(["decide", str(tmp_path / "nope.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("content", [
        b"[" * 200000,
        b'{"problem": ' + b"1" * 5000 + b"}",
        '{"problem": "caf\u00e9"}'.encode("latin-1"),
    ], ids=["deep-nesting", "integer-past-the-digit-limit", "not-utf8"])
    def test_undecodable_file_exits_one_without_a_traceback(
            self, tmp_path, capsys, content):
        target = tmp_path / "bad.json"
        target.write_bytes(content)
        code = main(["decide", str(target)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: not valid JSON: ")
        assert captured.err.count("\n") == 1

    def test_conflicting_tolerance_flags(self, fixture_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["decide", fixture_path("example_a"),
                  "--tolerance", "0.1", "--odds-derived"])
        assert exc_info.value.code == 1


def _levels_document(n_acts: int) -> dict:
    """n_acts two-outcome acts and a sure act worth 5: level 0 leaves
    them all undominated, level 1 boxes every act below 5, so each size
    decides for the sure act at level 1."""
    acts = [{"name": "sure", "outcomes": [{"label": "s", "utility": 5.0}]}]
    acts += [{"name": f"a{k}", "outcomes": [{"label": "G", "utility": 10.0},
                                            {"label": "not-G", "utility": 0.0}]}
             for k in range(n_acts)]
    boxes = {f"a{k}": {"G": [0.1, 0.3]} for k in range(n_acts)}
    return {"problem": f"levels-{n_acts}", "acts": acts,
            "levels": [{"error": 0.0}, {"error": 0.1, "overrides": boxes}]}


class TestCollectorPause:
    """main pauses the cyclic collector for the whole command and leaves
    it as the caller had it."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        assert gc.isenabled()
        yield
        gc.enable()

    def test_parsing_and_the_handler_run_with_the_collector_off(
            self, fixture_path, monkeypatch, capsys):
        seen = []

        def parse_args(parser, *args, **kwargs):
            seen.append(("parse", gc.isenabled()))
            return argparse.ArgumentParser.parse_args(parser, *args, **kwargs)

        def stub_load_path(path):
            seen.append(("handler", gc.isenabled()))
            return load_path(path)

        monkeypatch.setattr(cli._Parser, "parse_args", parse_args)
        monkeypatch.setattr(cli, "load_path", stub_load_path)
        assert main(["decide", fixture_path("example_a")]) == 0
        assert seen == [("parse", False), ("handler", False)]
        assert gc.isenabled()

    @pytest.mark.parametrize("caller_enabled", [True, False],
                             ids=["caller-on", "caller-off"])
    @pytest.mark.parametrize("outcome", ["exit-0", "exit-1", "exit-2", "usage"])
    def test_the_callers_setting_comes_back(self, tmp_path, undecidable_path,
                                            capsys, outcome, caller_enabled):
        not_json = tmp_path / "not.json"
        not_json.write_text("{problem:", encoding="utf-8")
        argv = {"exit-0": ["cp", "3", "14", "0.99"],
                # a ProblemFormatError, which is a ValueError
                "exit-1": ["decide", str(not_json)],
                "exit-2": ["decide", undecidable_path],
                "usage": []}[outcome]
        if not caller_enabled:
            gc.disable()
        if outcome == "usage":
            with pytest.raises(SystemExit) as exc_info:
                main(argv)
            assert exc_info.value.code == 1
        else:
            assert main(argv) == int(outcome[-1])
        assert gc.isenabled() is caller_enabled

    def test_what_the_pause_holds_does_not_grow_with_the_input(self, tmp_path, capsys):
        paths = {}
        for n_acts in (20, 400):
            paths[n_acts] = tmp_path / f"levels-{n_acts}.json"
            paths[n_acts].write_text(json.dumps(_levels_document(n_acts)),
                                     encoding="utf-8")
        gc.disable()
        # a first command also leaves what warming the process's caches does
        assert main(["decide", str(paths[20]), "--json"]) == 0
        capsys.readouterr()
        gc.collect()
        found = {}
        for n_acts, path in paths.items():
            assert main(["decide", str(path), "--json"]) == 0
            found[n_acts] = gc.collect()
            report = json.loads(capsys.readouterr().out)
            assert (report["status"], report["act"], report["level_used"]) == (
                "decided", "sure", 1)
        assert found[20] == found[400] <= 128


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

    def test_example_d_rate_line(self, capsys):
        # the crossing is solved in closed form, so it prints 3/13 to
        # every digit shown
        assert main(["replicate", "D"]) == 0
        assert "  ok   discount rate where belief crosses .75: got 0.2307692308, " \
            "want 0.2307692308\n" in capsys.readouterr().out

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

    @pytest.mark.parametrize("successes, trials", [
        (5 * 10**19, 10**20),  # the tail's exp overflows
        (5, 10**300),          # the continued fraction's terms do
        (1, 10**400),          # the Wilson-score guess's do
    ], ids=["exp-overflow", "betacf-overflow", "wilson-overflow"])
    def test_counts_past_the_float_range_exit_one(self, capsys, successes, trials):
        code = main(["cp", str(successes), str(trials), "0.95"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: count {successes} of {trials} ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


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

    def test_near_total_conflict_crosses_near_zero(self, capsys):
        # a conflict of about 1 - 3e-9 at rate 0: 1 - conflict cancels,
        # so the combination divides by the agreeing weight instead
        code = main(["ds-threshold", "--m1", "0.9999999995,0.0000000005",
                     "--m2", "0.0000000025,0.9999999975", "--target", "0.9"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "threshold discount rate: 0.0000",
            "  above (r = 0.0010): belief 1.0000 mandates a1",
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
