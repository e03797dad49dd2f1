import argparse
import contextlib
import io
import json
import shlex
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivealg.cli import build_parser, run
from hivealg.cone import hives_up_to_degree
from hivealg.hive import Hive
from hivealg.tableau import LRTableau

hive_pool = cache(hives_up_to_degree)  # drawn from on every example


def test_lrcoef_worked_example(capsys):
    assert run(["lrcoef", "-n", "3", "--lambda", "3,2,1", "--mu", "2,1", "--nu", "2,1"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_lrcoef_zero_on_size_mismatch(capsys):
    assert run(["lrcoef", "-n", "2", "--lambda", "1", "--mu", "0", "--nu", "2"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_lrcoef_json(capsys):
    assert run(["lrcoef", "-n", "3", "--format", "json",
                "--lambda", "3,2,1", "--mu", "2,1", "--nu", "2,1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"n": 3, "lambda": [3, 2, 1], "mu": [2, 1], "nu": [2, 1],
                   "lr_coefficient": 2}


def rank_rejections():
    """For each subcommand and --format choice that build_parser declares,
    the -n just below and just above the ranks it supports."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in commands.choices.items():
        for fmt, (ranks, _) in sub.get_default("formats").items():
            for n in (min(ranks) - 1, max(ranks) + 1):
                yield pytest.param([name, "-n", str(n), "--format", fmt], ranks,
                                   id=f"{name}-{fmt}-{n}")


@pytest.mark.parametrize("argv, ranks", rank_rejections())
def test_each_subcommand_rejects_a_rank_outside_its_table(capsys, argv, ranks):
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and "out of range" in err
    assert err.rstrip().endswith(f"(supported: {', '.join(str(v) for v in ranks)})")


def test_export_cone_ranks_follow_the_format(capsys):
    assert run(["export-cone", "-n", "5", "--format", "appendix-generators"]) == 1
    assert "supported: 2, 3, 4)" in capsys.readouterr().err
    assert run(["export-cone", "-n", "5", "--format", "appendix-inequalities"]) == 0


def test_hp_series_rank4(capsys):
    assert run(["hp-series", "-n", "4", "--max-degree", "9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1 2 6 14 34 68 142 268 508 902"
    assert lines[1].endswith("+ ...")


def test_hp_series_closed_only(capsys):
    assert run(["hp-series", "-n", "3", "--max-degree", "5", "--method", "closed",
                "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["coefficients"] == [1, 2, 6, 14, 29, 56]


def test_hp_series_rejects_closed_form_for_big_rank(capsys):
    assert run(["hp-series", "-n", "5", "--max-degree", "3", "--method", "closed"]) == 1
    assert "closed-form" in capsys.readouterr().err


def test_hp_series_enum_for_big_rank(capsys):
    assert run(["hp-series", "-n", "5", "--max-degree", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1 2 6 14"


def test_hives_json_round_trips(capsys):
    assert run(["hives", "-n", "3", "--format", "json",
                "--lambda", "3,2,1", "--mu", "2,1", "--nu", "2,1"]) == 0
    objs = json.loads(capsys.readouterr().out)
    assert {o["n"] for o in objs} == {3}
    assert sorted(o["rows"] for o in objs) == [[[0], [2, 3], [3, 4, 5], [3, 5, 6, 6]],
                                               [[0], [2, 3], [3, 5, 5], [3, 5, 6, 6]]]


def test_tableaux_json_round_trips(capsys):
    assert run(["tableaux", "-n", "3", "--format", "json",
                "--lambda", "3,2,1", "--mu", "2,1", "--nu", "2,1"]) == 0
    objs = json.loads(capsys.readouterr().out)
    assert {(tuple(o["outer"]), tuple(o["inner"])) for o in objs} == {((3, 2, 1), (2, 1))}
    assert sorted(o["rows"] for o in objs) == [[[0, 0, 1], [0, 1], [2]],
                                               [[0, 0, 1], [0, 2], [1]]]


@pytest.mark.parametrize("command, fmt, unused", [
    ("tableaux", "json", (LRTableau, "__str__")),
    ("hives", "text", (Hive, "to_json_dict")),
], ids=["tableaux-json", "hives-text"])
def test_only_the_requested_output_form_is_built(command, fmt, unused, capsys, monkeypatch):
    argv = [command, "-n", "3", "--format", fmt, "--lambda", "3,2,1", "--mu", "2,1", "--nu", "2,1"]
    assert run(argv) == 0
    expected = capsys.readouterr().out

    def unbuildable(self):
        raise MemoryError

    monkeypatch.setattr(*unused, unbuildable)
    assert run(argv) == 0
    assert capsys.readouterr().out == expected


def test_decompose(capsys):
    assert run(["decompose", "-n", "3", "--hive", "0;2,3;3,4,5;3,5,6,6"]) == 0
    assert capsys.readouterr().out.strip() == "3 4 8"


def test_decompose_requires_hive(capsys):
    assert run(["decompose", "-n", "3"]) == 1
    assert "--hive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["decompose", "-n", "2", "--hive", ""],
    ["hwv", "-n", "2", "--hive", ""],
    ["hwv", "-n", "2", "--hive", "", "--lambda", "1"]])
def test_an_empty_hive_is_not_a_missing_one(capsys, argv):
    assert run(argv) == 1
    assert capsys.readouterr().out == ""


def test_hive_rank_mismatch_is_domain_error(capsys):
    assert run(["decompose", "-n", "4", "--hive", "0;2,3;3,4,5;3,5,6,6"]) == 1
    assert "rank" in capsys.readouterr().err


def test_invalid_partition_is_domain_error(capsys):
    assert run(["lrcoef", "-n", "3", "--lambda", "1,2", "--mu", "", "--nu", "3"]) == 1
    assert "--lambda" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert run(["lrcoef", "-n", "3", "--bogus", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_invalid_hive_text(capsys):
    assert run(["decompose", "-n", "2", "--hive", "0;0,2;0,1,2"]) == 1
    assert "hive" in capsys.readouterr().err.lower()


def test_hilbert_basis_command(capsys):
    assert run(["hilbert-basis", "-n", "2", "--max-degree", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "0 0 1 0 1 1"


def test_hwv_single_hive(capsys):
    assert run(["hwv", "-n", "3", "--hive", "0;2,3;3,4,5;3,5,6,6"]) == 0
    out = capsys.readouterr().out
    assert "decomposition: 3 4 8" in out
    assert "initial monomial: x[1][1]^2" in out


@pytest.mark.parametrize("flags", [["--lambda", "9"], ["--mu", "9"], ["--nu", ""],
                                   ["--lambda", "9", "--mu", "9", "--nu", "9"]])
def test_hwv_rejects_a_hive_with_boundary_flags(capsys, flags):
    assert run(["hwv", "-n", "3", "--hive", "0;2,3;3,4,5;3,5,6,6"] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "not both" in captured.err


def test_hwv_boundary_json(capsys):
    assert run(["hwv", "-n", "3", "--format", "json",
                "--lambda", "3,2,1", "--mu", "2,1", "--nu", "2,1"]) == 0
    objs = json.loads(capsys.readouterr().out)
    assert sorted(o["decomposition"] for o in objs) == [[1, 6, 7], [3, 4, 8]]


def test_export_cone_inequalities_matches_module(capsys, tmp_path):
    from hivealg.cone import inequalities_input_text

    target = tmp_path / "cone.in"
    assert run(["export-cone", "-n", "4", "--output", str(target)]) == 0
    assert target.read_text() == inequalities_input_text(4)


def test_export_cone_generators(capsys):
    assert run(["export-cone", "-n", "4", "--format", "appendix-generators"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("amb_space 15\ncone 20\n")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_passes(n, capsys):
    assert run(["verify", "-n", str(n)]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out


def test_a_broken_generator_table_fails_verify_with_exit_2(rebuilt, capsys, monkeypatch):
    # g_5 := g_4 at rank 3: the table fails its own check when it is built
    from hivealg import cone, tensor_algebra

    derive, basis = tensor_algebra._derive_generator, cone.presentation(3).basis
    monkeypatch.setattr(tensor_algebra, "_derive_generator",
                        lambda h: derive(basis[3] if h == basis[4] else h))
    assert run(["verify", "-n", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "g_5" in err
    assert err.endswith("reproduce with: hivealg verify -n 3\n")


def test_consistency_failure_exits_2(capsys, monkeypatch):
    from hivealg import cli

    monkeypatch.setattr(cli.counting, "hp_series_reference",
                        lambda n, d: (1,) * (d + 1))
    assert run(["hp-series", "-n", "3", "--max-degree", "4"]) == 2
    assert "internal consistency" in capsys.readouterr().err


def test_exit_2_prints_the_command_that_reproduces_it(capsys, monkeypatch):
    from hivealg import cli

    monkeypatch.setattr(cli.counting, "hp_series_reference",
                        lambda n, d: (1,) * (d + 1))
    argv = ["hp-series", "-n", "3", "--max-degree", " 4"]
    assert run(argv) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == "reproduce with: hivealg hp-series -n 3 --max-degree ' 4'"
    assert shlex.split(last.removeprefix("reproduce with: ")) == ["hivealg"] + argv


@pytest.mark.parametrize("argv, code", [
    (["hp-series", "-n", "3", "--max-degree", "4"], 0),
    (["hp-series", "-n", "3", "--max-degree", "-1"], 1)])
def test_only_exit_2_prints_a_reproducing_command(capsys, argv, code):
    assert run(argv) == code
    assert "reproduce with" not in capsys.readouterr().err


def test_verify_json_structure(capsys):
    assert run(["verify", "-n", "3", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["failed"] == []
    assert obj["passed"] == len(obj["checks"]) > 0


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "out.json"
    assert run(["lrcoef", "-n", "3", "--format", "json", "--output", str(target),
                "--lambda", "3,2,1", "--mu", "2,1", "--nu", "2,1"]) == 0
    assert json.loads(target.read_text())["lr_coefficient"] == 2
    assert capsys.readouterr().out == ""


def test_output_into_missing_directory_is_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    assert run(["lrcoef", "-n", "2", "--lambda", "1", "--nu", "1",
                "--output", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and str(target) in err
    assert "Traceback" not in err and not target.exists()


def test_empty_output_path_is_error(capsys):
    # an empty path names no file; it must not fall back to stdout
    assert run(["hives", "-n", "2", "--lambda", "2,1", "--mu", "1", "--nu", "1,1",
                "--output", ""]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot write")
    assert "Traceback" not in err


def test_output_to_directory_is_error(tmp_path, capsys):
    assert run(["export-cone", "-n", "2", "--format", "appendix-inequalities",
                "--output", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and str(tmp_path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_output_too_large_to_build_is_error(fmt, capsys):
    # one tableau whose row of inner cells would take about 800 GB
    assert run(["tableaux", "-n", "3", "--lambda", "99999999999", "--mu", "99999999999",
                "--nu", "0", "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: the output is too large to build\n"
    assert "Traceback" not in err


def readme_cli_examples():
    """(argv, expected first line of stdout or None) for each line of the
    README's CLI block.  A comment `-> output`, or one that is all numbers,
    gives the output."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        command, _, comment = line.partition(" #")
        comment = comment.strip()
        if comment.startswith("-> "):
            expected = comment.removeprefix("-> ")
        elif comment.replace(" ", "").isdigit():
            expected = comment
        else:
            expected = None
        argv = shlex.split(command)
        assert argv[0] == "hivealg", line
        yield pytest.param(argv[1:], expected, id=" ".join(argv[1:]))


@pytest.mark.parametrize("argv, expected", readme_cli_examples())
def test_readme_cli_example(capsys, argv, expected):
    assert run(argv) == 0
    if expected is not None:
        assert capsys.readouterr().out.splitlines()[0] == expected


def test_threads_flag_is_unknown(capsys):
    assert run(["hp-series", "-n", "2", "--max-degree", "3", "--threads", "2"]) == 1
    assert "--threads" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Fuzzed flag values: every input ends in exit 0 or 1, never a traceback.
# Entries stay small: the work a huge valid input asks for is unbounded today.

JUNK = st.text(max_size=4)
ENTRIES = st.integers(-2, 7).map(str) | JUNK
SEPARATORS = st.sampled_from((",", ",", ",", ", ", ",,", " ", "", ";", "-", "_"))
COMMAS = st.sampled_from((",", ", ", ",,"))   # the parser skips empty entries


def _joined(draw, parts, separators) -> str:
    return "".join((draw(separators) if k else "") + part for k, part in enumerate(parts))


@st.composite
def partition_texts(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.text(max_size=12))
    if kind == 1:
        return _joined(draw, draw(st.lists(ENTRIES, max_size=6)), SEPARATORS)
    parts = sorted(draw(st.lists(st.integers(0, 6), max_size=5)), reverse=True)
    return _joined(draw, [str(v) for v in parts], COMMAS)


@st.composite
def hive_texts(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.text(max_size=30))
    if kind == 1:
        rows = draw(st.lists(st.lists(ENTRIES, max_size=6), min_size=1, max_size=6))
        return ";".join(_joined(draw, row, SEPARATORS) for row in rows)
    # a rank-4 hive, sometimes with one entry moved by one or replaced by junk
    rows = [list(map(str, row)) for row in draw(st.sampled_from(hive_pool(4, 5))).rows]
    if draw(st.booleans()):
        i = draw(st.integers(0, 4))
        j = draw(st.integers(0, i))
        v = int(rows[i][j])
        rows[i][j] = draw(st.sampled_from((str(v + 1), str(v - 1))) | JUNK)
    return ";".join(_joined(draw, row, COMMAS) for row in rows)


def run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(argv)


@pytest.mark.parametrize("argv", [
    ["lrcoef", "-n", "4", "--lambda=", "--mu=", "--nu=--"],
    ["hwv", "-n", "4", "--hive=--"],
    ["lrcoef", "-n=--"],
], ids=["partition", "hive", "rank"])
def test_double_dash_flag_value_is_a_usage_error(argv):
    # Python 3.11's argparse passes the value of "--flag=--" on as []
    assert run_quietly(argv) == 1


@settings(max_examples=200)
@given(st.sampled_from(("decompose", "hwv")), hive_texts())
def test_fuzzed_hive_text_exits_0_or_1(command, text):
    assert run_quietly([command, "-n", "4", f"--hive={text}"]) in (0, 1)


@settings(max_examples=200)
@given(partition_texts(), partition_texts(), partition_texts())
def test_fuzzed_partition_text_exits_0_or_1(lam, mu, nu):
    assert run_quietly(["lrcoef", "-n", "4", f"--lambda={lam}", f"--mu={mu}",
                        f"--nu={nu}"]) in (0, 1)
