"""Command-line front end: formats, exit codes, golden transcripts."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from afftrans import affine, cli, finchar, translate

GOLDEN = Path(__file__).parent / "golden"
# the cases the benchmark's cli-oneshot workload runs, with their recorded output
CLI_CASES = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "cli_cases.json").read_text())


@pytest.fixture(autouse=True)
def _fixed_terminal(monkeypatch):
    # argparse wraps usage lines to the terminal width; pin it so error
    # transcripts are reproducible
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("AFFTRANS_CAP", raising=False)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# golden transcripts


def test_golden_tensor(capsys):
    code, out, err = run(capsys, "tensor", "A1", "[1]", "[1]")
    assert code == 0 and err == ""
    assert out == (GOLDEN / "tensor_a1_1_1.txt").read_text()


def test_golden_translate_char(capsys):
    code, out, err = run(capsys, "translate-char", "A1", "--level", "5/1",
                         "--from", "[0]", "--to", "[2]", "--char", "e:1,saff:1")
    assert code == 0 and err == ""
    assert out == (GOLDEN / "translate_char_a1_p5.txt").read_text()


def test_golden_unknown_type(capsys):
    code, out, err = run(capsys, "dominant", "Z9", "--level", "5/1")
    assert code == 2 and out == ""
    assert err == (GOLDEN / "dominant_bad_type.txt").read_text()


@pytest.mark.parametrize("case", [
    pytest.param(case, id=f"{name}-{index}")
    for name, cases in CLI_CASES.items() for index, case in enumerate(cases)])
def test_benchmark_case_byte_for_byte(capsys, case):
    assert run(capsys, *case["argv"]) == (case["code"], case["stdout"], case["stderr"])


# `afftrans --help` and each subcommand's `--help` at 80 columns, by argv
HELP_TEXTS = json.loads((Path(__file__).parent / "cli_help.json").read_text())


@pytest.mark.parametrize("argv", HELP_TEXTS)
def test_help_prints_exactly(capsys, argv):
    assert run(capsys, *argv.split()) == (0, HELP_TEXTS[argv], "")


# ---------------------------------------------------------------------------
# record and json modes


def test_info_records(capsys):
    code, out, err = run(capsys, "info", "A2", "--level", "4/1")
    assert code == 0
    assert out == ("type=A2 rank=2 simply_laced=true positive_roots=3 "
                   "dual_coxeter=3 theta=[1,1] level=4/1 k=1 "
                   "alcove_weights=3\n")


def test_json_lines_mirror_records(capsys):
    code, recs, _ = run(capsys, "dominant", "A1", "--level", "5/1")
    assert code == 0
    code, lines, _ = run(capsys, "dominant", "A1", "--level", "5/1",
                         "--format", "json-lines")
    assert code == 0
    parsed = [json.loads(line) for line in lines.splitlines()]
    assert parsed == [{"weight": "[0]"}, {"weight": "[1]"},
                      {"weight": "[2]"}, {"weight": "[3]"}]
    assert recs == "weight=[0]\nweight=[1]\nweight=[2]\nweight=[3]\n"


def test_alcove_records(capsys):
    code, out, _ = run(capsys, "alcove", "A1", "[8]", "--level", "5/1")
    assert code == 0
    assert out == "rep=[0] g=t[5]*s1 regular=true\n"
    code, out, _ = run(capsys, "alcove", "A1", "[4]", "--level", "5/1")
    assert out == "rep=[4] g=e regular=false\n"


def test_orbit_finite_and_leveled(capsys):
    code, out, _ = run(capsys, "orbit", "A1", "[2]")
    assert code == 0 and out == "weight=[-2]\nweight=[2]\n"
    code, out, _ = run(capsys, "orbit", "A1", "[0]", "--level", "5/1",
                       "--bound", "25")
    assert code == 0
    assert out.splitlines() == [
        "weight=[0] g=e",
        "weight=[8] g=t[5]*s1",
        "weight=[10] g=t[5]",
        "weight=[18] g=t[10]*s1",
        "weight=[20] g=t[10]",
    ]


def test_orbit_at_level_requires_bound(capsys):
    code, out, err = run(capsys, "orbit", "A1", "[0]", "--level", "5/1")
    assert code == 2 and out == ""
    assert "requires --bound" in err


# ---------------------------------------------------------------------------
# exit codes and diagnostics


def test_domain_error_is_exit_one(capsys):
    code, out, err = run(capsys, "alcove", "A1", "[1/2]", "--level", "5/1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("info", "A2", "--level", "99999999999999999999/1"),
    ("dominant", "A2", "--level", "99999999999999999999/1"),
    ("admissible", "A2", "--level", "99999999999999999999/1"),
    ("orbit", "A1", "[0]", "--level", "5/1", "--bound", "99999999999999999999"),
], ids=["info", "dominant", "admissible", "orbit"])
def test_huge_level_or_bound_is_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: dominant weights up to height ") and err.count("\n") == 1


def test_missing_level_is_usage_error(capsys):
    code, _, err = run(capsys, "alcove", "A1", "[3]")
    assert code == 2
    assert "requires --level or --k" in err


def test_malformed_weight_names_the_token(capsys):
    code, _, err = run(capsys, "alcove", "A1", "[1,x]", "--level", "5/1")
    assert code == 2
    assert "bad entry 'x'" in err


@pytest.mark.parametrize("argv", [
    ("alcove", "A2", "[1]", "--level", "5/1"),
    ("alcove", "A2", "[1,2,3]", "--level", "5/1"),
    ("orbit", "A1", "[1,2]"),
])
def test_wrong_rank_weight_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: weight ") and err.count("\n") == 1
    assert "wrong rank" in err


def test_malformed_element(capsys):
    code, _, err = run(capsys, "translate-weyl", "A1", "--level", "5/1",
                       "--element", "q9", "--from", "[0]", "--to", "[2]")
    assert code == 2
    assert "error: " in err and "q9" in err


def test_element_generator_out_of_range(capsys):
    code, _, err = run(capsys, "translate-weyl", "A1", "--level", "5/1",
                       "--element", "s2", "--from", "[0]", "--to", "[2]")
    assert code == 2
    assert "s1..s1" in err


# ---------------------------------------------------------------------------
# level handling


def test_k_equivalent_to_level(capsys):
    _, via_level, _ = run(capsys, "dominant", "A1", "--level", "5/1")
    _, via_k, _ = run(capsys, "dominant", "A1", "--k", "3")
    assert via_level == via_k


def test_level_shorthand_without_denominator(capsys):
    _, long_form, _ = run(capsys, "dominant", "A2", "--level", "4/1")
    _, short_form, _ = run(capsys, "dominant", "A2", "--level", "4")
    assert long_form == short_form == "weight=[0,0]\nweight=[0,1]\nweight=[1,0]\n"


# one invocation of every subcommand that takes a level, for a rank-2 type
LEVELED_ARGS = {
    "info": [],
    "orbit": ["[0,0]", "--bound", "20"],
    "alcove": ["[1,0]"],
    "dominant": [],
    "datum": ["[1,0]", "[1,0]", "[0,0]"],
    "translate-weyl": ["--element", "saff", "--from", "[0,0]", "--to", "[1,0]"],
    "translate-char": ["--from", "[0,0]", "--to", "[1,0]", "--char", "e:1,saff:1"],
    "verify-lemma": ["--lam", "[1,0]", "--mu", "[0,0]", "--element", "saff",
                     "--bound", "20"],
    "admissible": [],
    "generator": [],
    "transport": ["--to", "[1,0]", "--generators", "saff"],
}


@pytest.mark.parametrize("command", sorted(LEVELED_ARGS))
def test_nonintegral_level_warns_once_for_nonsimply_laced(capsys, command):
    args = LEVELED_ARGS[command]
    code, out, err = run(capsys, command, "B2", *args, "--level", "7/2")
    assert code == 0
    assert err.startswith("warning: B2 at level 7/2")
    assert err.count("\n") == 1 and err.count("warning") == 1
    assert out  # the command itself is unaffected
    code, _, err = run(capsys, command, "A2", *args, "--level", "7/2")
    assert code == 0 and err == ""  # simply laced: silent


def test_warning_precedes_cap_error(capsys, monkeypatch):
    monkeypatch.setenv("AFFTRANS_CAP", "banana")
    code, out, err = run(capsys, "translate-weyl", "B2", "--level", "7/2",
                         *LEVELED_ARGS["translate-weyl"])
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("warning: B2 at level 7/2")
    assert lines[1] == "error: malformed AFFTRANS_CAP value 'banana'"


# ---------------------------------------------------------------------------
# cap plumbing


def test_cap_flag_beats_env_beats_default(capsys, monkeypatch):
    # default succeeds
    code, _, _ = run(capsys, "tensor", "G2", "[1,0]", "[1,0]")
    assert code == 0
    # env cap bites
    monkeypatch.setenv("AFFTRANS_CAP", "10")
    code, _, err = run(capsys, "tensor", "G2", "[1,0]", "[1,0]")
    assert code == 1 and "exceeds cap 10" in err
    # explicit flag overrides env
    code, _, err = run(capsys, "tensor", "G2", "[1,0]", "[1,0]", "--cap", "49")
    assert code == 0
    monkeypatch.setenv("AFFTRANS_CAP", "banana")
    code, _, err = run(capsys, "tensor", "G2", "[1,0]", "[1,0]")
    assert code == 2 and "AFFTRANS_CAP" in err


G2_TRANSPORT = ("G2", "--level", "8/1", "--to", "[2,1]", "--generators", "t[24,16]")


def test_transport_reads_the_cap_flag(capsys):
    code, out, err = run(capsys, "transport", *G2_TRANSPORT, "--cap", "1000000000")
    assert (code, out, err) == (0, "g=t[24,16] image=[2,9]\n", "")
    code, out, _ = run(capsys, "translate-weyl", "G2", "--level", "8/1", "--element", "t[24,16]",
                       "--from", "[0,0]", "--to", "[2,1]", "--cap", "1000000000")
    assert (code, out) == (0, "image=[2,9]\n")  # the same element, weights and cap


def test_transport_reads_the_cap_variable(capsys, monkeypatch):
    monkeypatch.setenv("AFFTRANS_CAP", "1000000000")
    code, out, err = run(capsys, "transport", *G2_TRANSPORT)
    assert (code, out, err) == (0, "g=t[24,16] image=[2,9]\n", "")
    monkeypatch.setenv("AFFTRANS_CAP", "banana")
    code, out, err = run(capsys, "transport", *G2_TRANSPORT)
    assert (code, out, err) == (2, "", "error: malformed AFFTRANS_CAP value 'banana'\n")


def test_transport_keeps_the_default_cap_refusal(capsys):
    code, out, err = run(capsys, "transport", *G2_TRANSPORT)
    assert (code, out, err) == (1, "", "error: dimension product 2186919 exceeds cap 1000000\n")


def _refuses_t77_by_its_root_coords(capsys, *argv):
    # B2 at 7/1: t[7,7] (root coordinates) is 7 times the short root alpha1 + alpha2, in
    # 7Q but not in 7Q^vee; the group-element check refuses it before any survivor search
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: translation [7,0] is not in 7Q^vee (root coords (7, 7))\n"
    assert "survivors" not in err


def test_transport_refuses_a_generator_outside_the_walks_lattice(capsys):
    _refuses_t77_by_its_root_coords(capsys, "transport", "B2", "--level", "7/1",
                                    "--to", "[0,1]", "--generators", "t[7,7]")


def test_transport_names_a_generator_off_the_dominant_cone_as_it_reads_it(capsys):
    code, out, err = run(capsys, "transport", "A1", "--level", "5/1", "--to", "[2]",
                         "--generators", "s1")
    assert (code, out) == (1, "")
    assert err == "error: generator s1 sends [0] to [-2], outside the dominant cone\n"


def test_translate_weyl_refuses_an_element_outside_the_walks_lattice(capsys):
    _refuses_t77_by_its_root_coords(capsys, "translate-weyl", "B2", "--level", "7/1",
                                    "--element", "t[7,7]", "--from", "[0,0]", "--to", "[0,1]")


_A1_TRANSLATE = ("translate-weyl", "A1", "--level", "5/1", "--from", "[0]", "--to", "[1]")
_A1_CHAR = ("translate-char", "A1", "--level", "5/1", "--from", "[0]", "--to", "[2]")


@pytest.mark.parametrize("argv,code,out,err", [
    (("alcove", "A1", "7", "--level", "5/1"), 2, "",
     "usage: afftrans alcove [-h] [--format {records,json-lines}] [--cap CAP]\n"
     "                       [--level LEVEL | --k K]\n"
     "                       type weight\n"
     "afftrans alcove: error: argument weight: malformed weight '7': expected [a,b,...]\n"),
    (("alcove", "A1", "[7]", "--level", "x"), 2, "", "error: malformed level 'x'\n"),
    (_A1_TRANSLATE + ("--element", ""), 2, "", "error: empty group element\n"),
    (("translate-weyl", "A2", "--level", "5/1", "--element", "t[5]",
      "--from", "[0,0]", "--to", "[1,0]"), 2, "",
     "error: translation 't[5]' has wrong rank for A2\n"),
    (_A1_TRANSLATE + ("--element", "t[x]"), 2, "", "error: malformed translation 't[x]'\n"),
    (_A1_TRANSLATE + ("--element", "t[5]*s1*s1"), 2, "",
     "error: malformed element 't[5]*s1*s1'\n"),
    (_A1_CHAR + ("--char", "e"), 2, "",
     "error: malformed character term 'e': expected <element>:<integer>\n"),
    (_A1_CHAR + ("--char", "e:x"), 2, "", "error: malformed coefficient 'x'\n"),
    (_A1_CHAR + ("--char", ""), 0, " @ base=[2]\n", ""),
    (_A1_CHAR + ("--char", "e:1,saff:1", "--format", "json-lines"), 0,
     '{"char": "e:1,saff:1", "base": "[2]"}\n', ""),
], ids=["weight-without-brackets", "malformed-level", "empty-element", "wrong-rank-translation",
        "malformed-translation", "two-words", "term-without-coefficient",
        "malformed-coefficient", "empty-character", "character-as-json"])
def test_parser_paths_print_exactly(capsys, argv, code, out, err):
    assert run(capsys, *argv) == (code, out, err)


def test_alcove_answers_a_far_weight(capsys):
    code, out, err = run(capsys, "alcove", "A2", "[10000000,0]", "--level", "5/1")
    assert (code, out, err) == (0, "rep=[0,2] g=t[6666670,3333335]*s1s2 regular=true\n", "")


# ---------------------------------------------------------------------------
# remaining commands


def test_tensor_oracle_flag_agrees(capsys):
    _, walk, _ = run(capsys, "tensor", "A2", "[1,1]", "[1,1]")
    _, oracle, _ = run(capsys, "tensor", "A2", "[1,1]", "[1,1]", "--oracle")
    assert walk == oracle
    assert "nu=[1,1] mult=2" in walk


def test_filtration_verma_flag(capsys):
    _, weylf, _ = run(capsys, "filtration", "A1", "[2]", "[8]")
    assert weylf == "nu=[6] mult=1\nnu=[8] mult=1\nnu=[10] mult=1\n"
    _, verma, _ = run(capsys, "filtration", "A1", "[2]", "[0]", "--verma")
    assert verma == "nu=[-2] mult=1\nnu=[0] mult=1\nnu=[2] mult=1\n"


def test_datum_query_is_not_an_error(capsys):
    code, out, _ = run(capsys, "datum", "A1", "[2]", "[2]", "[0]",
                       "--level", "5/1")
    assert code == 0 and out == "valid=true\n"
    code, out, _ = run(capsys, "datum", "A1", "[1]", "[2]", "[2]",
                       "--level", "5/1")
    assert code == 0
    assert out.startswith("valid=false reason=")


def test_translate_weyl_command(capsys):
    code, out, _ = run(capsys, "translate-weyl", "A1", "--level", "5/1",
                       "--element", "saff", "--from", "[0]", "--to", "[2]")
    assert code == 0 and out == "image=[6]\n"
    code, out, _ = run(capsys, "translate-weyl", "A1", "--level", "5/1",
                       "--element", "t[5]*s1", "--from", "[0]", "--to", "[2]")
    assert out == "image=[6]\n"  # same element spelled explicitly
    code, out, _ = run(capsys, "translate-weyl", "A1", "--level", "5/1",
                       "--element", "s1", "--from", "[0]", "--to", "[2]",
                       "--verma")
    assert code == 0 and out == "image=[-4]\n"


def test_translate_weyl_rejects_nondominant_without_verma(capsys):
    code, _, err = run(capsys, "translate-weyl", "A1", "--level", "5/1",
                       "--element", "s1", "--from", "[0]", "--to", "[2]")
    assert code == 1 and "error: " in err


def test_verify_lemma_command(capsys):
    code, out, _ = run(capsys, "verify-lemma", "A1", "--level", "5/1",
                       "--lam", "[2]", "--mu", "[0]", "--element", "saff",
                       "--bound", "20")
    assert code == 0 and out == "verified=true\n"
    code, _, err = run(capsys, "verify-lemma", "A1", "--level", "5/1",
                       "--lam", "[2]", "--mu", "[0]", "--element", "saff",
                       "--bound", "3")
    assert code == 1 and "does not cover" in err


def test_admissible_command(capsys):
    code, out, _ = run(capsys, "admissible", "A2", "--level", "4/1")
    assert code == 0
    assert out == "weight=[0,0]\nweight=[0,1]\nweight=[1,0]\n"


def test_generator_command(capsys):
    code, out, _ = run(capsys, "generator", "A1", "--level", "5/1")
    assert code == 0 and out == "g=t[5]*s1 weight=[8]\n"
    code, _, err = run(capsys, "generator", "A1", "--level", "1/1")
    assert code == 1 and "singular" in err


def test_transport_command(capsys):
    code, out, _ = run(capsys, "transport", "A1", "--level", "5/1",
                       "--to", "[2]", "--generators", "saff,t[5]")
    assert code == 0
    assert out == "g=t[5] image=[12]\ng=t[5]*s1 image=[6]\n"
    code, out, _ = run(capsys, "transport", "A1", "--level", "5/1",
                       "--to", "[3]", "--generators", "")
    assert code == 0 and out == ""


def test_transport_derives_each_image_once(capsys, monkeypatch):
    calls = []
    for module, name in ((translate, "_translate"), (affine, "affine_apply")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    code, out, _ = run(capsys, "transport", "A1", "--level", "5/1",
                       "--to", "[2]", "--generators", "saff,t[5]")
    assert code == 0 and out == "g=t[5] image=[12]\ng=t[5]*s1 image=[6]\n"
    assert calls == ["_translate", "_translate"]


def test_no_command_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# dependencies


def test_import_needs_no_numpy():
    # the library and its CLI run on the standard library alone, and a cold
    # start loads none of these: numpy is no dependency, dataclasses pulls
    # in inspect, and json is loaded only where output needs it
    src = str(Path(cli.__file__).resolve().parents[1])
    unwanted = ("numpy", "dataclasses", "inspect", "json")
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import afftrans, afftrans.cli; "
            f"print([m for m in {unwanted!r} if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"
