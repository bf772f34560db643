"""Exit codes, output formats, and determinism of the command-line interface."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qchar.cli import main
from qchar.affine import specialized_character_series, trace_series
from qchar.qseries import ProductSpec, VerifyReport, product_series, series_compare

# -- helpers --------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify exit codes ------------------------------------------------------


def test_verify_classical_match(capsys):
    code, out, err = run_cli(capsys, "verify", "classical", "gauss_b", "--order", "200")
    assert code == 0
    assert out.startswith("match")
    assert err == ""


def test_verify_proposition_match(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "proposition", "--partition", "1,3", "--k", "3",
        "--order", "40",
    )
    assert code == 0
    assert "checked through: q^40" in out


def test_verify_class_families(capsys):
    for sub in ("class1", "class2"):
        code, out, _ = run_cli(capsys, "verify", sub, "--m", "1", "--order", "40")
        assert code == 0, sub
        assert out.startswith("match")


def test_series_character_order_off_the_product_grid(capsys):
    # the numerator walks floor(order*8) slots of its grid; the product's
    # grid is coarser, but no slot of it lies between 1 and 3/2, so the
    # quotient is guaranteed through 3/2 = 12/8
    code, out, _ = run_cli(
        capsys, "series", "character", "--partition", "1,3", "--k", "1",
        "--order", "3/2",
    )
    assert code == 0
    assert out == "q^(1/8) + 2*q^(9/8) + O(q^(13/8))\n"


@pytest.mark.parametrize("order, through", [("1/2", "q^(1/2)"), ("3/2", "q^(3/2)"),
                                            ("5/2", "q^(5/2)")])
def test_proposition_checks_through_a_fractional_order(capsys, order, through):
    # the character side's product is on grid 1 and its numerator on grid
    # 8; the window reaches the order, not its floor
    code, out, _ = run_cli(
        capsys, "verify", "proposition", "--partition", "1,3", "--k", "3",
        "--order", order,
    )
    assert code == 0
    assert out.splitlines()[:2] == ["match", f"checked through: {through}"]


def test_bad_family_parameter_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "class1", "--m", "0")
    assert code == 2
    assert "positive" in err
    # int() would read " 1_0 " as 10 and "\u0662" as 2; the flag takes ASCII
    # digits only
    for m in (" 1_0 ", "\u0662"):
        code, out, err = run_cli(capsys, "verify", "class1", "--m", m)
        assert code == 2, m
        assert out == ""
        assert "error: argument --m: value must be an integer" in err, m


def test_unknown_classical_name_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "classical", "rogers")
    assert code == 2


def test_unparseable_order_is_usage_error(capsys):
    for order in ("3.5", "1_0", "\u0662\u0660"):
        code, out, err = run_cli(
            capsys, "verify", "classical", "euler", "--order", order
        )
        assert code == 2, order
        assert out == ""
        assert "error: argument --order: not a rational number" in err, order


def test_descending_partition_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "verify", "proposition", "--partition", "3,1", "--k", "0"
    )
    assert code == 2
    assert "ascending" in err
    code, out, err = run_cli(
        capsys, "verify", "proposition", "--partition", "1,\u0663", "--k", "0"
    )
    assert code == 2
    assert out == ""
    assert "error: argument --partition: value must be an integer, got '\u0663'" in err


def test_out_of_range_weight_is_usage_error(capsys):
    code, _, _ = run_cli(
        capsys, "verify", "proposition", "--partition", "1,3", "--k", "9"
    )
    assert code == 2
    for sub in ("verify proposition", "series character", "series trace"):
        code, out, err = run_cli(
            capsys, *sub.split(), "--partition", "1,3", "--k", "0_3"
        )
        assert code == 2, sub
        assert out == ""
        assert "error: argument --k: value must be an integer" in err, sub


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli(capsys, "verify")[0] == 2
    assert run_cli(capsys)[0] == 2


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


# -- verify JSON output -------------------------------------------------------


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "proposition", "--partition", "1,3", "--k", "3",
        "--order", "40", "--json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob == {
        "match": True,
        "checked_through": "40",
        "first_mismatch": None,
        "lhs_shift": "1/8",
        "rhs_shift": "7/2",
    }
    # timing stays out of the canonical report
    assert "wall_time_ms" not in blob


def test_verify_json_timing_flag(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "classical", "euler", "--order", "20", "--json", "--timing"
    )
    assert code == 0
    blob = json.loads(out)
    assert isinstance(blob["wall_time_ms"], int)


def test_verify_text_timing_line(capsys):
    code, out, _ = run_cli(capsys, "verify", "classical", "euler", "--order", "20", "--timing")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "match"
    assert re.fullmatch(r"wall time: \d+ ms", lines[-1]), lines


def test_verify_report_round_trips(capsys):
    _, out, _ = run_cli(
        capsys, "verify", "classical", "jacobi", "--order", "30", "--json"
    )
    blob = json.loads(out)
    report = VerifyReport(
        blob["match"],
        Fraction(blob["checked_through"]),
        None,
        Fraction(blob["lhs_shift"]),
        Fraction(blob["rhs_shift"]),
    )
    assert report.to_json() == blob


# -- series commands ----------------------------------------------------------


def test_series_phi_text(capsys):
    code, out, _ = run_cli(
        capsys, "series", "phi", "--scale", "1", "--power", "1", "--order", "7"
    )
    assert code == 0
    assert out == "1 - q - q^2 + q^5 + q^7 + O(q^8)\n"


def test_series_phi_zero_scale_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "series", "phi", "--scale", "0", "--power", "1")
    assert code == 2
    assert "positive" in err
    code, out, err = run_cli(
        capsys, "series", "phi", "--scale", "1", "--power", "\u0662"
    )
    assert code == 2
    assert out == ""
    assert "error: argument --power: value must be an integer" in err


def test_series_product_json_spec(capsys):
    spec = json.dumps(
        {"factors": [{"scale": "2", "power": 2}, {"scale": "1", "power": -1}]}
    )
    code, out, _ = run_cli(capsys, "series", "product", "--spec", spec, "--order", "10")
    assert code == 0
    assert out == "1 + q + q^3 + q^6 + q^10 + O(q^11)\n"


def test_series_product_bad_json_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "series", "product", "--spec", "{not json")
    assert code == 2


@pytest.mark.parametrize(
    "spec",
    [
        "[]",
        "{}",
        '{"factors": [{"scale": 1.5, "power": 1}]}',
        '{"factors": [{"scale": "1", "power": 1.5}]}',
        '{"factors": [{"scale": "1.5", "power": 1}]}',
        '{"factors": [{"scale": "1e400", "power": 1}]}',
        '{"factors": [{"scale": "1/0", "power": 1}]}',
        '{"factors": [{"scale": "1", "power": 1, "offset": 3}]}',
        '{"factors": [{"scale": "1", "power": 1}], "offset": 3}',
        pytest.param("[" * 5000 + "]" * 5000, id="5000-deep"),
    ],
)
def test_series_product_malformed_spec_is_one_line_usage_error(capsys, spec):
    code, out, err = run_cli(capsys, "series", "product", "--spec", spec)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "spec, key",
    [
        ('{"factors": [{"scale": "1", "power": 1, "power": 2}]}', "power"),
        ('{"factors": [{"scale": "1", "power": 1}], "factors": []}', "factors"),
    ],
    ids=["in-a-factor", "at-the-top"],
)
def test_series_product_repeated_key_is_usage_error(capsys, spec, key):
    # json.loads alone keeps the last value: phi(q)^2, or the empty product
    code, out, err = run_cli(capsys, "series", "product", "--spec", spec, "--order", "3")
    assert (code, out) == (2, "")
    assert err == f"error: spec repeats the key '{key}'\n"


def deep_spec(depth):
    return '{"factors": ' + "[" * depth + "]" * depth + "}"


@pytest.mark.parametrize(
    "spec, message",
    [
        (json.dumps({"factors": [{"scale": "x" * 2**20, "power": 1}]}), "factor scale must"),
        # deep enough to echo a long repr, shallow enough to parse under pytest
        (deep_spec(500), "factor must be a JSON object"),
    ],
    ids=["1MB-scale", "500-deep"],
)
def test_series_product_error_echoes_a_bounded_value(capsys, spec, message):
    code, out, err = run_cli(capsys, "series", "product", "--spec", spec)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert len(err.encode()) < 200, err[:300]


def test_negative_verify_order_is_usage_error(capsys):
    for argv in (
        ("verify", "classical", "euler", "--order", "-5"),
        ("verify", "proposition", "--partition", "1,3", "--k", "3", "--order", "-5"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == "error: order must be nonnegative, got -5\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("phi", "--scale", "1"),
        ("product", "--spec", '{"factors": [{"scale": "1", "power": 1}]}'),
        ("character", "--partition", "1,3", "--k", "3"),
        ("trace", "--partition", "1,3", "--k", "3"),
    ],
)
def test_negative_series_order_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "series", *argv, "--order", "-5")
    assert code == 2
    assert out == ""
    assert err == "error: order must be nonnegative, got -5\n"


def test_verify_proposition_trace_far_above_order(capsys):
    # the trace side starts at q^612, far beyond the requested window
    code, out, _ = run_cli(
        capsys, "verify", "proposition", "--partition", "3,4,5", "--k", "11",
        "--order", "18",
    )
    assert code == 0
    assert out == "match\nchecked through: q^18\nleading shifts: lhs q^7, rhs q^612\n"


def test_verify_text_parenthesizes_fractional_exponents(capsys):
    # as render writes them: q^(1/4), never the ambiguous q^1/4
    code, out, _ = run_cli(
        capsys, "verify", "proposition", "--partition", "2,2", "--k", "1",
        "--order", "0",
    )
    assert code == 0
    assert out == "match\nchecked through: q^0\nleading shifts: lhs q^(1/4), rhs q^(1/2)\n"


def test_series_character_trace_agree_after_normalization(capsys):
    _, out_c, _ = run_cli(
        capsys, "series", "character", "--partition", "1,3", "--k", "3",
        "--order", "10", "--json",
    )
    _, out_t, _ = run_cli(
        capsys, "series", "trace", "--partition", "1,3", "--k", "3",
        "--order", "10", "--json",
    )
    # the CLI prints the library's windows
    char = specialized_character_series((1, 3), 3, 10)
    trace = trace_series((1, 3), 3, 10)
    assert json.loads(out_c) == char.to_json()
    assert json.loads(out_t) == trace.to_json()
    assert char.lowest_exponent() == Fraction(1, 8)
    assert trace.lowest_exponent() == Fraction(7, 2)
    report = series_compare(char, trace)
    assert report.match
    assert report.checked_through >= Fraction(10) - Fraction(7, 2)


# Output bytes recorded from the earlier dense-Gram lattice engine, so the
# chain engine is held to values it did not produce (two multi-part partitions).
FROZEN_ROUTES = [
    (
        ("--partition", "1,1,2", "--k", "1", "--order", "6"),
        "q + 2*q^2 + q^3 + 2*q^4 + 6*q^5 + 8*q^6 + O(q^7)\n",
        '{"coeffs": ["1", "2", "1", "2", "6", "8"], "denom": 1, "lo": 1, "order": 6}\n',
        '{"coeffs": ["1", "0", "2", "0", "1", "0", "2", "0", "6", "0", "8", "0"], '
        '"denom": 2, "lo": 1, "order": 12}\n',
    ),
    (
        ("--partition", "1,2,3", "--k", "2", "--order", "12"),
        "q^5 + 2*q^8 + 2*q^9 + q^11 + 3*q^12 + O(q^13)\n",
        '{"coeffs": ["1", "0", "0", "2", "2", "0", "1", "3"], "denom": 1, "lo": 5, '
        '"order": 12}\n',
        '{"coeffs": ["1", "0", "0", "2", "2", "0", "1", "3", "3", "2", "2", "5"], '
        '"denom": 1, "lo": 1, "order": 12}\n',
    ),
]


def test_series_routes_frozen_bytes(capsys):
    for args, trace_text, trace_json, char_json in FROZEN_ROUTES:
        assert run_cli(capsys, "series", "trace", *args) == (0, trace_text, "")
        got = run_cli(capsys, "series", "trace", *args, "--json")
        assert got == (0, trace_json, "")
        got = run_cli(capsys, "series", "character", *args, "--json")
        assert got == (0, char_json, "")


def test_series_json_round_trip(capsys):
    _, out, _ = run_cli(
        capsys, "series", "phi", "--scale", "2", "--power", "-1", "--order", "9",
        "--json",
    )
    series = product_series(ProductSpec(((Fraction(2), -1),)), 9)
    assert json.loads(out) == series.to_json()
    # 1/phi(q^2) counts partitions into even parts
    assert series[0] == 1 and series[2] == 1 and series[4] == 2 and series[8] == 5


def test_series_fractional_order(capsys):
    # pentagonal exponents rescale to half-integers; 3/2 lands in a gap
    code, out, _ = run_cli(
        capsys, "series", "phi", "--scale", "1/2", "--power", "1", "--order", "3/2"
    )
    assert code == 0
    assert out == "1 - q^(1/2) - q + O(q^2)\n"


# -- mismatch reporting -------------------------------------------------------


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    import qchar.cli as cli_mod
    from qchar.identities import IdentitySpec, classical_identity
    from qchar.qseries import ProductSpec

    good = classical_identity("gauss_b")
    bad = IdentitySpec(
        "gauss_b",
        classical_identity("gauss_a").lhs,
        good.rhs,
    )
    monkeypatch.setattr(cli_mod, "classical_identity", lambda name: bad)
    code, out, _ = run_cli(capsys, "verify", "classical", "gauss_b", "--order", "20")
    assert code == 1
    assert "MISMATCH" in out
    assert "first mismatch at" in out


def test_verify_mismatch_text_parenthesizes_fractional_exponents(capsys, monkeypatch):
    # phi(q^(1/2)) against euler's sum first differs at q^(1/2)
    import qchar.cli as cli_mod
    from qchar.identities import IdentitySpec, classical_identity
    from qchar.qseries import ProductSpec

    bad = IdentitySpec(
        "euler", ProductSpec(((Fraction(1, 2), 1),)), classical_identity("euler").rhs
    )
    monkeypatch.setattr(cli_mod, "classical_identity", lambda name: bad)
    code, out, _ = run_cli(capsys, "verify", "classical", "euler", "--order", "41/2")
    assert code == 1
    assert out == (
        "MISMATCH\nchecked through: q^(41/2)\nfirst mismatch at q^(1/2): lhs -1 vs rhs 0\n"
    )


# -- determinism ---------------------------------------------------------


def test_json_reports_identical_across_repeated_runs(capsys):
    argvs = [
        ("verify", "classical", "jacobi", "--order", "60", "--json"),
        ("verify", "class1", "--m", "1", "--order", "30", "--json"),
        ("verify", "proposition", "--partition", "2,2", "--k", "1",
         "--order", "25", "--json"),
    ]
    for argv in argvs:
        outputs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1], argv


def test_cached_parser_matches_fresh_parsers(capsys, monkeypatch):
    # main parses with one parser per process; a fresh tree per call must
    # give the same codes and bytes through reports, a usage error and help
    import qchar.cli as cli_mod

    argvs = [
        ("verify", "classical", "euler", "--order", "20", "--json", "--timing"),
        ("verify", "class1", "--m", "2", "--order", "1.5"),
        ("--help",),
        ("verify", "proposition", "--partition", "1,3", "--k", "3", "--order", "40"),
    ]

    def sequence():
        seen = []
        for argv in argvs:
            code, out, err = run_cli(capsys, *argv)
            if out.startswith("{"):
                blob = json.loads(out)
                blob.pop("wall_time_ms")
                out = json.dumps(blob, sort_keys=True)
            seen.append((code, out, err))
        return seen

    cached = sequence()
    assert cli_mod._parser() is cli_mod._parser()
    assert cli_mod.build_parser() is not cli_mod.build_parser()
    with monkeypatch.context() as m:
        m.setattr(cli_mod, "_parser", cli_mod.build_parser)
        fresh = sequence()
    assert [code for code, _, _ in cached] == [0, 2, 0, 0]
    assert cached == fresh


def _child_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return dict(os.environ, PYTHONPATH=path)


def test_deepest_parsed_spec_echoes_a_bounded_value():
    # a child's stack is as short as a user's; 986 levels lie past the fixed
    # nesting limit there too, and the error is one short line
    proc = subprocess.run(
        [sys.executable, "-m", "qchar", "series", "product", "--spec", deep_spec(985)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert len(proc.stderr.encode()) < 200, proc.stderr[:300]


def test_spec_nesting_limit_is_the_same_in_process_and_in_a_child(capsys):
    # json.loads alone parses 971 levels in a fresh interpreter but runs out
    # of stack under pytest's frames; the fixed limit refuses both alike
    argv = ("series", "product", "--spec", deep_spec(970))
    code, out, err = run_cli(capsys, *argv)
    proc = subprocess.run(
        [sys.executable, "-m", "qchar", *argv], capture_output=True, text=True,
        env=_child_env(),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert (code, out, err) == (2, "", "error: spec is nested too deeply\n")


def test_spec_nesting_limit_counts_brackets_outside_strings(capsys):
    # _MAX_SPEC_DEPTH levels parse, one more does not; brackets in a string
    # are no nesting
    from qchar.cli import _MAX_SPEC_DEPTH

    for spec, message in (
        (deep_spec(_MAX_SPEC_DEPTH - 1), "error: factor must be a JSON object"),
        (deep_spec(_MAX_SPEC_DEPTH), "error: spec is nested too deeply"),
        ('{"factors": [], "x": "' + "[" * 2000 + '"}', "error: product spec has unknown"),
    ):
        code, out, err = run_cli(capsys, "series", "product", "--spec", spec)
        assert (code, out) == (2, "") and err.startswith(message), err[:100]


def test_installed_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "qchar", "verify", "classical", "euler",
         "--order", "30", "--json"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["match"] is True


def test_closed_stdout_pipe_exits_141_without_a_traceback():
    # the pipe's read end is closed before the child starts, so the report
    # meets a reader that is gone: that is no mismatch (1) and no usage
    # error (2), and nothing but the shell's SIGPIPE code reaches the caller
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qchar", "verify", "class1", "--m", "3",
             "--order", "200"],
            stdout=write, stderr=subprocess.PIPE, text=True, env=_child_env(),
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_import_leaves_numpy_unloaded():
    code = "import sys, qchar, qchar.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
