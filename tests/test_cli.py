"""Tests for the command-line interface: schemas, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mystica import cli
from mystica.cli import main
from mystica.verify import VerifyConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_text_output(capsys):
    code, out, _ = run(capsys, "group", "--m", "1", "--p", "1", "--n", "3")
    assert code == 0
    assert out.startswith("G(1,1,3)  order 6")
    assert out.count("* (") >= 5  # permutation cycle text


def test_group_json_schema(capsys):
    code, out, _ = run(capsys, "group", "--m", "2", "--p", "2", "--n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["group"] == {"kind": "G", "m": 2, "p": 2, "n": 2}
    assert data["order"] == 4
    assert {"n": 2, "N": 4, "perm": [1, 2], "exp": [0, 0]} in data["elements"]


def test_w_group_via_cprime(capsys):
    code, out, _ = run(capsys, "group", "--m", "2", "--cprime", "1", "--n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["group"] == {"kind": "W", "m": 2, "cprime": 1, "n": 2}
    assert data["order"] == 4


def test_mu_json(capsys):
    code, out, _ = run(capsys, "mu", "--m", "2", "--p", "2", "--n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["label"] == "W(2,1,2)"
    assert data["order"] == 4


def test_equiv_text_and_exit(capsys):
    code, out, _ = run(capsys, "equiv", "--m", "2", "--p", "2", "--n", "2")
    assert code == 0
    assert out.strip().endswith("VERDICT: equivalent")
    code, out, _ = run(capsys, "equiv", "--m", "2", "--p", "2", "--n", "2", "--format", "json")
    data = json.loads(out)
    assert data["verdict"] is True
    assert data["D"] == 8
    assert data["per_degree"] == [True] * 9


def test_equiv_with_scalar_literal(capsys):
    # the twist carries the counterpart's group sum to the original group sum
    # for every invertible parameter, so equivalence holds at zeta4 as well
    code, out, _ = run(capsys, "equiv", "--m", "2", "--p", "2", "--n", "2", "--c", "zeta4^1")
    assert code == 0
    assert "VERDICT: equivalent" in out
    # the untwisted tag on the counterpart side must fail: distinct subgroups
    # have distinct group sums under a faithful action
    code, out, _ = run(capsys, "equiv", "--m", "2", "--p", "2", "--n", "2", "--c", "0")
    assert code == 1
    assert "VERDICT: not equivalent" in out


def test_invariants_command(capsys):
    code, out, _ = run(capsys, "invariants", "--m", "2", "--p", "2", "--n", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["generators_commute"] is True
    assert data["dimensions"]["series"] == data["dimensions"]["untwisted"]
    assert data["dimensions"]["series"] == data["dimensions"]["twisted"]
    assert data["verdict"] is True


def test_iso_command(capsys):
    code, out, _ = run(capsys, "iso", "--m", "2", "--p", "2", "--n", "2")
    assert code == 0
    assert "not isomorphic" in out


def test_thick_command(capsys):
    code, out, _ = run(capsys, "thick", "--m", "2", "--n", "2")
    assert code == 0
    assert "thick subgroups at level 2, rank 2: 3" in out


def test_determinism_identical_bytes(capsys):
    _, first, _ = run(capsys, "thick", "--m", "4", "--n", "2", "--format", "json")
    _, second, _ = run(capsys, "thick", "--m", "4", "--n", "2", "--format", "json")
    assert first == second
    _, first, _ = run(capsys, "group", "--m", "6", "--p", "3", "--n", "2", "--format", "json")
    _, second, _ = run(capsys, "group", "--m", "6", "--p", "3", "--n", "2", "--format", "json")
    assert first == second


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, "group", "--m", "6", "--p", "4", "--n", "2")
    assert code == 2
    assert "must divide" in err
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
    code, _, err = run(capsys, "mu", "--m", "3", "--p", "1", "--n", "2")
    assert code == 2
    assert "even" in err


def test_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("MYSTICA_CAP", "10")
    code, _, err = run(capsys, "thick", "--m", "2", "--n", "3")
    assert code == 2
    assert "cap" in err.lower()
    monkeypatch.delenv("MYSTICA_CAP")
    code, _, _ = run(capsys, "thick", "--m", "2", "--n", "3")
    assert code == 0


def test_verify_all_quick_grid(capsys):
    code, out, _ = run(
        capsys,
        "verify-all", "--max-m", "2", "--max-n", "2",
    )
    assert code == 0
    assert "failures: 0" in out
    assert "[PASS] orders-grid" in out


def test_verify_all_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "verify-all", "--max-m", "2", "--max-n", "2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert all(set(entry) >= {"check", "params", "pass"} for entry in data)
    assert all(entry["pass"] is True for entry in data)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("group", "--m", "2", "--p", "0", "--n", "2"), "p must be a positive integer"),
        (("group", "--m", "2", "--cprime", "0", "--n", "2"), "cprime must be a positive integer"),
        (("iso", "--m", "2", "--p", "2", "--n", "2", "--cap", "0"), "cap must be a positive integer"),
        (("thick", "--m", "2", "--n", "2", "--cap", "0"), "cap must be a positive integer"),
        (("equiv", "--m", "2", "--p", "2", "--n", "2", "--degree", "-1"), "degree must be a nonnegative integer"),
        (("verify-all", "--max-m", "0"), "max_m must be a positive integer"),
        (("verify-all", "--max-n", "0"), "max_n must be a positive integer"),
        (("verify-all", "--degree", "-1"), "degree must be a nonnegative integer"),
        (("verify-all", "--max-n", "-2", "--format", "json"), "max_n must be a positive integer"),
    ],
)
def test_nonpositive_arguments_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err


def test_verify_all_has_no_instances_option(capsys):
    code, out, err = run(capsys, "verify-all", "--instances", "5")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --instances 5" in err
    assert "Traceback" not in err


# the modules every query loads: the package, the CLI and the group layer
BASE_FOOTPRINT = {"mystica", "mystica.cli", "mystica.cyclo", "mystica.monomial", "mystica.groups"}


def _fresh_main(*argv):
    """Run cli.main(argv) in a fresh interpreter; return its exit code, the
    mystica modules loaded, and whether numpy, dataclasses and fractions were
    loaded."""
    code = (
        "import contextlib, io, json, sys\n"
        "from mystica import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({list(argv)!r})\n"
        "mystica = sorted(m for m in sys.modules if m.partition('.')[0] == 'mystica')\n"
        "print(json.dumps([code, mystica, *(name in sys.modules for name in ('numpy', 'dataclasses', 'fractions'))]))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    exit_code, modules, numpy, dataclasses, fractions = json.loads(done.stdout)
    return exit_code, set(modules), numpy, dataclasses, fractions


@pytest.mark.parametrize(
    "argv, extra",
    [
        (("mu", "--m", "4", "--p", "1", "--n", "3"), set()),
        (("iso", "--m", "4", "--p", "2", "--n", "3"), {"mystica.classify"}),
        (("invariants", "--m", "4", "--p", "2", "--n", "3"), {"mystica.linalg", "mystica.qpoly"}),
        (
            ("equiv", "--m", "4", "--p", "2", "--n", "3"),
            {"mystica.linalg", "mystica.qpoly", "mystica.groupalg", "mystica.mystic"},
        ),
        (
            ("verify-all", "--max-m", "2", "--max-n", "2"),
            {f"mystica.{name}" for name in ("linalg", "qpoly", "groupalg", "mystic", "classify", "verify")},
        ),
    ],
    ids=["mu", "iso", "invariants", "equiv", "verify-all"],
)
def test_each_command_loads_only_its_modules(argv, extra):
    # numpy is imported only by linalg's F_q certificate, which no command
    # reaches, no module uses dataclasses, and cyclo keeps its rationals as
    # integers, so no command loads fractions
    assert _fresh_main(*argv) == (0, BASE_FOOTPRINT | extra, False, False, False)


@pytest.mark.parametrize(
    "flags, config",
    [
        ((), VerifyConfig()),
        (("--max-m", "2", "--max-n", "2", "--degree", "0"), VerifyConfig(2, 2, 0)),
        (("--max-n", "3"), VerifyConfig(max_n=3)),
    ],
)
def test_verify_all_options_default_to_verify_config(flags, config):
    args = cli.build_parser().parse_args(["verify-all", *flags])
    assert cli._verify_config(args) == config


def test_degree_zero_is_honoured(capsys):
    code, out, err = run(capsys, "equiv", "--m", "2", "--p", "2", "--n", "2", "--degree", "0", "--format", "json")
    assert code == 0 and "Traceback" not in err
    data = json.loads(out)
    assert data["D"] == 0
    assert data["per_degree"] == [True]
    code, out, err = run(capsys, "invariants", "--m", "2", "--p", "2", "--n", "2", "--degree", "0", "--format", "json")
    assert code == 0 and "Traceback" not in err
    data = json.loads(out)
    assert data["D"] == 0
    assert data["dimensions"] == {"series": [1], "untwisted": [1], "twisted": [1]}
    # at degree 0 every thick subgroup has the same group-sum operator, so the
    # uniqueness scan fails honestly: a verification failure, not a crash
    code, out, err = run(
        capsys,
        "verify-all", "--max-m", "2", "--max-n", "2", "--degree", "0", "--format", "json",
    )
    assert code == 1 and "Traceback" not in err
    data = json.loads(out)
    equivalence = [entry for entry in data if entry["check"] == "operator-equivalence"]
    assert equivalence and all(entry["detail"] == "per-degree 1" for entry in equivalence)
    assert [entry["check"] for entry in data if not entry["pass"]] == ["uniqueness-scan"]


@pytest.mark.parametrize("value", ["abc", "-5", "0", "1e3"])
def test_invalid_cap_variable_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("MYSTICA_CAP", value)
    code, out, err = run(capsys, "thick", "--m", "2", "--n", "2")
    assert code == 2
    assert out == ""
    assert err == f"mystica: MYSTICA_CAP must be a positive integer, got {value!r}\n"


def test_scalar_literal_with_zero_denominator_is_a_usage_error(capsys):
    code, out, err = run(capsys, "equiv", "--m", "2", "--p", "2", "--n", "2", "--c", "1/0")
    assert code == 2
    assert out == ""
    assert "zero denominator" in err and "Traceback" not in err


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(*args):
        raise KeyError("lost\nline")

    monkeypatch.setattr(cli, "enumerate_thick", broken)
    code, out, err = run(capsys, "thick", "--m", "2", "--n", "2")
    assert code == 3  # never 1, which reports a refuted check
    assert out == ""
    assert err == "mystica: internal error: KeyError: 'lost\\nline'\n"


_SCALARS = ("0", "1", "-1", "zeta4", "1/2+1/2*zeta4", "1/0", "zeta0", "2*(", "x")


@st.composite
def _argv(draw):
    # mostly valid groups (m <= 4, n <= 3), with some invalid values mixed in
    command = draw(st.sampled_from(("group", "thick", "mu", "equiv", "invariants", "iso")))
    m = draw(st.sampled_from((1, 2, 3, 4, 2, 4, 0, -1)))
    small = st.sampled_from((1, 2, 4, m, 3, 0, -1))
    argv = [command, "--m", str(m), "--n", str(draw(st.sampled_from((1, 2, 3, 2, 3, 0, -1))))]
    if command != "thick" and draw(st.booleans()):
        argv += ["--p", str(draw(small))]
    if command in ("equiv", "invariants") and draw(st.booleans()):
        argv += ["--degree", str(draw(st.integers(min_value=-1, max_value=6)))]
    if command in ("thick", "iso") and draw(st.booleans()):
        argv += ["--cap", str(draw(st.integers(min_value=-1, max_value=600)))]
    if command == "group" and draw(st.booleans()):
        argv += ["--cprime", str(draw(small))]
    if command == "equiv" and draw(st.booleans()):
        argv += ["--c", draw(st.sampled_from(_SCALARS))]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


@settings(max_examples=25, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_fuzzed_arguments_keep_the_exit_code_contract(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
