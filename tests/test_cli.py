"""End-to-end tests of the command line interface and its file formats."""

import filecmp
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import cusplab
from cusplab import cli
from cusplab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    MAX_DIGITS,
    ConfigError,
    RunConfig,
    main,
)
from cusplab.dirac_lab import (
    NonConvergenceError,
    RunRefusedError,
    SpectrumParams,
    check_grids,
    check_windows,
    ground_states,
    solver,
    spectra,
)
from test_acceptance import CONFIG_TEMPLATE, GOLDEN_DIR, TRACE_CONFIG_TEMPLATE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


NUMERICAL_COMMANDS = (("spectrum", "sweep"), ("spectrum", "count"), ("spectrum", "mass"),
                      ("trace", "compute"), ("trace", "fit"))


def refuse_work(monkeypatch) -> list:
    """Make every eigensolve and Sturm count of ``spectra`` fail; returns the calls made."""
    calls = []

    def work(*args, **kwargs):
        calls.append(args)
        raise AssertionError("worked")

    for name in ("eigen_lowest", "sturm_counts"):
        monkeypatch.setattr(spectra, name, work)
    return calls


# -- symbols ------------------------------------------------------------------


def test_symbols_trace_expansion(capsys):
    code, out, _ = run(capsys, "symbols", "trace-expansion", "--alpha", "-2",
                       "--beta", "0")
    assert code == EXIT_OK
    assert json.loads(out) == {"terms": [[0, 0], [2, 1]]}


@pytest.mark.parametrize("alpha, beta", [("-1", "0"), ("-3/2", "1/3")])
def test_symbols_trace_expansion_outside_the_trace_class_is_a_usage_error(capsys, alpha, beta):
    code, out, err = run(capsys, "symbols", "trace-expansion",
                         f"--alpha={alpha}", f"--beta={beta}")
    assert (code, out) == (EXIT_USAGE, ""), err
    assert err == (f"usage error: need alpha < -1 and beta <= 0 for a trace; "
                   f"got ({alpha}, {beta})\n")


def test_symbols_compose_orders(capsys):
    code, out, _ = run(capsys, "symbols", "compose-orders",
                       "--a", "-1,-1,0", "--b", "-1,-1,0")
    assert code == EXIT_OK
    assert json.loads(out) == {"orders": [-2, -2, 0]}


def test_symbols_mapping_orders(capsys):
    code, out, _ = run(capsys, "symbols", "mapping-orders",
                       "--orders", "1,1,0", "--section", "0,0")
    assert code == EXIT_OK
    assert json.loads(out) == {"orders": [-1, 0]}
    code, out, _ = run(capsys, "symbols", "mapping-orders",
                       "--orders", "-1,-1,0", "--section", "1/2,0")
    assert code == EXIT_OK
    assert json.loads(out) == {"orders": [1.5, 0]}


def test_symbols_verify_fixture(capsys):
    code, out, _ = run(capsys, "symbols", "verify-fixture")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert all(c["passed"] for c in payload["checks"])
    assert any("b-fibration" in c["name"] for c in payload["checks"])


FIXTURE_CHECKS = (
    "pi2_1 rows match the pinned exponents",
    "pi2_2 is the 1<->2 mirror of pi2_1",
    "pi2_1 is b-normal",
    "pi2_1 rows have exactly one nonzero entry",
    *(f"{name} {claim}" for name in ("pi2_1", "pi2_2", "pi3_12", "pi3_23", "pi3_13")
      for claim in ("is a b-fibration", "entries all lie in {0, 1}")),
    "triple faces over the cusp front face of the outer projection",
    "temporal face projects over the temporal boundary",
    "triple cusp face lies over the cusp face in all three projections",
    "double-space density exponents are (2, 3)",
    "triple-space density exponents are (3, 5)",
    "reference density front-face exponent is 1",
    "mapping pipeline reproduces the closed formula on a sample",
    "composition pipeline reproduces order addition on a sample",
)


def test_symbols_verify_fixture_prints_every_check_in_order(capsys):
    # the whole stdout, byte for byte: every check, in order, each passed
    checks = ",\n".join(f'    {{\n      "name": "{name}",\n      "passed": true\n    }}'
                        for name in FIXTURE_CHECKS)
    code, out, _ = run(capsys, "symbols", "verify-fixture")
    assert code == EXIT_OK
    assert out == f'{{\n  "all_passed": true,\n  "checks": [\n{checks}\n  ]\n}}\n'


def test_usage_errors(capsys):
    code, _, err = run(capsys, "symbols", "compose-orders", "--a", "1,2")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "nonsense")
    assert code == EXIT_USAGE
    for command in ("spectrum", "trace", "symbols"):  # argparse refuses unknown subcommands
        assert run(capsys, command, "bogus")[0] == EXIT_USAGE, command


@pytest.mark.parametrize("argv", [
    ("mapping-orders", "--orders", "x,1,0", "--section", "0,0"),
    ("mapping-orders", "--orders", "1,1,0", "--section", "0,0,0"),
    ("mapping-orders", "--orders", "1,1,0", "--section", "0,1/0"),
    ("compose-orders", "--a", "1,1/0,0", "--b", "1,1,0"),
    ("trace-expansion", "--alpha", "nan", "--beta", "0"),
    ("trace-expansion", "--alpha", "1/0", "--beta", "0"),
    ("trace-expansion", "--alpha", "-2", "--beta", "1,2")],
    ids=["orders-not-rational", "section-three-parts", "section-zero-denominator",
         "orders-zero-denominator", "alpha-nan", "alpha-zero-denominator", "beta-two-parts"])
def test_symbols_reject_bad_rationals_as_usage_errors(capsys, argv):
    code, out, err = run(capsys, "symbols", *argv)
    assert (code, out) == (EXIT_USAGE, ""), err
    assert err.startswith("usage error: expected ")


@pytest.mark.parametrize("argv", [
    ("trace-expansion", "--alpha=-1e10000000", "--beta=0"),
    ("mapping-orders", "--orders", "1,1e5000,0", "--section", "0,0"),
    ("mapping-orders", "--orders", "1,1,0", "--section", f"0,1e-{MAX_DIGITS + 1}"),
    ("compose-orders", "--a", "1,1,0", "--b", f"1,{'7' * (MAX_DIGITS + 1)},0"),
    ("compose-orders", "--a", f"1,1/{'3' * (MAX_DIGITS + 1)},0", "--b", "1,1,0"),
    ("trace-expansion", "--alpha", f"-{'9' * 600}.{'9' * 401}", "--beta", "0")],
    ids=["alpha-huge-exponent", "orders-huge-exponent", "section-exponent-over",
         "numerator-over", "denominator-over", "decimal-digits-over"])
def test_symbols_refuse_oversized_rationals_before_parsing(capsys, argv):
    # the bound is read off the string: building 1e10000000 as a Fraction
    # takes seconds, and printing it trips Python's 4300-digit int -> str limit
    start = time.perf_counter()
    code, out, err = run(capsys, "symbols", *argv)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (EXIT_USAGE, ""), err
    assert err.startswith("usage error: expected ") and f"{MAX_DIGITS} digits" in err


def test_symbols_accept_rationals_at_the_digit_bound(capsys):
    big = 10 ** MAX_DIGITS
    code, out, err = run(capsys, "symbols", "trace-expansion",
                         f"--alpha=-1e{MAX_DIGITS}", "--beta=0")
    assert (code, json.loads(out)) == (EXIT_OK, {"terms": [[0, 0], [big, 1]]}), err
    num, den = "9" * MAX_DIGITS, "7" * (MAX_DIGITS - 1) + "1"
    code, out, err = run(capsys, "symbols", "mapping-orders", "--orders",
                         f"0,-{num}/{den},0", "--section", f"-{num}e-{MAX_DIGITS},0")
    want = Fraction(int(num), int(den)) - Fraction(int(num), big)
    assert (code, json.loads(out)) == (EXIT_OK, {"orders": [float(want), 0]}), err
    code, out, err = run(capsys, "symbols", "compose-orders",
                         "--a", f"1,{num[:500]}.{num[500:]}e{MAX_DIGITS},0",
                         "--b", f"1,{num}e{MAX_DIGITS},0")
    want = int(num) * 10 ** 500 + int(num) * big  # about 2 * MAX_DIGITS digits
    assert (code, json.loads(out)) == (EXIT_OK, {"orders": [2, want, 0]}), err


def test_symbols_non_integer_result_beyond_the_float_range_is_a_runtime_error(capsys):
    # exact inside the digit bound, but JSON carries a non-integer as a float,
    # which would read as infinity or as a zero exponent
    for argv, where in (
        (("mapping-orders", "--orders", "1,1/3,0", "--section", "1e400,0"), "beyond"),
        (("trace-expansion", "--alpha=-2", "--beta=-1e-400"), "below"),
        (("mapping-orders", "--orders", "1,1e-400,0", "--section", "0,0"), "below"),
    ):
        code, out, err = run(capsys, "symbols", *argv)
        assert (code, out) == (EXIT_RUNTIME, ""), argv
        assert err == f"error: a non-integer result lies {where} the float range\n"


# -- config -------------------------------------------------------------------


CONFIG = """\
# sweep config
t_grid = 0.4,0.2,0.0
k_max = 1
levels = 3
h = 0.01
rho_margin_factor = 50.0
lambda = -1.0
lambda0 = -2.0
windows = 0.0:3.0,0.0:0.1
output_dir = {outdir}
"""


def write_config(tmp_path: Path, name="run.cfg", **overrides) -> Path:
    text = CONFIG.format(outdir=tmp_path / "out")
    for key, val in overrides.items():
        lines = [ln for ln in text.splitlines() if not ln.startswith(f"{key} ")]
        lines.append(f"{key} = {val}")
        text = "\n".join(lines)
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_config_round_trip(tmp_path):
    cfg = RunConfig.from_text(CONFIG.format(outdir="out"))
    assert RunConfig.from_text(cfg.to_text()) == cfg


BAD_VALUES = (("t_grid", "inf,0.1,0.0"), ("t_grid", "0.4,nan,0.0"), ("h", "nan"), ("h", "inf"),
              ("rho_margin_factor", "nan"), ("rho_margin_factor", "inf"), ("lambda", "nan"),
              ("lambda0", "-inf"), ("windows", "0.0:inf"), ("t_grid", "0.4,0.4,0.0"))


def test_config_validation(monkeypatch, capsys, tmp_path):
    # RunConfig only parses: keys, values, finite lambdas and windows, a < b
    with pytest.raises(ConfigError):
        RunConfig.from_text("t_grid = 0.5\nbogus_key = 1\n")
    with pytest.raises(ConfigError):
        RunConfig.from_text("t_grid = 0.5\nrho_margin_factor = 10\n")
    with pytest.raises(ConfigError):
        RunConfig.from_text("t_grid = 0.5\nwindows = 2.0:1.0\n")
    grids = ["0.0,0.1,0.0", "-0.5"]
    for key, value in BAD_VALUES:
        if key == "t_grid":
            grids.append(value)
            continue
        text = "".join(f"{k} = {v}\n" for k, v in {"t_grid": "0.5", key: value}.items())
        with pytest.raises(ConfigError):
            RunConfig.from_text(text)
    # the t rules are the library's: the config parses, and every command
    # refuses the run before any work
    calls = refuse_work(monkeypatch)
    for grid in grids:
        RunConfig.from_text(f"t_grid = {grid}\n")
        cfg = write_config(tmp_path, t_grid=grid)
        for command in NUMERICAL_COMMANDS:
            code, _, err = run(capsys, *command, str(cfg))
            assert code == EXIT_CONFIG and err.startswith("config error: "), (grid, command, err)
    assert calls == [] and not (tmp_path / "out").exists()


def test_bad_config_exit_code(monkeypatch, capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nonsense without equals\n", encoding="utf-8")
    code, _, err = run(capsys, "spectrum", "sweep", str(path))
    assert code == EXIT_CONFIG
    code, _, _ = run(capsys, "spectrum", "sweep", str(tmp_path / "missing.cfg"))
    assert code == EXIT_CONFIG
    for text, named in (("t_grid = 0.5\nk_max = 1\nk_max = 2\n", "line 3: duplicate key 'k_max'"),
                        ("k_max = 1\n", "missing required key t_grid")):
        with pytest.raises(ConfigError, match=re.escape(named)):
            RunConfig.from_text(text)
        path.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "spectrum", "sweep", str(path))
        assert code == EXIT_CONFIG and named in err, err
    calls = refuse_work(monkeypatch)
    for key, value in BAD_VALUES:
        cfg = write_config(tmp_path, **{key: value})
        for command in NUMERICAL_COMMANDS:
            assert run(capsys, *command, str(cfg))[0] == EXIT_CONFIG, (key, value, command)
    assert calls == [] and not (tmp_path / "out").exists()


def test_a_byte_order_mark_is_not_part_of_the_first_key(capsys, tmp_path):
    # some Windows editors start a UTF-8 file with U+FEFF; the run and its
    # manifest are those of the same file without it
    text = f"t_grid = 0.5\nwindows = 0.0:2.0\noutput_dir = {tmp_path / 'out'}\n"
    for name, encoding in (("plain.cfg", "utf-8"), ("bom.cfg", "utf-8-sig")):
        (tmp_path / name).write_text(text, encoding=encoding)
    assert (tmp_path / "bom.cfg").read_bytes() == b"\xef\xbb\xbf" + text.encode()
    outputs = []
    for name in ("plain.cfg", "bom.cfg"):
        assert run(capsys, "spectrum", "count", str(tmp_path / name))[0] == EXIT_OK
        outputs.append({f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()})
    assert outputs[0] == outputs[1] and set(outputs[0]) == {"counts.csv", "manifest.json"}


def test_empty_output_dir_is_a_config_error(monkeypatch, capsys, tmp_path):
    # an empty output_dir would write the outputs into the working directory
    monkeypatch.setattr(spectra, "eigen_lowest", lambda *a, **k: pytest.fail("solved"))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match="output_dir"):
        RunConfig.from_text("t_grid = 0.5\noutput_dir =\n")
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("t_grid = 0.4,0.0\nk_max = 0\nlevels = 2\noutput_dir = \n", encoding="utf-8")
    for command in (("spectrum", "sweep"), ("spectrum", "mass"), ("trace", "compute")):
        code, _, err = run(capsys, *command, str(cfg))
        assert code == EXIT_CONFIG and "output_dir" in err, (command, err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.cfg"]


def test_an_output_dir_that_cannot_be_a_directory_is_refused_before_any_work(monkeypatch, capsys,
                                                                           tmp_path):
    # a file, or a path below one, used to run every solve and then exit 1
    # ("File exists", "Not a directory"); the check creates nothing
    calls = refuse_work(monkeypatch)
    blocker = tmp_path / "file"
    blocker.write_text("kept\n", encoding="utf-8")
    for outdir in (blocker, blocker / "out", blocker / "a" / "b"):
        cfg = write_config(tmp_path, t_grid="0.5,0.3,0.2,0.1,0.05,0.02", output_dir=outdir)
        for command in NUMERICAL_COMMANDS:
            code, _, err = run(capsys, *command, str(cfg))
            assert code == EXIT_CONFIG and f"{blocker} is a file" in err, (command, outdir, err)
    assert calls == [] and blocker.read_text(encoding="utf-8") == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "run.cfg"]


def test_trace_fit_refuses_an_ill_conditioned_t_grid_before_any_solve(monkeypatch, capsys,
                                                                     tmp_path):
    # the fit's condition estimate depends on the t and the bases alone: six t
    # within 5e-8 of each other made 12 solves, then failed with exit 1
    calls = refuse_work(monkeypatch)
    ts = "0.3,0.30000001,0.30000002,0.30000003,0.30000004,0.30000005"
    cfg = write_config(tmp_path, t_grid=ts, k_max=1, levels=4)
    code, _, err = run(capsys, "trace", "fit", str(cfg))
    assert code == EXIT_CONFIG and "condition estimate" in err and "exceeds 1e+12" in err, err
    assert calls == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("action", ["error", "always"])
def test_trace_fit_refuses_a_monomial_that_overflows_before_any_solve(monkeypatch, capsys,
                                                                     tmp_path, action):
    # t^4 overflows at t = 1e100: numpy warned, then the run exited 78 on an
    # infinite condition estimate, or 1 with a traceback under -W error
    calls = refuse_work(monkeypatch)
    cfg = write_config(tmp_path, t_grid="0.5,0.4,0.3,0.2,0.1,1e100", k_max=1, levels=4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        code, _, err = run(capsys, "trace", "fit", str(cfg))
    assert code == EXIT_CONFIG and "t^4 is not finite at t = 1e+100" in err, err
    assert caught == [] and "RuntimeWarning" not in err
    assert calls == [] and not (tmp_path / "out").exists()


# -- spectrum / trace runs ------------------------------------------------------


def test_spectrum_sweep_outputs(capsys, tmp_path):
    cfg = write_config(tmp_path)
    code, _, _ = run(capsys, "spectrum", "sweep", str(cfg))
    assert code == EXIT_OK
    out = tmp_path / "out"
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "t,k,j,mu,lambda"
    # row count: 3 t-values x 2 modes x 3 levels
    assert len(lines) == 1 + 3 * 2 * 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["spectrum.csv"]
    for line in lines[1:]:
        t, k, j, mu, lam = line.split(",")
        assert float(mu) >= -1e-9
        assert float(lam) >= 0.0


def test_spectrum_count_and_mass_outputs(capsys, tmp_path):
    cfg = write_config(tmp_path)
    assert run(capsys, "spectrum", "count", str(cfg))[0] == EXIT_OK
    counts = (tmp_path / "out" / "counts.csv").read_text().splitlines()
    assert counts[0] == "t,a,b,count"
    assert len(counts) == 1 + 3 * 2
    assert run(capsys, "spectrum", "mass", str(cfg))[0] == EXIT_OK
    mass = (tmp_path / "out" / "mass.csv").read_text().splitlines()
    assert mass[0] == "t,j,window,fraction"
    fracs = [float(line.split(",")[3]) for line in mass[1:]]
    assert all(0.0 <= f <= 1.0 for f in fracs)


def test_trace_compute_and_fit(capsys, tmp_path):
    cfg = write_config(tmp_path, t_grid="0.5,0.3,0.2,0.1,0.05,0.02,0.01,0.005")
    assert run(capsys, "trace", "compute", str(cfg))[0] == EXIT_OK
    lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,g"
    assert len(lines) == 9
    assert run(capsys, "trace", "fit", str(cfg))[0] == EXIT_OK
    fit = json.loads((tmp_path / "out" / "fit.json").read_text())
    assert set(fit) == {"smooth", "log", "ratio"}
    assert len(fit["smooth"]["coefficients"]) == 3
    assert len(fit["log"]["coefficients"]) == 4


def test_trace_fit_matches_the_golden_fit(capsys, tmp_path):
    # the golden fit.json is the criterion-13 trace config's fit before the
    # commands shared one writer.  The traces it fits are held to 1e-11 of the
    # golden trace.csv and neither condition estimate exceeds 1.9e3, so a
    # fitted float that moves by 1e-6 is a changed fit, not rounding.
    cfg = tmp_path / "trace.cfg"
    cfg.write_text(TRACE_CONFIG_TEMPLATE.format(outdir=tmp_path / "out"), encoding="utf-8")
    assert run(capsys, "trace", "fit", str(cfg))[0] == EXIT_OK
    got = json.loads((tmp_path / "out" / "fit.json").read_text())
    want = json.loads((GOLDEN_DIR / "fit.json").read_text())
    assert sorted(got) == sorted(want) == ["log", "ratio", "smooth"]
    pairs = [(got["ratio"], want["ratio"])]
    for key in ("smooth", "log"):
        assert sorted(got[key]) == sorted(want[key])
        assert got[key]["monomials"] == want[key]["monomials"]
        assert got[key]["condition_estimate"] <= 1.9e3
        pairs += [(got[key][name], want[key][name])
                  for name in ("rms_residual", "condition_estimate")]
        pairs += zip(got[key]["coefficients"], want[key]["coefficients"], strict=True)
    for g, w in pairs:
        assert abs(g - w) <= 1e-6 * max(1.0, abs(w)), (g, w)


@pytest.mark.parametrize("command, name", [
    (("spectrum", "sweep"), "spectrum.csv"), (("spectrum", "count"), "counts.csv"),
    (("spectrum", "mass"), "mass.csv"), (("trace", "compute"), "trace.csv"),
    (("trace", "fit"), "fit.json")], ids=["sweep", "count", "mass", "compute", "fit"])
def test_each_command_writes_its_file_and_a_manifest_naming_it(capsys, tmp_path, command, name):
    cfg = write_config(tmp_path, t_grid="0.5,0.3,0.2,0.1,0.05,0.02")
    assert run(capsys, *command, str(cfg))[0] == EXIT_OK
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == sorted([name, "manifest.json"])
    assert json.loads((out / "manifest.json").read_text()) == {
        "tool": "cusplab", "version": cusplab.__version__,
        "config": RunConfig.from_text(cfg.read_text()).to_text(), "outputs": [name]}


def test_trace_identical_lambdas_gives_zero_column(capsys, tmp_path):
    cfg = write_config(tmp_path, lambda0="-1.0", t_grid="0.4,0.2")
    assert run(capsys, "trace", "compute", str(cfg))[0] == EXIT_OK
    lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()[1:]
    assert all(line.endswith(",0.0") for line in lines)
    # but a fit with equal resolvent points is a config error
    assert run(capsys, "trace", "fit", str(cfg))[0] == EXIT_CONFIG


def test_trace_compute_at_a_far_resolvent_point_is_finite(capsys, tmp_path):
    # far below every level, lambda = -1e100 and -1.7e308 (near -DBL_MAX, where
    # the tail model's (c - lambda) / A overflows to inf) give lambda = -1e60's
    # trace to rounding: the tail may not overflow into nan rows or a failure
    rows = {}
    for lam in ("-1e60", "-1e100", "-1.7e308"):
        cfg = tmp_path / "trace.cfg"
        cfg.write_text(TRACE_CONFIG_TEMPLATE.format(outdir=tmp_path / lam)
                       .replace("lambda = -1.0", f"lambda = {lam}"), encoding="utf-8")
        assert run(capsys, "trace", "compute", str(cfg))[0] == EXIT_OK
        lines = (tmp_path / lam / "trace.csv").read_text().splitlines()[1:]
        rows[lam] = [float(line.split(",")[1]) for line in lines]
    for lam in ("-1e100", "-1.7e308"):
        assert all(map(math.isfinite, rows[lam]))
        assert rows[lam] == pytest.approx(rows["-1e60"], rel=1e-12, abs=1e-12)


def test_trace_fit_rejects_zero_in_grid(capsys, tmp_path):
    cfg = write_config(tmp_path)  # grid contains 0
    assert run(capsys, "trace", "fit", str(cfg))[0] == EXIT_CONFIG


def test_each_command_solves_its_grid_in_one_call(monkeypatch, capsys, tmp_path):
    # every t of a command shares one pool, so the command asks for one table,
    # and mass for one set of ground states; count asks for none, and its
    # line reports the modes it factorised
    calls = []

    def counted(solve):
        def call(ts, params):
            calls.append(list(ts))
            return solve(ts, params)
        return call

    for name in ("dirac_spectrum", "ground_states"):
        monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
    grids = {"spectrum": "0.4,0.2,0.0", "trace": "0.5,0.3,0.2,0.1,0.05,0.02"}
    cfg = write_config(tmp_path, t_grid=grids["spectrum"])
    code, _, err = run(capsys, "spectrum", "count", str(cfg))
    # windows 0:3 and 0:0.1 have the mu-ends 0, 0.01 and 9; modes k <= 3 are
    # factorised at each t (k = 3 has no level at or below 9), with both
    # chiralities at t = 0: 16 matrices at 3 ends
    assert (code, calls) == (EXIT_OK, []), err
    assert err == "counted 3 values of t: 12 modes, 48 mode factorisations\n", err
    for command in (("spectrum", "sweep"), ("spectrum", "mass"),
                    ("trace", "compute"), ("trace", "fit")):
        cfg = write_config(tmp_path, t_grid=grids[command[0]])
        code, _, err = run(capsys, *command, str(cfg))
        want = sorted(map(float, grids[command[0]].split(",")), reverse=True)
        assert (code, calls) == (EXIT_OK, [want]), (command, err)
        # k_max = 1: mass solves mode 0 alone at each t > 0, the others both modes;
        # the cusp-depth search at t = 0 solves both modes and both chiralities
        necks = len(want) - (0.0 in want)
        modes = (1 if command[1] == "mass" else 2) * necks + 4 * (0.0 in want)
        assert err.startswith(f"solving {len(want)} values of t: {modes} mode solves"), err
        assert err.count("\n") == 1, err
        calls.clear()


def test_count_makes_no_eigensolve_and_matches_the_golden_counts(monkeypatch, capsys, tmp_path):
    # count factorises: it calls neither the eigensolver nor LAPACK's dstebz/dstein
    def solved(*args, **kwargs):
        raise AssertionError("solved")

    for module, name in ((solver, "eigen_lowest"), (spectra, "eigen_lowest"),
                         (solver, "_dstebz"), (solver, "_dstein"), (cli, "dirac_spectrum")):
        monkeypatch.setattr(module, name, solved)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG_TEMPLATE.format(outdir=tmp_path / "out"), encoding="utf-8")
    code, _, err = run(capsys, "spectrum", "count", str(cfg))
    assert code == EXIT_OK, err
    golden = (GOLDEN_DIR / "counts.csv").read_bytes()
    assert (tmp_path / "out" / "counts.csv").read_bytes() == golden


def test_only_mass_computes_an_eigenvector(monkeypatch, capsys, tmp_path):
    # the table and the trace read eigenvalues alone, so with LAPACK's dstein
    # failing they still run and match the golden files; mass reads a vector
    def failed(*args):
        raise AssertionError("dstein called")

    def traces(lines: list[str]) -> list[tuple[float, float]]:
        return [tuple(map(float, line.split(","))) for line in lines[1:]]

    def close(got: float, want: float) -> bool:
        return abs(got - want) <= 1e-11 * max(1.0, abs(want))

    monkeypatch.setattr(solver, "_dstein", failed)
    golden_rows = (GOLDEN_DIR / "spectrum.csv").read_text().splitlines()
    golden_traces = traces((GOLDEN_DIR / "trace.csv").read_text().splitlines())
    cfg, tcfg = tmp_path / "run.cfg", tmp_path / "trace.cfg"
    cfg.write_text(CONFIG_TEMPLATE.format(outdir=tmp_path / "out"), encoding="utf-8")
    tcfg.write_text(TRACE_CONFIG_TEMPLATE.format(outdir=tmp_path / "out"), encoding="utf-8")
    config, trace_config = (RunConfig.from_text(c.read_text()) for c in (cfg, tcfg))

    table = spectra.dirac_spectrum(config.t_grid, config.params)
    assert [f"{cli._fmt(r.t)},{r.k},{r.j},{cli._fmt(r.mu)},{cli._fmt(r.lam)}"
            for r in table.rows] == golden_rows[1:]
    for t, g in golden_traces[::4]:
        got = spectra.relative_resolvent_trace(t, trace_config.lam, trace_config.lam0,
                                               trace_config.params)
        assert close(got.value, g), (t, got.value, g)
    assert run(capsys, "spectrum", "sweep", str(cfg))[0] == EXIT_OK
    assert (tmp_path / "out" / "spectrum.csv").read_text().splitlines() == golden_rows
    assert run(capsys, "trace", "compute", str(tcfg))[0] == EXIT_OK
    got = traces((tmp_path / "out" / "trace.csv").read_text().splitlines())
    assert [t for t, _ in got] == [t for t, _ in golden_traces]
    assert all(close(g, w) for (_, g), (_, w) in zip(got, golden_traces)), got
    with pytest.raises(AssertionError, match="dstein called"):
        main(["spectrum", "mass", str(cfg)])


def test_count_work_is_bounded_before_any_factorisation(monkeypatch, capsys, tmp_path):
    # window 0:1e6 reaches mu = 1e12: some 2e6 modes of 3999 points at each t
    calls = []
    monkeypatch.setattr(spectra, "sturm_counts", lambda *a: calls.append(a))
    monkeypatch.setattr(spectra, "assemble_hamiltonian", lambda *a: calls.append(a))
    for windows, named in (("0.0:1e6", "work estimate"), ("0.0:1e200", "b^2 overflows")):
        cfg = write_config(tmp_path, windows=windows)
        code, _, err = run(capsys, "spectrum", "count", str(cfg))
        assert (code, calls) == (EXIT_CONFIG, []) and named in err, err
    assert not (tmp_path / "out").exists()


def test_reruns_are_byte_identical(capsys, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    cfg_a = write_config(tmp_path / "a", output_dir=tmp_path / "a" / "out")
    cfg_b = write_config(tmp_path / "b", output_dir=tmp_path / "b" / "out")
    for sub in (("spectrum", "sweep"), ("spectrum", "count"),
                ("spectrum", "mass")):
        assert run(capsys, *sub, str(cfg_a))[0] == EXIT_OK
        assert run(capsys, *sub, str(cfg_b))[0] == EXIT_OK
    files_a = sorted(p.name for p in (tmp_path / "a" / "out").iterdir())
    for name in files_a:
        if name == "manifest.json":
            continue  # embeds the configured output path
        a = tmp_path / "a" / "out" / name
        b = tmp_path / "b" / "out" / name
        assert filecmp.cmp(a, b, shallow=False), name


def test_work_bound_rejects_a_config_before_solving(monkeypatch, capsys, tmp_path):
    # the bound leaves room for ten criterion-12 datasets (25 t, 11 modes, 40 levels)
    assert spectra.MAX_WORK >= 10 * 25 * 11 * 40 * 3999
    check_grids([0.02 * i for i in range(25, 0, -1)], SpectrumParams(k_max=10, levels=40))
    # the t = 0 cusp search solves both chiralities: twice the solves of t > 0
    # on the same n = 3999, so 8.0e8 passes at t = 0.5 and is 1.6e9 at t = 0
    check_grids([0.5], SpectrumParams(k_max=1999, levels=100))
    calls = refuse_work(monkeypatch)
    k_cfg, t0_cfg = tmp_path / "k.cfg", tmp_path / "t0.cfg"  # at the default spacing
    out = f"output_dir = {tmp_path / 'out'}\n"
    k_cfg.write_text(f"t_grid = 0.5\nk_max = 100000\n{out}")
    t0_cfg.write_text(f"t_grid = 0.0\nk_max = 1999\nlevels = 100\n{out}")
    h_cfg = write_config(tmp_path, "h.cfg", k_max=100000, h=0.001)
    for cfg, named in ((k_cfg, "work estimate"), (t0_cfg, "work estimate 1599600000 "),
                       (h_cfg, "work estimate")):
        for command in (("spectrum", "sweep"), ("trace", "compute")):
            code, _, err = run(capsys, *command, str(cfg))
            assert code == EXIT_CONFIG and named in err, (cfg.name, command, err)
    cfg = write_config(tmp_path, h="1e-320")  # length / h overflows to inf
    assert run(capsys, "spectrum", "sweep", str(cfg))[0] == EXIT_CONFIG
    cfg = write_config(tmp_path, t_grid="2000.0")  # the neck's sinh(t / 2) overflows
    assert run(capsys, "spectrum", "sweep", str(cfg))[0] == EXIT_CONFIG
    cfg = write_config(tmp_path, t_grid="1e-320")  # 1 / sinh(t / 2) overflows: rho is unbounded
    code, _, err = run(capsys, "spectrum", "sweep", str(cfg))
    assert code == EXIT_CONFIG and "arclength domain must be finite" in err, err
    assert calls == [] and not (tmp_path / "out").exists()
    # mass counts the solves it makes, mode 0 at t > 0 and modes 0 and k_max
    # in both chiralities at t = 0, so it runs all three: t0_cfg's estimate
    # is 4 solves * 100 levels * 3999 points = 1.6e6
    monkeypatch.undo()
    more = ", plus 4 per further cusp-depth step"
    for cfg, line in ((k_cfg, "1 values of t: 1 mode solves"),
                      (t0_cfg, f"1 values of t: 4 mode solves{more}"),
                      (h_cfg, f"3 values of t: 6 mode solves{more}")):
        code, _, err = run(capsys, "spectrum", "mass", str(cfg))
        assert (code, err) == (EXIT_OK, f"solving {line}\n"), cfg.name
        assert (tmp_path / "out" / "mass.csv").exists(), cfg.name


def test_count_is_not_refused_for_solve_work_it_does_not_do(monkeypatch, capsys, tmp_path):
    # k_max and levels play no part in a count, so neither do the levels and
    # work bounds of a solve: count runs both configs and writes the counts of
    # k_max = 2, while sweep refuses them and names the bound
    calls = refuse_work(monkeypatch)
    monkeypatch.setattr(spectra, "sturm_counts", solver.sturm_counts)
    cfg = tmp_path / "run.cfg"
    counts = {}
    for keys, named in (("k_max = 2", None), ("k_max = 100000", "work estimate 12796927968 "),
                        ("levels = 5000", "exceeds the 3999 grid points")):
        out = tmp_path / keys.replace(" = ", "")
        cfg.write_text(f"t_grid = 0.5,0.1,0.0\n{keys}\nwindows = 0.0:3.0,0.5:2.0\n"
                       f"output_dir = {out}\n", encoding="utf-8")
        code, _, err = run(capsys, "spectrum", "count", str(cfg))
        assert code == EXIT_OK, (keys, err)
        counts[keys] = (out / "counts.csv").read_bytes()
        if named:
            code, _, err = run(capsys, "spectrum", "sweep", str(cfg))
            assert code == EXIT_CONFIG and named in err, (keys, err)
    assert len(set(counts.values())) == 1 and calls == []


def test_commands_reject_unrunnable_configs_before_solving(monkeypatch, capsys, tmp_path):
    calls = []

    def solve(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("solved")

    monkeypatch.setattr(spectra, "eigen_lowest", solve)
    ts = "0.5,0.3,0.2,0.1,0.05,0.02"  # the fewest t a fit of log_even_basis() takes
    rejected = [(("trace", "fit"), dict(t_grid=ts.rsplit(",", 1)[0])),
                (("spectrum", "mass"), dict(windows="0.0:3.0,-1.0:0.0")),
                (("spectrum", "mass"), dict(windows="-2.0:-1.0")),
                # b > 0 below the spacing at the pinch: no point of t = 0.4's grid
                (("spectrum", "mass"), dict(t_grid="0.4,0.0", k_max=0, levels=2,
                                            windows="0.0:1e-9")),
                (("trace", "compute"), dict(levels=1)),
                (("trace", "fit"), dict(t_grid=ts, levels=1))]
    for command, keys in rejected:
        code, _, err = run(capsys, *command, str(write_config(tmp_path, **keys)))
        assert (code, calls) == (EXIT_CONFIG, []), (command, keys, err)
    accepted = [(("trace", "fit"), dict(t_grid=ts)),
                (("spectrum", "mass"), dict(windows="-1.0:0.01")),
                (("trace", "compute"), dict(levels=2))]
    for command, keys in accepted:
        code, _, err = run(capsys, *command, str(write_config(tmp_path, **keys)))
        assert code == EXIT_RUNTIME and "solved" in err and calls, (command, keys)
        calls.clear()


def test_refusals_before_work_and_failures_after_a_solve_split(capsys, tmp_path):
    # check_windows refuses bad t before it builds a grid, and w <= 0
    with pytest.raises(RunRefusedError, match="inf"):
        check_windows([math.inf], SpectrumParams(), [1.0])
    with pytest.raises(RunRefusedError, match="w > 0"):
        check_windows([0.5], SpectrumParams(), [0.0])
    # at t = 0 the grid's depth is known only after the cusp search has
    # solved, so a window without grid points there fails in neck_mass: exit 1
    cfg = write_config(tmp_path, t_grid="0.0", k_max=0, levels=2, windows="0.0:1e-9")
    code, _, err = run(capsys, "spectrum", "mass", str(cfg))
    assert code == EXIT_RUNTIME and "window contains no grid points" in err, err
    assert not (tmp_path / "out").exists()


def test_mass_refuses_where_dstein_returns_a_vector_of_nan(monkeypatch, capsys, tmp_path):
    # from n^(3/2) * 2 / h^2 = 1.7 * SQRT_MAX LAPACK's dstein returns NaN in
    # every entry with info = 0: mass wrote the fraction nan with exit 0 at
    # t = 340.0 (2 / h^2 = 8.6e152), and now refuses it before any solve;
    # sweep calls no dstein and still solves it
    calls = refuse_work(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"t_grid = 340.0\nk_max = 2\nlevels = 30\nwindows = 0.5:2.5\n"
                   f"output_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    code, _, err = run(capsys, "spectrum", "mass", str(cfg))
    assert code == EXIT_CONFIG and "t = 340.0" in err and "dstein" in err, err
    assert calls == [] and not (tmp_path / "out").exists()
    with pytest.raises(RunRefusedError, match="dstein"):
        ground_states(340.0, SpectrumParams(k_max=2, levels=30))
    assert calls == []
    monkeypatch.undo()
    assert run(capsys, "spectrum", "sweep", str(cfg))[0] == EXIT_OK


def test_runtime_errors_exit_1_and_programming_errors_raise(monkeypatch, capsys, tmp_path):
    cfg = write_config(tmp_path)
    for exc in (NonConvergenceError("dstebz failed"), RuntimeError("no depth"),
                ValueError("bad t"), OSError("disk full")):
        def fail(*args, exc=exc):
            raise exc
        monkeypatch.setattr(cli, "dirac_spectrum", fail)
        code, _, err = run(capsys, "spectrum", "sweep", str(cfg))
        assert code == EXIT_RUNTIME and str(exc) in err
    monkeypatch.setattr(cli, "dirac_spectrum", lambda *args: None)
    with pytest.raises(AttributeError):  # a bug shows its traceback
        main(["spectrum", "sweep", str(cfg)])
    (tmp_path / "binary.cfg").write_bytes(b"\xff\xfe t_grid = 0.5\n")
    assert run(capsys, "spectrum", "sweep", str(tmp_path / "binary.cfg"))[0] == EXIT_CONFIG


def test_cold_start_and_the_process_entry_point(capsys, tmp_path):
    # the solver loads scipy's cython_lapack extension alone: importing the
    # CLI must not import the scipy.linalg package (about 290 modules)
    env = {**os.environ, "PYTHONPATH": str(Path(cusplab.__file__).parents[1])}  # src/

    def python(*args):
        return subprocess.run([sys.executable, *args], env=env, cwd=tmp_path,
                              capture_output=True, text=True)

    done = python("-c", "import sys, cusplab.cli; "
                        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))")
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
    done = python("-m", "cusplab.cli", "symbols", "trace-expansion", "--alpha", "-2", "--beta", "0")
    assert done.returncode == EXIT_OK and json.loads(done.stdout) == {"terms": [[0, 0], [2, 1]]}
    keys = dict(t_grid="0.4,0.0", k_max=0, levels=2, h=0.05, windows="0.0:3.0")
    done = python("-m", "cusplab.cli", "spectrum", "count", str(write_config(tmp_path, **keys)))
    assert done.returncode == EXIT_OK, done.stderr
    counts = (tmp_path / "out" / "counts.csv").read_text()
    assert counts.splitlines()[0] == "t,a,b,count" and len(counts.splitlines()) == 3
    cfg = write_config(tmp_path, "in_process.cfg", **keys, output_dir=tmp_path / "in_process")
    assert run(capsys, "spectrum", "count", str(cfg))[0] == EXIT_OK
    assert (tmp_path / "in_process" / "counts.csv").read_text() == counts


def test_symbols_commands_start_without_numpy(tmp_path):
    # the numerical lab is imported on first use: a symbols command leaves
    # numpy unloaded, and a config or RunConfig's default params load it
    env = {**os.environ, "PYTHONPATH": str(Path(cusplab.__file__).parents[1])}  # src/

    def python(script, *argv):
        return subprocess.run([sys.executable, "-c", script, *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True)

    command = ("import sys\nfrom cusplab.cli import main\ncode = main(sys.argv[1:])\n"
               "print(code, 'numpy' in sys.modules)\n")
    for argv in (("verify-fixture",), ("mapping-orders", "--orders", "1,1,0", "--section", "0,0"),
                 ("compose-orders", "--a", "-1,-1,0", "--b", "-1,-1,0"),
                 ("trace-expansion", "--alpha", "-2", "--beta", "0")):
        done = python(command, "symbols", *argv)
        assert done.stdout.splitlines()[-1] == "0 False", (argv, done.stdout, done.stderr)
    done = python("from cusplab.cli import RunConfig\n"
                  "from cusplab.dirac_lab import SpectrumParams\n"
                  "print(RunConfig(t_grid=(0.5,)).params == SpectrumParams())\n")
    assert done.stdout == "True\n", done.stderr
    assert RunConfig(t_grid=(0.5,)).params == SpectrumParams()
    # the library's refusal, raised by a module the CLI imported lazily, exits 78
    done = python(command, "spectrum", "sweep", str(write_config(tmp_path, t_grid="-0.5")))
    assert done.stdout.splitlines()[-1] == f"{EXIT_CONFIG} True", done.stderr
    assert done.stderr == "config error: pinching parameter t must be finite and >= 0, " \
                          "got -0.5\n", done.stderr
