"""End-to-end tests of the command line interface and its file formats."""

import filecmp
import json
from pathlib import Path

import pytest

from cusplab import cli
from cusplab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    ConfigError,
    RunConfig,
    main,
)
from cusplab.dirac_lab import NonConvergenceError, spectra


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- symbols ------------------------------------------------------------------


def test_symbols_trace_expansion(capsys):
    code, out, _ = run(capsys, "symbols", "trace-expansion", "--alpha", "-2",
                       "--beta", "0")
    assert code == EXIT_OK
    assert json.loads(out) == {"terms": [[0, 0], [2, 1]]}


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


def test_usage_errors(capsys):
    code, _, err = run(capsys, "symbols", "compose-orders", "--a", "1,2")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "nonsense")
    assert code == EXIT_USAGE


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


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig.from_text("t_grid = 0.0,0.1,0.0\n")
    with pytest.raises(ConfigError):
        RunConfig.from_text("t_grid = -0.5\n")
    with pytest.raises(ConfigError):
        RunConfig.from_text("t_grid = 0.5\nbogus_key = 1\n")
    with pytest.raises(ConfigError):
        RunConfig.from_text("t_grid = 0.5\nrho_margin_factor = 10\n")
    with pytest.raises(ConfigError):
        RunConfig.from_text("t_grid = 0.5\nwindows = 2.0:1.0\n")
    for key, value in BAD_VALUES:
        text = "".join(f"{k} = {v}\n" for k, v in {"t_grid": "0.5", key: value}.items())
        with pytest.raises(ConfigError):
            RunConfig.from_text(text)


def test_bad_config_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nonsense without equals\n", encoding="utf-8")
    code, _, err = run(capsys, "spectrum", "sweep", str(path))
    assert code == EXIT_CONFIG
    code, _, _ = run(capsys, "spectrum", "sweep", str(tmp_path / "missing.cfg"))
    assert code == EXIT_CONFIG
    for key, value in BAD_VALUES:
        cfg = write_config(tmp_path, **{key: value})
        for command in (("spectrum", "sweep"), ("trace", "compute")):
            assert run(capsys, *command, str(cfg))[0] == EXIT_CONFIG, (key, value)


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


def test_trace_identical_lambdas_gives_zero_column(capsys, tmp_path):
    cfg = write_config(tmp_path, lambda0="-1.0", t_grid="0.4,0.2")
    assert run(capsys, "trace", "compute", str(cfg))[0] == EXIT_OK
    lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()[1:]
    assert all(line.endswith(",0.0") for line in lines)
    # but a fit with equal resolvent points is a config error
    assert run(capsys, "trace", "fit", str(cfg))[0] == EXIT_CONFIG


def test_trace_fit_rejects_zero_in_grid(capsys, tmp_path):
    cfg = write_config(tmp_path)  # grid contains 0
    assert run(capsys, "trace", "fit", str(cfg))[0] == EXIT_CONFIG


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
    assert cli.MAX_WORK >= 10 * 25 * 11 * 40 * 3999
    RunConfig.from_text("t_grid = " + ",".join(str(0.02 * i) for i in range(25, 0, -1))
                        + "\nk_max = 10\nlevels = 40\n")
    monkeypatch.setattr(spectra, "eigen_lowest", lambda *a, **k: pytest.fail("solved"))
    with pytest.raises(ConfigError, match="work estimate"):
        RunConfig.from_text("t_grid = 0.5\nk_max = 100000\n")
    cfg = write_config(tmp_path, k_max="100000", h="0.001")
    for command in (("spectrum", "sweep"), ("trace", "compute")):
        code, _, err = run(capsys, *command, str(cfg))
        assert code == EXIT_CONFIG and "work estimate" in err
    cfg = write_config(tmp_path, h="1e-320")  # length / h overflows to inf
    assert run(capsys, "spectrum", "sweep", str(cfg))[0] == EXIT_CONFIG
    cfg = write_config(tmp_path, t_grid="2000.0")  # the neck's sinh(t / 2) overflows
    assert run(capsys, "spectrum", "sweep", str(cfg))[0] == EXIT_CONFIG


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
                (("trace", "compute"), dict(levels=1)),
                (("trace", "fit"), dict(t_grid=ts, levels=1))]
    for command, keys in rejected:
        code, _, err = run(capsys, *command, str(write_config(tmp_path, **keys)))
        assert (code, calls) == (EXIT_CONFIG, []), (command, keys, err)
    accepted = [(("trace", "fit"), dict(t_grid=ts)),
                (("spectrum", "mass"), dict(windows="-1.0:0.001")),
                (("trace", "compute"), dict(levels=2))]
    for command, keys in accepted:
        code, _, err = run(capsys, *command, str(write_config(tmp_path, **keys)))
        assert code == EXIT_RUNTIME and "solved" in err and calls, (command, keys)
        calls.clear()


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
