"""Command-line orchestration: symbolic queries, spectral runs, trace fits.

Subcommands mirror the package layers: ``symbols`` wraps the exact order
arithmetic, ``spectrum`` and ``trace`` drive the numerical lab from a flat
``key = value`` config file and emit deterministic CSV/JSON (shortest
round-trip decimals, LF newlines, no timestamps in data files; run metadata
goes to a separate manifest.json).

Exit codes: 0 ok, 1 runtime error, 2 verification failure, 64 usage error,
78 config error.
"""

from __future__ import annotations

import argparse
import re
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from cusplab import __version__
from cusplab.dirac_lab import (
    SpectrumParams,
    SpectrumTable,
    check_grids,
    check_windows,
    dirac_spectrum,
    neck_mass,
    relative_resolvent_trace,
)
from cusplab.expfit import compare_models, log_even_basis, smooth_even_basis
from cusplab.surgery_spaces import (
    OpOrders,
    composition_orders,
    mapping_orders,
    trace_expansion_terms,
    verify_fixture,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VERIFY = 2
EXIT_USAGE = 64
EXIT_CONFIG = 78

# Largest accepted work estimate: over the t grid, the sum of
# solves * levels * n, with n the interior grid points of the first solve at
# t and solves = k_max + 1 at t > 0, 2 * (k_max + 1) at t = 0, where each
# step of the cusp-depth search solves both chiralities.  The criterion-12
# dataset (25 t, 11 modes, 40 levels, n = 3999) is 4.4e7, so this is about
# 23 times that; k_max = 100000 is 3.2e9 per t.
MAX_WORK = 10**9


class UsageError(Exception):
    pass


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let option values like "-1,-1,0" parse as values, not flags
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message: str):  # argparse default exits with code 2
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Config file handling
# ---------------------------------------------------------------------------

_CONFIG_KEYS = ("t_grid", "k_max", "levels", "h", "rho_margin_factor",
                "lambda", "lambda0", "windows", "output_dir")


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration; lists are comma-separated, windows are a:b pairs.

    ``SpectrumParams`` checks the spectral values (k_max, levels, h,
    rho_margin_factor); this class checks the rest and the work bound.
    """

    t_grid: tuple[float, ...]
    k_max: int = 2
    levels: int = 8
    h: float | None = None
    rho_margin_factor: float = 50.0
    lam: float = -1.0
    lam0: float = -2.0
    windows: tuple[tuple[float, float], ...] = ((0.0, 2.0),)
    output_dir: str = "out"

    def __post_init__(self) -> None:
        if not self.t_grid:
            raise ConfigError("t_grid must be nonempty")
        for key, values in (("t_grid", self.t_grid),
                            ("lambda", (self.lam,)), ("lambda0", (self.lam0,)),
                            ("windows", [x for w in self.windows for x in w])):
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"{key} must be finite")
        if any(t < 0 for t in self.t_grid):
            raise ConfigError("t_grid entries must be nonnegative")
        if len(set(self.t_grid)) != len(self.t_grid):
            raise ConfigError("t_grid values must be distinct")
        for a, b in self.windows:
            if not a < b:
                raise ConfigError(f"window ({a}, {b}) is empty")
        try:
            points = check_grids(self.t_grid, self.spectrum_params())
        except (ValueError, ArithmeticError) as exc:  # a huge t or a tiny h overflows
            raise ConfigError(str(exc)) from exc
        solves = [(self.k_max + 1) * (2 if t == 0 else 1) for t in self.t_grid]
        work = self.levels * sum(s * n for s, n in zip(solves, points))
        if work > MAX_WORK:
            raise ConfigError(f"work estimate {work} (the sum over t_grid of solves * levels * "
                              f"grid points, with k_max + 1 solves at t > 0 and twice that "
                              f"at t = 0) exceeds {MAX_WORK}")

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        raw: dict[str, str] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"line {lineno}: expected key = value")
            key, _, value = body.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in raw:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            raw[key] = value
        try:
            kwargs: dict = {}
            if "t_grid" in raw:
                kwargs["t_grid"] = tuple(float(x) for x in raw["t_grid"].split(","))
            else:
                raise ConfigError("missing required key t_grid")
            if "k_max" in raw:
                kwargs["k_max"] = int(raw["k_max"])
            if "levels" in raw:
                kwargs["levels"] = int(raw["levels"])
            if "h" in raw:
                kwargs["h"] = float(raw["h"])
            if "rho_margin_factor" in raw:
                kwargs["rho_margin_factor"] = float(raw["rho_margin_factor"])
            if "lambda" in raw:
                kwargs["lam"] = float(raw["lambda"])
            if "lambda0" in raw:
                kwargs["lam0"] = float(raw["lambda0"])
            if "windows" in raw:
                pairs = []
                for item in raw["windows"].split(","):
                    a, _, b = item.partition(":")
                    pairs.append((float(a), float(b)))
                kwargs["windows"] = tuple(pairs)
            if "output_dir" in raw:
                kwargs["output_dir"] = raw["output_dir"]
        except ValueError as exc:
            raise ConfigError(f"bad value: {exc}") from exc
        return cls(**kwargs)

    def to_text(self) -> str:
        lines = [
            "t_grid = " + ",".join(_fmt(t) for t in self.t_grid),
            f"k_max = {self.k_max}",
            f"levels = {self.levels}",
        ]
        if self.h is not None:
            lines.append(f"h = {_fmt(self.h)}")
        lines += [
            f"rho_margin_factor = {_fmt(self.rho_margin_factor)}",
            f"lambda = {_fmt(self.lam)}",
            f"lambda0 = {_fmt(self.lam0)}",
            "windows = " + ",".join(f"{_fmt(a)}:{_fmt(b)}" for a, b in self.windows),
            f"output_dir = {self.output_dir}",
        ]
        return "\n".join(lines) + "\n"

    def spectrum_params(self, keep_vectors: int = 0) -> SpectrumParams:
        return SpectrumParams(k_max=self.k_max, levels=self.levels, h=self.h,
                              rho_margin_factor=self.rho_margin_factor,
                              keep_vectors=keep_vectors)


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the double."""
    return repr(float(x))


def _load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return RunConfig.from_text(text)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_manifest(outdir: Path, config: RunConfig, outputs: list[str]) -> None:
    manifest = {
        "tool": "cusplab",
        "version": __version__,
        "config": config.to_text(),
        "outputs": sorted(outputs),
    }
    _write(outdir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# symbols subcommands
# ---------------------------------------------------------------------------


def _parse_orders(text: str) -> OpOrders:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"expected m,alpha,beta, got {text!r}")
    return OpOrders(*(Fraction(p.strip()) for p in parts))


def _num(x: Fraction):
    return int(x) if x.denominator == 1 else float(x)


def cmd_symbols(args: argparse.Namespace) -> int:
    if args.symbols_cmd == "verify-fixture":
        checks = verify_fixture()
        payload = {
            "checks": [{"name": name, "passed": ok} for name, ok in checks],
            "all_passed": all(ok for _, ok in checks),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK if payload["all_passed"] else EXIT_VERIFY
    if args.symbols_cmd == "mapping-orders":
        o = _parse_orders(args.orders)
        ap, bp = (Fraction(p.strip()) for p in args.section.split(","))
        lead = mapping_orders(o, (ap, bp))
        print(json.dumps({"orders": [_num(lead[0]), _num(lead[1])]}))
        return EXIT_OK
    if args.symbols_cmd == "compose-orders":
        out = composition_orders(_parse_orders(args.a), _parse_orders(args.b))
        print(json.dumps({"orders": [_num(out.m), _num(out.alpha), _num(out.beta)]}))
        return EXIT_OK
    if args.symbols_cmd == "trace-expansion":
        terms = trace_expansion_terms(Fraction(args.alpha), Fraction(args.beta))
        print(json.dumps({"terms": [[_num(z), k] for z, k in terms]}))
        return EXIT_OK
    raise UsageError("unknown symbols subcommand")


# ---------------------------------------------------------------------------
# spectrum subcommands
# ---------------------------------------------------------------------------


def _sorted_descending(config: RunConfig) -> list[float]:
    return sorted(config.t_grid, reverse=True)


def _solve(ts: list[float], params: SpectrumParams) -> SpectrumTable:
    """The spectra at every t of ``ts`` from one ``dirac_spectrum`` call, which pools the solves."""
    modes = params.k_max + 1
    more = f", plus {2 * modes} per further cusp-depth step" if 0.0 in ts else ""
    print(f"solving {len(ts)} values of t: {modes * (len(ts) + (0.0 in ts))} mode solves{more}",
          file=sys.stderr)
    return dirac_spectrum(ts, params)


def cmd_spectrum(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if args.spectrum_cmd == "mass":
        if any(b <= 0 for _, b in config.windows):
            raise ConfigError("spectrum mass needs every window's upper end b > 0")
        try:
            check_windows(config.t_grid, config.spectrum_params(), [b for _, b in config.windows])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if args.spectrum_cmd not in ("sweep", "count", "mass"):
        raise UsageError("unknown spectrum subcommand")
    outdir = Path(config.output_dir)
    ts = _sorted_descending(config)
    keep = 1 if args.spectrum_cmd == "mass" else 0  # mass reads the lowest level's vector
    table = _solve(ts, config.spectrum_params(keep_vectors=keep))
    outputs: list[str] = []
    if args.spectrum_cmd == "sweep":
        rows_text = ["t,k,j,mu,lambda"]
        for r in table.rows:
            rows_text.append(f"{_fmt(r.t)},{r.k},{r.j},{_fmt(r.mu)},{_fmt(r.lam)}")
        _write(outdir / "spectrum.csv", "\n".join(rows_text) + "\n")
        outputs.append("spectrum.csv")
    elif args.spectrum_cmd == "count":
        lines = ["t,a,b,count"]
        for t in ts:
            for a, b in config.windows:
                lines.append(f"{_fmt(t)},{_fmt(a)},{_fmt(b)},{table.eigen_count(a, b, t)}")
        _write(outdir / "counts.csv", "\n".join(lines) + "\n")
        outputs.append("counts.csv")
    else:
        lines = ["t,j,window,fraction"]
        for t in ts:
            low = table.lowest(t)
            handle = table.vector(t, low.k, low.j)
            for _, b in config.windows:
                lines.append(f"{_fmt(t)},{low.j},{_fmt(b)},{_fmt(neck_mass(t, handle, b))}")
        _write(outdir / "mass.csv", "\n".join(lines) + "\n")
        outputs.append("mass.csv")
    _write_manifest(outdir, config, outputs)
    return EXIT_OK


# ---------------------------------------------------------------------------
# trace subcommands
# ---------------------------------------------------------------------------


def _trace_values(config: RunConfig, ts: list[float]) -> list[tuple[float, float]]:
    params = config.spectrum_params()
    table = _solve(ts, params)
    return [(t, relative_resolvent_trace(t, config.lam, config.lam0, params, table=table).value)
            for t in ts]


def cmd_trace(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if config.levels < 2:
        raise ConfigError("trace needs levels >= 2 for its tail model")
    smooth, logb = smooth_even_basis(), log_even_basis()
    if args.trace_cmd == "fit":
        if config.lam == config.lam0:
            raise ConfigError("trace fit needs lambda != lambda0")
        if 0.0 in config.t_grid:
            raise ConfigError("trace fit requires a t_grid without 0")
        if len(config.t_grid) < logb.min_samples:
            raise ConfigError(f"trace fit needs at least {logb.min_samples} values of t")
    outdir = Path(config.output_dir)
    ts = _sorted_descending(config)
    outputs: list[str] = []
    if args.trace_cmd == "compute":
        values = _trace_values(config, ts)
        lines = ["t,g"] + [f"{_fmt(t)},{_fmt(g)}" for t, g in values]
        _write(outdir / "trace.csv", "\n".join(lines) + "\n")
        outputs.append("trace.csv")
    elif args.trace_cmd == "fit":
        values = _trace_values(config, ts)
        tvals = [t for t, _ in values]
        gvals = [g for _, g in values]
        comparison = compare_models(tvals, gvals, smooth, logb)
        payload = {
            "smooth": {
                "monomials": [[_num(z), k] for z, k in smooth.monomials],
                "coefficients": list(comparison.smooth.coefficients),
                "rms_residual": comparison.smooth.rms_residual,
                "condition_estimate": comparison.smooth.condition_estimate,
            },
            "log": {
                "monomials": [[_num(z), k] for z, k in logb.monomials],
                "coefficients": list(comparison.log.coefficients),
                "rms_residual": comparison.log.rms_residual,
                "condition_estimate": comparison.log.condition_estimate,
            },
            "ratio": comparison.ratio,
        }
        _write(outdir / "fit.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
        outputs.append("fit.json")
    else:
        raise UsageError("unknown trace subcommand")
    _write_manifest(outdir, config, outputs)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="cusplab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    symbols = sub.add_parser("symbols", help="exact order arithmetic queries")
    ssub = symbols.add_subparsers(dest="symbols_cmd", required=True)
    ssub.add_parser("verify-fixture", help="run the fixture invariants")
    mo = ssub.add_parser("mapping-orders", help="orders of an applied operator")
    mo.add_argument("--orders", required=True, help="m,alpha,beta")
    mo.add_argument("--section", required=True, help="alpha',beta'")
    co = ssub.add_parser("compose-orders", help="orders of a composition")
    co.add_argument("--a", required=True, help="m,alpha,beta")
    co.add_argument("--b", required=True, help="m,alpha,beta")
    te = ssub.add_parser("trace-expansion", help="leading trace monomials")
    te.add_argument("--alpha", required=True)
    te.add_argument("--beta", required=True)

    spectrum = sub.add_parser("spectrum", help="eigenvalue sweeps and counts")
    psub = spectrum.add_subparsers(dest="spectrum_cmd", required=True)
    for name, hlp in (("sweep", "full eigenvalue table"),
                      ("count", "window counts per t"),
                      ("mass", "neck mass of the lowest eigenvector")):
        p = psub.add_parser(name, help=hlp)
        p.add_argument("config", help="path to key = value config file")

    trace = sub.add_parser("trace", help="relative resolvent traces")
    tsub = trace.add_subparsers(dest="trace_cmd", required=True)
    for name, hlp in (("compute", "trace values over the t grid"),
                      ("fit", "fit smooth vs log bases")):
        p = tsub.add_parser(name, help=hlp)
        p.add_argument("config", help="path to key = value config file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "symbols":
            return cmd_symbols(args)
        if args.command == "spectrum":
            return cmd_spectrum(args)
        if args.command == "trace":
            return cmd_trace(args)
        raise UsageError("unknown command")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError, OSError) as exc:  # the library's and the files' failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
