"""Command-line orchestration: symbolic queries, spectral runs, trace fits.

Subcommands mirror the package layers: ``symbols`` wraps the exact order
arithmetic, ``spectrum`` and ``trace`` drive the numerical lab from a flat
``key = value`` config file and emit deterministic CSV/JSON (shortest
round-trip decimals, LF newlines, no timestamps in data files; run metadata
goes to a separate manifest.json).

Exit codes: 0 ok, 1 runtime error, 2 verification failure, 64 usage error,
78 config error: a config file that does not parse, or a run the library
refuses before any work (``RunRefusedError``).

The numerical lab and the fits load numpy and LAPACK, which ``symbols``
never uses, so their names are imported on first use: reading a config
(``RunConfig.from_text``, or a ``RunConfig`` with its default params) loads
them, and so does reading one of them as an attribute of this module.
"""

from __future__ import annotations

import argparse
import importlib
import re
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from cusplab import __version__
from cusplab.refusal import RunRefusedError
from cusplab.surgery_spaces import (
    OpOrders,
    TraceClassViolatedError,
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


# The numerical names this module uses, by the module that defines them.
_NUMERICS = {
    "cusplab.dirac_lab": ("Grid", "SpectrumParams", "SpectrumTable", "check_grids",
                          "check_trace", "check_windows", "dirac_spectrum", "ground_states",
                          "neck_mass", "relative_resolvent_trace", "window_counts"),
    "cusplab.expfit": ("check_fit", "compare_models", "log_even_basis", "smooth_even_basis"),
}


def _load_numerics() -> None:
    """File each numerical name in this module's globals.

    A name already there stays: a wrapper that replaced it (the benchmark's
    tracer, a test's patch) is what the commands below call.
    """
    for module_name, names in _NUMERICS.items():
        module = importlib.import_module(module_name)
        for name in names:
            globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    if any(name in names for names in _NUMERICS.values()):
        _load_numerics()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(Exception):
    pass


class ConfigError(RunRefusedError):
    """A config file that cannot be read or parsed, or a value its own rules refuse."""


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

def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the double."""
    return repr(float(x))


def _parse_windows(text: str) -> tuple[tuple[float, float], ...]:
    return tuple((float(a), float(b)) for a, _, b in (w.partition(":") for w in text.split(",")))


# Each config key in to_text's order: the field it sets, whether that field
# is RunConfig.params's, and the key's parser and formatter.
_KEYS = {
    "t_grid": ("t_grid", False, lambda v: tuple(float(x) for x in v.split(",")),
               lambda ts: ",".join(map(_fmt, ts))),
    "k_max": ("k_max", True, int, str),
    "levels": ("levels", True, int, str),
    "h": ("h", True, float, _fmt),
    "rho_margin_factor": ("rho_margin_factor", True, float, _fmt),
    "lambda": ("lam", False, float, _fmt),
    "lambda0": ("lam0", False, float, _fmt),
    "windows": ("windows", False, _parse_windows,
                lambda ws: ",".join(f"{_fmt(a)}:{_fmt(b)}" for a, b in ws)),
    "output_dir": ("output_dir", False, str, str),
}


def _default_params() -> SpectrumParams:
    _load_numerics()
    return SpectrumParams()


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration; lists are comma-separated, windows are a:b pairs.

    It only parses: it checks that lambda, lambda0 and the windows are finite
    with a < b and ``output_dir`` nonempty, and ``SpectrumParams`` the spectral
    values.  The library refuses a t grid or work it cannot run.
    """

    t_grid: tuple[float, ...]
    params: SpectrumParams = field(default_factory=_default_params)
    lam: float = -1.0
    lam0: float = -2.0
    windows: tuple[tuple[float, float], ...] = ((0.0, 2.0),)
    output_dir: str = "out"

    def __post_init__(self) -> None:
        for key, values in (("lambda", (self.lam,)), ("lambda0", (self.lam0,)),
                            ("windows", [x for w in self.windows for x in w])):
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"{key} must be finite")
        for a, b in self.windows:
            if not a < b:
                raise ConfigError(f"window ({a}, {b}) is empty")
        if not self.output_dir:
            raise ConfigError("output_dir must be nonempty")

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        _load_numerics()
        raw: dict[str, str] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"line {lineno}: expected key = value")
            key, _, value = body.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in raw:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            raw[key] = value
        if "t_grid" not in raw:
            raise ConfigError("missing required key t_grid")
        spectral, kwargs = {}, {}
        try:
            for key, value in raw.items():
                field, in_params, parse, _ = _KEYS[key]
                (spectral if in_params else kwargs)[field] = parse(value)
            params = SpectrumParams(**spectral)
        except ValueError as exc:
            raise ConfigError(f"bad value: {exc}") from exc
        return cls(params=params, **kwargs)

    def to_text(self) -> str:
        lines = []
        for key, (field, in_params, _, fmt) in _KEYS.items():
            value = getattr(self.params if in_params else self, field)
            if value is not None:  # h is None at the default spacing
                lines.append(f"{key} = {fmt(value)}")
        return "\n".join(lines) + "\n"


def _load_config(path: str) -> RunConfig:
    """The config at ``path``; ConfigError where its ``output_dir`` cannot be a directory.

    That is an ``output_dir`` that is a file or lies below one.  The check
    creates nothing: the outputs' directory is made only when they are written.
    """
    try:  # utf-8-sig drops the byte-order mark some editors write first
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    config = RunConfig.from_text(text)
    outdir = Path(config.output_dir)
    for p in (outdir, *outdir.parents):
        if p.exists():  # the deepest part of output_dir that exists
            if not p.is_dir():
                raise ConfigError(f"output_dir {outdir} cannot be a directory: {p} is a file")
            break
    return config


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# symbols subcommands
# ---------------------------------------------------------------------------


MAX_DIGITS = 1000  # per numerator, denominator and decimal exponent of a rational option


def _within_digit_bound(text: str) -> bool:
    """Whether a rational as written has at most ``MAX_DIGITS`` digits in its
    numerator and its denominator, and a decimal exponent of at most
    ``MAX_DIGITS`` in size.

    Read off the string, so no huge integer is ever built: ``Fraction`` would
    spend seconds on ``1e10000000`` before any check could run.  A value that
    passes has at most about 2 * MAX_DIGITS digits above and below the line.
    """
    mantissa, _, exponent = text.lower().partition("e")
    exp_digits = "".join(filter(str.isdecimal, exponent)).lstrip("0")
    if len(exp_digits) > len(str(MAX_DIGITS)) or int(exp_digits or 0) > MAX_DIGITS:
        return False
    return all(sum(map(str.isdecimal, part)) <= MAX_DIGITS for part in mantissa.split("/"))


def _rationals(text: str, names: str) -> list[Fraction]:
    """The comma-separated rationals of an option value, one per name in ``names``."""
    parts = text.split(",")
    if not all(map(_within_digit_bound, parts)):
        raise UsageError(f"expected {names} as rationals of at most {MAX_DIGITS} digits "
                         "in each numerator, denominator and decimal exponent")
    try:
        if len(parts) == len(names.split(",")):
            return [Fraction(p.strip()) for p in parts]
    except (ValueError, ZeroDivisionError):  # not a rational, or a zero denominator
        pass
    raise UsageError(f"expected {names} as rationals, got {text!r}")


def _parse_orders(text: str) -> OpOrders:
    return OpOrders(*_rationals(text, "m,alpha,beta"))


def _num(x: Fraction):
    if x.denominator == 1:
        return int(x)
    try:
        value = float(x)
    except OverflowError:
        raise ValueError("a non-integer result lies beyond the float range") from None
    if value == 0.0:  # x is not 0, so it underflowed
        raise ValueError("a non-integer result lies below the float range")
    return value


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
        lead = mapping_orders(_parse_orders(args.orders),
                              tuple(_rationals(args.section, "alpha',beta'")))
        print(json.dumps({"orders": [_num(lead[0]), _num(lead[1])]}))
        return EXIT_OK
    if args.symbols_cmd == "compose-orders":
        out = composition_orders(_parse_orders(args.a), _parse_orders(args.b))
        print(json.dumps({"orders": [_num(out.m), _num(out.alpha), _num(out.beta)]}))
        return EXIT_OK
    # trace-expansion, the one name left: argparse refuses any other
    (alpha,), (beta,) = _rationals(args.alpha, "alpha"), _rationals(args.beta, "beta")
    try:
        terms = trace_expansion_terms(alpha, beta)
    except TraceClassViolatedError as exc:  # the option values, not the run, are at fault
        raise UsageError(str(exc)) from None
    print(json.dumps({"terms": [[_num(z), k] for z, k in terms]}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# spectrum and trace subcommands: checks, one solve (or count), one data file
# ---------------------------------------------------------------------------


def _announce(plan: dict[float, tuple[int, Grid]]) -> None:
    """Print the progress line from ``plan``, each t's solves of its first step and its grid.

    At t = 0 that step's solves repeat at each further cusp-depth step.
    """
    more = f", plus {plan[0.0][0]} per further cusp-depth step" if 0.0 in plan else ""
    print(f"solving {len(plan)} values of t: {sum(s for s, _ in plan.values())} mode solves{more}",
          file=sys.stderr)


def _solve(config: RunConfig) -> SpectrumTable:
    """The spectra at every t of ``config`` from one ``dirac_spectrum`` call, which pools them.

    The progress line, from ``check_grids``'s plan, goes first; the library orders the t.
    """
    _announce(check_grids(config.t_grid, config.params))
    return dirac_spectrum(config.t_grid, config.params)


def _csv(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def _write_outputs(config: RunConfig, name: str, text: str) -> int:
    """Write the data file ``name``, then the manifest that names it."""
    outdir = Path(config.output_dir)
    _write(outdir / name, text)
    manifest = {"tool": "cusplab", "version": __version__, "config": config.to_text(),
                "outputs": [name]}
    _write(outdir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if args.spectrum_cmd == "sweep":
        table = _solve(config)
        return _write_outputs(config, "spectrum.csv", _csv("t,k,j,mu,lambda", (
            f"{_fmt(r.t)},{r.k},{r.j},{_fmt(r.mu)},{_fmt(r.lam)}" for r in table.rows)))
    if args.spectrum_cmd == "count":
        result = window_counts(config.t_grid, config.params, config.windows)
        print(f"counted {len(result.counts)} values of t: {sum(result.modes.values())} modes, "
              f"{result.factorisations} mode factorisations", file=sys.stderr)
        return _write_outputs(config, "counts.csv", _csv("t,a,b,count", (
            f"{_fmt(t)},{_fmt(a)},{_fmt(b)},{c}" for t, counts in result.counts.items()
            for (a, b), c in zip(config.windows, counts))))
    # mass, the one name left: argparse refuses any other.  Its rows read the
    # ground state, level j = 1 of mode 0
    _announce(check_windows(config.t_grid, config.params, [b for _, b in config.windows]))
    rows = [f"{_fmt(t)},1,{_fmt(b)},{_fmt(neck_mass(vector, b))}"
            for t, vector in ground_states(config.t_grid, config.params).items()
            for _, b in config.windows]
    return _write_outputs(config, "mass.csv", _csv("t,j,window,fraction", rows))


def cmd_trace(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    check_trace(config.lam, config.lam0, config.params.levels)
    smooth, logb = smooth_even_basis(), log_even_basis()
    if args.trace_cmd == "fit":
        if config.lam == config.lam0:
            raise ConfigError("trace fit needs lambda != lambda0")
        for basis in (smooth, logb):  # the fit reads the t in the table's descending order
            try:
                check_fit(sorted(config.t_grid, reverse=True), basis)
            except ValueError as exc:
                raise ConfigError(f"trace fit at t_grid: {exc}") from None
    table = _solve(config)
    ts = list(table.mu)
    gs = [relative_resolvent_trace(t, config.lam, config.lam0, config.params, table=table).value
          for t in ts]
    if args.trace_cmd == "compute":
        return _write_outputs(config, "trace.csv",
                              _csv("t,g", (f"{_fmt(t)},{_fmt(g)}" for t, g in zip(ts, gs))))
    comparison = compare_models(ts, gs, smooth, logb)
    payload = {key: {"monomials": [[_num(z), k] for z, k in basis.monomials],
                     "coefficients": list(fit.coefficients),
                     "rms_residual": fit.rms_residual,
                     "condition_estimate": fit.condition_estimate}
               for key, basis, fit in (("smooth", smooth, comparison.smooth),
                                       ("log", logb, comparison.log))}
    payload["ratio"] = comparison.ratio
    return _write_outputs(config, "fit.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")


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
        commands = {"symbols": cmd_symbols, "spectrum": cmd_spectrum, "trace": cmd_trace}
        return commands[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RunRefusedError as exc:  # before any work: a config error of the file or the run
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError, OSError) as exc:  # the library's and the files' failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
