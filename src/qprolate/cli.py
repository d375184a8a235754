"""Command-line interface: eigen-computation, transforms, and the
sampling-reconstruction experiment with CSV / SVG plot emission.

Every run writes a ``manifest.json`` with the fully resolved
configuration; re-running with that manifest as ``--config`` reproduces
the outputs.  Exit codes: 0 success, 2 invalid configuration, 3
numerical failure, 4 unreadable or malformed input file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .pswf import (
    Bandlimit,
    SolverNoConvergence,
    compute_basis,
    eigen_report_csv,
    eigen_report_json,
)
from .qcalc import LatticeFunction, LatticeWindow, QParams
from .qfourier import fqv_transform, make_plan
from .sampling import SamplingGrid, project, reconstruct

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INPUT = 4


@dataclass
class RunConfig:
    """Resolved run parameters; defaults reproduce the application setup
    (q = 0.5, v = -1/2, band edge a = 1)."""

    q: float = 0.5
    v: float = -0.5
    a_exp: int = 0
    depth: int = 60
    window: tuple[int, int] = (-15, 60)
    grid: tuple[int, int] = (-10, 40)
    keep: int = 15
    eps: float = 1e-14
    output_dir: str = "out"
    format: str = "csv"

    def validate(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0,1)")
        if not self.v > -1.0:
            raise ValueError("v must exceed -1")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.keep < 1 or self.keep > self.depth:
            raise ValueError("keep must lie in [1, depth]")
        if self.window[0] > self.window[1]:
            raise ValueError("window MIN must not exceed MAX")
        if self.grid[0] > self.grid[1]:
            raise ValueError("grid MIN must not exceed MAX")
        if self.format not in ("csv", "json", "svg"):
            raise ValueError("format must be csv, json or svg")

    def params(self) -> QParams:
        return QParams(self.q, self.v, self.eps)

    def lattice_window(self) -> LatticeWindow:
        return LatticeWindow(*self.window)

    def sampling_grid(self) -> SamplingGrid:
        return SamplingGrid(*self.grid)


class CliInputError(Exception):
    """Unreadable or malformed input file (exit code 4)."""


def _parse_span(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise ValueError(f"expected MIN:MAX, got {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qprolate",
        description="q-Fourier analysis, q-prolate eigenfunctions, and q-sampling reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", type=str, help="JSON config file (flags override it)")
        sp.add_argument("--q", type=float, help="deformation parameter in (0,1)")
        sp.add_argument("--v", type=float, help="order, must exceed -1")
        sp.add_argument("--depth", type=int, help="lattice points retained in [0,a]_q")
        sp.add_argument("--window", type=str, help="lattice window MIN:MAX")
        sp.add_argument("--grid", type=str, help="sampling grid MIN:MAX")
        sp.add_argument("--keep", type=int, help="eigenpairs retained")
        sp.add_argument("--eps", type=float,
                        help="series truncation tolerance, relative to the partial sum")
        sp.add_argument("--out", type=str, help="output directory")
        sp.add_argument("--format", choices=["csv", "json", "svg"],
                        help="output format, read by transform only (csv or json)")

    sp = sub.add_parser("eigen", help="compute the concentration eigensystem")
    add_common(sp)
    sp.add_argument("--a-exp", type=int, help="band edge exponent, a = q^A")

    sp = sub.add_parser("reconstruct", help="project and reconstruct via the sampling formula")
    add_common(sp)
    sp.add_argument(
        "--a-exp",
        type=int,
        action="append",
        help="band edge exponent, repeatable (default 0 -1 -2)",
    )
    sp.add_argument(
        "--function",
        choices=_FUNCTIONS,
        help="built-in test function f(x) = 1/(1+x^2)",
    )
    sp.add_argument("--samples", type=str, help="sample file with 'k value' lines")

    sp = sub.add_parser("transform", help="q-Bessel Fourier transform of a sample file")
    add_common(sp)
    sp.add_argument("--a-exp", type=int, help="recorded in the manifest only")
    sp.add_argument("--samples", type=str, help="sample file with 'k value' lines")
    sp.add_argument(
        "--roundtrip", action="store_true", default=None, help="also write F(Ff) and its deviation"
    )
    return parser


def _span_pair(value) -> tuple[int, int]:
    lo, hi = value
    return int(lo), int(hi)


_CONFIG_KEYS = {
    "q": float,
    "v": float,
    "a_exp": int,
    "depth": int,
    "keep": int,
    "eps": float,
    "output_dir": str,
    "format": str,
    "window": _span_pair,
    "grid": _span_pair,
}


_FUNCTIONS = ("runge",)  # built-in test functions of reconstruct
# settings of one command, which the config file gives as they are used
_COMMAND_KEYS = {
    "a_exps": lambda x: isinstance(x, list) and all(type(a) is int for a in x),
    "function": lambda x: x in _FUNCTIONS,
    "roundtrip": lambda x: isinstance(x, bool),
}


def _resolve_config(args: argparse.Namespace) -> tuple[RunConfig, dict]:
    """Defaults, overridden by the config file, overridden by flags.

    Returns the resolved RunConfig plus the raw config dict, from which
    subcommands pick up their own settings (a_exps, samples_file, ...) so
    a manifest can reproduce a run verbatim.
    """
    cfg = RunConfig()
    raw = {}
    if getattr(args, "config", None):
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config file: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        for key, cast in _CONFIG_KEYS.items():
            if raw.get(key) is not None:
                try:
                    setattr(cfg, key, cast(raw[key]))
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"config file: bad {key} {raw[key]!r}") from exc
        for key, valid in _COMMAND_KEYS.items():
            if raw.get(key) is not None and not valid(raw[key]):
                raise ValueError(f"config file: bad {key} {raw[key]!r}")
    for key in ("q", "v", "depth", "keep", "eps"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    a_exp = getattr(args, "a_exp", None)
    if a_exp is not None:
        cfg.a_exp = a_exp[0] if isinstance(a_exp, list) else a_exp
    if getattr(args, "window", None) is not None:
        cfg.window = _parse_span(args.window)
    if getattr(args, "grid", None) is not None:
        cfg.grid = _parse_span(args.grid)
    if getattr(args, "out", None) is not None:
        cfg.output_dir = args.out
    if getattr(args, "format", None) is not None:
        cfg.format = args.format
    cfg.validate()
    return cfg, raw


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_manifest(cfg: RunConfig, out_dir: Path, command: str, extra: dict) -> None:
    payload = asdict(cfg)
    payload["window"] = list(cfg.window)
    payload["grid"] = list(cfg.grid)
    payload["command"] = command
    payload.update(extra)
    _write_atomic(out_dir / "manifest.json", json.dumps(payload, indent=2) + "\n")


def _read_samples(path: str, window: LatticeWindow) -> LatticeFunction:
    """Parse 'k value' lines ('#' comments allowed) into a lattice function;
    each exponent at most once, each value finite."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliInputError(f"cannot read samples file: {exc}") from exc
    values = np.zeros(window.size)
    seen: dict[int, int] = {}  # exponent -> line that gave it
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            raise CliInputError(f"{path}:{lineno}: expected 'k value', got {line!r}")
        try:
            k = int(parts[0])
            val = float(parts[1])
        except ValueError:
            raise CliInputError(f"{path}:{lineno}: expected 'k value', got {line!r}") from None
        if not window.contains(k):
            raise CliInputError(
                f"{path}:{lineno}: exponent {k} outside window [{window.n_min}, {window.n_max}]"
            )
        if not math.isfinite(val):
            raise CliInputError(f"{path}:{lineno}: sample value {parts[1]!r} is not finite")
        if k in seen:
            raise CliInputError(f"{path}:{lineno}: exponent {k} repeats line {seen[k]}")
        values[k - window.n_min] = val
        seen[k] = lineno
    if not seen:
        raise CliInputError(f"{path}: no samples found")
    return LatticeFunction(window, values)


def _svg_plot(series: list[tuple[str, np.ndarray, np.ndarray]], title: str) -> str:
    """Minimal SVG line plot: exactly one polyline per series."""
    width, height = 640.0, 400.0
    ml, mr, mt, mb = 60.0, 20.0, 30.0, 40.0
    xs_all = np.concatenate([s[1] for s in series])
    ys_all = np.concatenate([s[2] for s in series])
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0 -= pad
    y1 += pad

    def sx(x):
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def sy(y):
        return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{ml}" y1="{height-mb}" x2="{width-mr}" y2="{height-mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height-mb}" stroke="black"/>',
        f'<text x="{ml}" y="{height-8:.1f}" font-size="11">{x0:.4g}</text>',
        f'<text x="{width-mr:.1f}" y="{height-8:.1f}" text-anchor="end" font-size="11">{x1:.4g}</text>',
        f'<text x="{ml-5:.1f}" y="{height-mb:.1f}" text-anchor="end" font-size="11">{y0:.4g}</text>',
        f'<text x="{ml-5:.1f}" y="{mt+4:.1f}" text-anchor="end" font-size="11">{y1:.4g}</text>',
    ]
    for idx, (name, xs, ys) in enumerate(series):
        color = colors[idx % len(colors)]
        pts = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(
            f'<text x="{width-mr-5:.1f}" y="{mt+16*(idx+1):.1f}" text-anchor="end" '
            f'font-size="12" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_eigen(cfg: RunConfig) -> int:
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    p = cfg.params()
    basis = compute_basis(Bandlimit(cfg.a_exp, cfg.depth), p, cfg.keep)
    _write_atomic(out_dir / "eigen.json", eigen_report_json(basis) + "\n")
    _write_atomic(out_dir / "eigen.csv", eigen_report_csv(basis))
    _write_manifest(cfg, out_dir, "eigen", {})
    for i, lam in enumerate(basis.eigenvalues):
        print(f"lambda_{i} = {lam:.12e}")
    return EXIT_OK


def _runge(x: float) -> float:
    return 1.0 / (1.0 + x * x)


def cmd_reconstruct(cfg: RunConfig, a_exps: list[int], function: str | None, samples: str | None) -> int:
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    p = cfg.params()
    window = cfg.lattice_window()
    grid = cfg.sampling_grid()
    if not (window.contains(grid.k_min) and window.contains(grid.k_max)):
        raise ValueError("sampling grid must lie inside the window")
    if function is None and samples is None:
        function = "runge"
    if function is not None:
        f = LatticeFunction.from_callable(window, _runge, cfg.q)
        f_exact = _runge
    else:
        f = _read_samples(samples, window)
        f_exact = None

    plan = make_plan(window, p)
    # dense evaluation points: 200 uniform on [q^10, q^-1] plus the lattice
    # points of that span (the sampling-point range of the application)
    z_lo, z_hi = cfg.q**10, cfg.q**-1
    dense = np.linspace(z_lo, z_hi, 200)
    lattice_span = [cfg.q ** float(n) for n in range(-1, 11)]
    # sorted and deduplicated without np.unique, which imports numpy.ma
    zs = np.sort(np.concatenate([dense, lattice_span]))
    zs = zs[np.concatenate(([True], np.diff(zs) > 0))]
    span_exps = [n for n in range(-1, 11) if window.contains(n)]

    for a_exp in a_exps:
        b = Bandlimit(a_exp, cfg.depth)
        fa = project(f, b, plan)
        sample_vals = np.array([fa.value_at_exp(int(k)) for k in grid.exponents()])
        recon = reconstruct(sample_vals, zs, grid, b, p)
        lines = ["z,f_true,f_reconstructed,abs_error"]
        for z, r in zip(zs, recon):
            if f_exact is not None:
                ft = f_exact(float(z))
                lines.append(f"{z:.12e},{ft:.12e},{r:.12e},{abs(ft - r):.12e}")
            else:
                lines.append(f"{z:.12e},,{r:.12e},")
        tag = f"a{a_exp}".replace("-", "m")
        _write_atomic(out_dir / f"reconstruct_{tag}.csv", "\n".join(lines) + "\n")

        series = []
        if f_exact is not None:
            series.append(("f", zs, np.array([f_exact(float(z)) for z in zs])))
        series.append((f"f_a (a=q^{a_exp})", zs, recon))
        _write_atomic(
            out_dir / f"reconstruct_{tag}.svg",
            _svg_plot(series, f"sampling reconstruction, a = q^{a_exp}"),
        )

        sup_err = max(
            abs(f.value_at_exp(n) - fa.value_at_exp(n)) for n in span_exps
        )
        print(f"a_exp={a_exp} a={cfg.q**a_exp:.6g} sup_error={sup_err:.6e}")

    _write_manifest(
        cfg,
        out_dir,
        "reconstruct",
        {"a_exps": list(a_exps), "function": function, "samples_file": samples},
    )
    return EXIT_OK


def cmd_transform(cfg: RunConfig, samples: str, roundtrip: bool) -> int:
    if cfg.format == "svg":
        raise ValueError("transform writes csv or json, not svg")
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    p = cfg.params()
    window = cfg.lattice_window()
    f = _read_samples(samples, window)
    plan = make_plan(window, p)
    ff = fqv_transform(f, plan)

    rows = [
        (int(m), cfg.q ** float(m), float(val))
        for m, val in zip(window.exponents(), ff.values)
    ]
    if cfg.format == "json":
        payload = [{"k": m, "point": pt, "value": val} for m, pt, val in rows]
        _write_atomic(out_dir / "transform.json", json.dumps(payload, indent=2) + "\n")
    else:
        lines = ["k,point,value"] + [f"{m},{pt:.12e},{val:.12e}" for m, pt, val in rows]
        _write_atomic(out_dir / "transform.csv", "\n".join(lines) + "\n")

    extra = {"samples_file": samples, "roundtrip": roundtrip}
    if roundtrip:
        fff = fqv_transform(ff, plan)
        dev = float(np.max(np.abs(fff.values - f.values)))
        lines = ["k,point,f,f_roundtrip,abs_error"]
        for i, m in enumerate(window.exponents()):
            lines.append(
                f"{int(m)},{cfg.q ** float(m):.12e},{f.values[i]:.12e},"
                f"{fff.values[i]:.12e},{abs(fff.values[i] - f.values[i]):.12e}"
            )
        _write_atomic(out_dir / "roundtrip.csv", "\n".join(lines) + "\n")
        print(f"roundtrip sup deviation = {dev:.6e}")
    _write_manifest(cfg, out_dir, "transform", extra)
    return EXIT_OK


def _merge_span_flags(argv: list[str]) -> list[str]:
    """Join '--window -12:45' into '--window=-12:45' so argparse does not
    mistake the negative exponent for a flag."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in ("--window", "--grid"):
            nxt = next(it, None)
            out.append(tok if nxt is None else f"{tok}={nxt}")
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    import warnings

    from .qcalc import TailWarning

    parser = _build_parser()
    args = parser.parse_args(_merge_span_flags(sys.argv[1:] if argv is None else list(argv)))
    try:
        cfg, raw = _resolve_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # collect truncation diagnostics and report them once, instead of one
    # warning per evaluation point
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TailWarning)
        try:
            if args.command == "eigen":
                rc = cmd_eigen(cfg)
            elif args.command == "reconstruct":
                a_exps = args.a_exp or raw.get("a_exps") or [0, -1, -2]
                # an input flag replaces the config file's input choice
                function, samples = raw.get("function"), raw.get("samples_file")
                if args.function or args.samples:
                    function, samples = args.function, args.samples
                if function and samples:
                    print("error: choose either --function or --samples "
                          "(function or samples_file in the config)", file=sys.stderr)
                    return EXIT_CONFIG
                rc = cmd_reconstruct(cfg, a_exps, function, samples)
            elif args.command == "transform":
                samples = args.samples or raw.get("samples_file")
                if samples is None:
                    print(
                        "error: transform needs --samples (or samples_file in the config)",
                        file=sys.stderr,
                    )
                    return EXIT_CONFIG
                roundtrip = (
                    args.roundtrip if args.roundtrip is not None else bool(raw.get("roundtrip"))
                )
                rc = cmd_transform(cfg, samples, roundtrip)
            else:  # pragma: no cover
                raise AssertionError(f"unhandled command {args.command}")
        except CliInputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except SolverNoConvergence as exc:
            print(f"error: eigensolver failed to converge: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        except OverflowError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    tails = [w for w in caught if issubclass(w.category, TailWarning)]
    for w in caught:
        if not issubclass(w.category, TailWarning):
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    if tails:
        print(
            f"note: {len(tails)} truncation-tail diagnostics; first: {tails[0].message}",
            file=sys.stderr,
        )
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
