"""Command-line interface: the q-prolate eigensystem, the q-Bessel
Fourier transform, and the q-sampling reconstruction experiment, with
CSV / JSON / SVG output.

Each setting of a run is declared once, in the table ``_SETTINGS``: its
default, its flag and its config-file reader.  A run takes the defaults,
overridden by a JSON config file (``--config``), overridden by the flags
given.  Config keys, flag destinations and manifest keys are the
settings' names.  Each command reads only the settings ``READS`` names
for it, and no other reaches it: it takes a flag for each of them and no
other, checks them itself before it writes anything, and records them in
the ``manifest.json`` it writes (with ``command`` and ``versions``, which
the config reader ignores, as it ignores the keys a command does not
read).  Re-running with a manifest as ``--config`` reproduces the
outputs.  Exit codes: 0 success, 2 invalid configuration, 3 numerical
failure, 4 unreadable or malformed input file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import qprolate
from .pswf import (
    Bandlimit,
    SolverNoConvergence,
    compute_basis,
    eigen_report_csv,
    eigen_report_json,
)
from .qcalc import DEFAULT_WINDOW, LatticeFunction, LatticeWindow, QParams, np
from .qfourier import fqv_transform, make_plan
from .sampling import DEFAULT_GRID, project, reconstruct

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INPUT = 4


class CliInputError(Exception):
    """Unreadable or malformed input file (exit code 4)."""


def _parse_span(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise ValueError(f"expected MIN:MAX, got {text!r}") from exc


def _is_int(x) -> bool:
    return type(x) is int  # a JSON integer: not a float, not a boolean


def _number(value) -> float:
    """A JSON number, not a boolean or a string, as a float."""
    if type(value) not in (int, float):
        raise ValueError(value)
    return float(value)


def _span_pair(value) -> tuple[int, int]:
    if not (isinstance(value, list) and len(value) == 2 and all(map(_is_int, value))):
        raise ValueError(value)
    return tuple(value)


def _checked(valid):
    """Config reader that takes a value as it is, if ``valid`` holds."""
    def read(value):
        if not valid(value):
            raise ValueError(value)
        return value
    return read


_FUNCTIONS = ("runge",)  # built-in test functions of reconstruct
_integer = _checked(_is_int)
# Every setting once, as name: (default, flag, argparse keywords, config
# reader).  The name is its config key, flag destination and manifest key;
# the reader checks the config file's value (TypeError or ValueError when
# it is not of the setting's JSON type).  The defaults reproduce the
# application setup (q = 0.5, v = -1/2, band edge a = 1); ``a_exps``
# defaults to 0, -1, -2 and reconstruct's input to the Runge function.
_SETTINGS = {
    "q": (0.5, "--q", dict(type=float, help="deformation parameter in (0,1)"), _number),
    "v": (-0.5, "--v", dict(type=float, help="order, must exceed -1"), _number),
    "a_exp": (0, "--a-exp", dict(type=int, help="band edge exponent, a = q^A"), _integer),
    "depth": (60, "--depth", dict(type=int, help="lattice points retained in [0,a]_q"),
              _integer),
    "window": ((DEFAULT_WINDOW.n_min, DEFAULT_WINDOW.n_max), "--window",
               dict(help="lattice window MIN:MAX"), _span_pair),
    "grid": ((DEFAULT_GRID.n_min, DEFAULT_GRID.n_max), "--grid",
             dict(help="sampling grid MIN:MAX"), _span_pair),
    "keep": (15, "--keep", dict(type=int, help="eigenpairs retained"), _integer),
    "output_dir": ("out", "--out", dict(help="output directory"), str),
    "format": ("csv", "--format", dict(help="output format, csv or json"), str),
    "a_exps": (None, "--a-exp", dict(type=int, action="append",
                                     help="band edge exponent, repeatable (default 0 -1 -2)"),
               _checked(lambda x: isinstance(x, list) and all(map(_is_int, x)))),
    "function": (None, "--function",
                 dict(choices=_FUNCTIONS, help="test function f(x) = 1/(1+x^2)"),
                 _checked(lambda x: x in _FUNCTIONS)),
    "samples_file": (None, "--samples", dict(help="sample file with 'k value' lines"), str),
    "roundtrip": (False, "--roundtrip",
                  dict(action="store_true", help="also write F(Ff) and its error"),
                  _checked(lambda x: isinstance(x, bool))),
}

# the settings each command reads: its flags, and its manifest, in order
READS = {
    "eigen": ("q", "v", "a_exp", "depth", "keep", "output_dir"),
    "reconstruct": ("q", "v", "window", "grid", "output_dir", "a_exps", "function",
                    "samples_file"),
    "transform": ("q", "v", "window", "output_dir", "format", "samples_file", "roundtrip"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qprolate",
        description="q-Fourier analysis, q-prolate eigenfunctions, and q-sampling reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, names in READS.items():
        # each flag's dest is its setting's name, and only the flags given
        # reach the namespace, so that they override the config file
        sp = sub.add_parser(command, help=_COMMANDS[command].__doc__,
                            argument_default=argparse.SUPPRESS)
        sp.add_argument("--config", help="JSON config file (flags override it)")
        for name in names:
            _, flag, kwargs, _ = _SETTINGS[name]
            sp.add_argument(flag, dest=name, **kwargs)
    return parser


def _resolve_config(args: argparse.Namespace) -> SimpleNamespace:
    """Defaults, overridden by the config file, overridden by the flags
    given, as a namespace of exactly the settings the command reads.
    Every key of the file is type-checked, and the file refused whole
    when one is malformed.  An input flag (--function or --samples)
    replaces the config file's input choice, both of its settings."""
    settings = {}
    if "config" in args:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config file: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        for key, (*_, read) in _SETTINGS.items():
            if raw.get(key) is not None:
                try:
                    settings[key] = read(raw[key])
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"config file: bad {key} {raw[key]!r}") from exc
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    if "function" in flags or "samples_file" in flags:
        settings.pop("function", None)
        settings.pop("samples_file", None)
    for key in ("window", "grid"):
        if key in flags:
            flags[key] = _parse_span(flags[key])
    settings.update(flags)
    return SimpleNamespace(**{k: settings.get(k, _SETTINGS[k][0]) for k in READS[args.command]})


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _output_dir(cfg: SimpleNamespace) -> Path:
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write_manifest(cfg: SimpleNamespace, out_dir: Path, command: str) -> None:
    python = "{}.{}.{}".format(*sys.version_info[:3])
    versions = {"qprolate": qprolate.__version__, "python": python}
    if command != "eigen":  # the one command that never imports numpy
        versions["numpy"] = np.__version__
    payload = {**vars(cfg), "command": command, "versions": versions}
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


def cmd_eigen(cfg: SimpleNamespace) -> int:
    """compute the concentration eigensystem"""
    basis = compute_basis(Bandlimit(cfg.a_exp, cfg.depth), QParams(cfg.q, cfg.v), cfg.keep)
    out_dir = _output_dir(cfg)
    _write_atomic(out_dir / "eigen.json", eigen_report_json(basis) + "\n")
    _write_atomic(out_dir / "eigen.csv", eigen_report_csv(basis))
    _write_manifest(cfg, out_dir, "eigen")
    for i, lam in enumerate(basis._rows[0]):  # the floats: eigen never imports numpy
        print(f"lambda_{i} = {lam:.12e}")
    return EXIT_OK


def _runge(x: float) -> float:
    return 1.0 / (1.0 + x * x)


def cmd_reconstruct(cfg: SimpleNamespace) -> int:
    """project and reconstruct via the sampling formula"""
    p = QParams(cfg.q, cfg.v)
    window = LatticeWindow(*cfg.window)
    grid = LatticeWindow(*cfg.grid)
    if not (window.contains(grid.n_min) and window.contains(grid.n_max)):
        raise ValueError("sampling grid must lie inside the window")
    if cfg.function is not None and cfg.samples_file is not None:
        raise ValueError("choose either --function or --samples (function or samples_file)")
    cfg.a_exps = cfg.a_exps or [0, -1, -2]
    if cfg.samples_file is None:
        cfg.function = cfg.function or "runge"
        f = LatticeFunction.from_callable(window, _runge, cfg.q)
        f_exact = _runge
    else:
        f = _read_samples(cfg.samples_file, window)
        f_exact = None
    out_dir = _output_dir(cfg)

    plan = make_plan(window, p)
    # dense evaluation points: 200 uniform on [q^10, q^-1] plus the lattice
    # points of that span (the sampling-point range of the application)
    span = LatticeWindow(-1, 10)
    lattice_span = span.points(cfg.q)
    dense = np.linspace(lattice_span[-1], lattice_span[0], 200)
    # sorted and deduplicated without np.unique, which imports numpy.ma
    zs = np.sort(np.concatenate([dense, lattice_span]))
    zs = zs[np.concatenate(([True], np.diff(zs) > 0))]
    span_exps = [int(n) for n in span.exponents() if window.contains(n)]

    for a_exp in cfg.a_exps:
        # project and reconstruct read only the band edge, so any depth
        # serves; a fixed one is valid at every a_exp
        b = Bandlimit(a_exp, 1)
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

    _write_manifest(cfg, out_dir, "reconstruct")
    return EXIT_OK


def cmd_transform(cfg: SimpleNamespace) -> int:
    """q-Bessel Fourier transform of a sample file"""
    if cfg.samples_file is None:
        raise ValueError("transform needs --samples (or samples_file in the config)")
    if cfg.format not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {cfg.format!r}")
    p = QParams(cfg.q, cfg.v)
    window = LatticeWindow(*cfg.window)
    f = _read_samples(cfg.samples_file, window)
    out_dir = _output_dir(cfg)
    plan = make_plan(window, p)
    ff = fqv_transform(f, plan)

    rows = list(zip(window.exponents().tolist(), window.points(cfg.q).tolist(),
                    ff.values.tolist()))
    if cfg.format == "json":
        payload = [{"k": m, "point": pt, "value": val} for m, pt, val in rows]
        _write_atomic(out_dir / "transform.json", json.dumps(payload, indent=2) + "\n")
    else:
        lines = ["k,point,value"] + [f"{m},{pt:.12e},{val:.12e}" for m, pt, val in rows]
        _write_atomic(out_dir / "transform.csv", "\n".join(lines) + "\n")

    if cfg.roundtrip:
        fff = fqv_transform(ff, plan)
        dev = float(np.max(np.abs(fff.values - f.values)))
        lines = ["k,point,f,f_roundtrip,abs_error"]
        for (m, pt, _), x, y in zip(rows, f.values, fff.values):
            lines.append(f"{m},{pt:.12e},{x:.12e},{y:.12e},{abs(y - x):.12e}")
        _write_atomic(out_dir / "roundtrip.csv", "\n".join(lines) + "\n")
        print(f"roundtrip sup deviation = {dev:.6e}")
    _write_manifest(cfg, out_dir, "transform")
    return EXIT_OK


_COMMANDS = {"eigen": cmd_eigen, "reconstruct": cmd_reconstruct, "transform": cmd_transform}


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

    args = _build_parser().parse_args(
        _merge_span_flags(sys.argv[1:] if argv is None else list(argv)))
    try:
        cfg = _resolve_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    command = _COMMANDS[args.command]
    # collect truncation diagnostics and report them once, instead of one
    # warning per evaluation point
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TailWarning)
        try:
            rc = command(cfg)
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
