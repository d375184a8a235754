"""Hashes of the outputs that a change which keeps results must not move.

    python3 tools/identity.py OUT

Writes one line per output to OUT, its sha256 and its name:

* eigen-mp: the bytes of ``eigenvalues``, ``eigenfunctions`` and
  ``unit_samples`` of the basis of each ``perfbench.workloads.EigenMp``
  request;
* transform-warm: the bytes of the values of each of the four results
  (transform, projection, convolution, translation) of each seeded input
  of ``perfbench.workloads.TransformWarm`` (seed 1);
* cli-cold: each of the six commands of ``perfbench.workloads.CliCold``,
  run once as a fresh process: its exit code, its standard output and
  error, and every file it writes.  A manifest is hashed without its
  ``output_dir``, and with its ``samples_file`` taken relative to the
  working directory, so that neither path reaches the hash.

The package and the benchmark are imported from the checkout that holds
this file, whatever the working directory.  Two trees compare by diffing
their OUT files; to compare with a tree that predates this tool, copy it
there first.  Two runs on one tree write the same file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import CliCold, EigenMp, TransformWarm  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def eigen_hashes(workdir: Path):
    workload = EigenMp(1, workdir)
    for i in range(len(workload.inputs)):
        basis = workload.op(i)
        for field in ("eigenvalues", "eigenfunctions", "unit_samples"):
            yield f"eigen-mp/{i}/{field}", _sha(getattr(basis, field).tobytes())


TRANSFORM_RESULTS = ("fqv_transform", "project", "convolve", "translate")


def transform_hashes(workdir: Path):
    workload = TransformWarm(1, workdir)
    for i in range(len(workload.inputs)):
        with warnings.catch_warnings():  # the translations' tail notes
            warnings.simplefilter("ignore", workload.qp.TailWarning)
            results = workload.op(i)
        for name, result in zip(TRANSFORM_RESULTS, results):
            yield f"transform-warm/{i}/{name}", _sha(result.values.tobytes())


def _manifest_bytes(path: Path, workdir: Path) -> bytes:
    manifest = json.loads(path.read_text())
    del manifest["output_dir"]
    if manifest.get("samples_file") is not None:
        manifest["samples_file"] = str(Path(manifest["samples_file"]).relative_to(workdir))
    return json.dumps(manifest, indent=2).encode()


def cli_hashes(workdir: Path):
    workload = CliCold(1, workdir)
    for i, (kind, q, v, _) in enumerate(workload.inputs):
        rc, out = workload.op(i)
        name = f"cli-cold/{i}-{kind}-q{q!r}-v{v!r}"
        yield f"{name}/exit", _sha(str(rc).encode())
        for path in sorted(out.iterdir()):
            if path.name == "manifest.json":
                data = _manifest_bytes(path, workdir)
            else:
                data = path.read_bytes()
            yield f"{name}/{path.name}", _sha(data)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="file to write the hashes to")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        workdir = Path(tmp).resolve()
        hashes = [*eigen_hashes(workdir), *transform_hashes(workdir),
                  *cli_hashes(workdir / "cli")]
        lines = [f"{h}  {name}\n" for name, h in hashes]
    args.out.write_text("".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
