"""Print the sha256 prefix of each reference CLI command's output.

Usage: python3 tools/cli_hashes.py

Runs each command through ``python -m gompkit`` with this checkout's
``src`` first on PYTHONPATH and prints ``<full>  <verdict>  <command>``,
two 12-hex prefixes. The full hash covers the output's bytes. The
verdict hash covers the output's verdict form (see ``verdict``), which
leaves out the floats that BLAS products set in their last bits: the
final residuals of a ``run`` report, the products in a ``gen`` instance,
lemma 4's min slack, and all but 10 significant digits of a ``ric``
value. On output without such floats it equals the full hash.
The ``ric`` commands read an instance that ``gen`` first writes to a
temporary directory; their lines show the template, ``{tmp}`` unfilled,
so that lines compare across checkouts.
Run it on two checkouts and compare the hash lines to check that a change
keeps every output bit for bit, or, by the verdict column, every verdict.
No expected values are stored.

The bits hold only within one numpy and BLAS build and one BLAS kernel.
A DYNAMIC_ARCH OpenBLAS picks its kernel per process, and
``OPENBLAS_CORETYPE`` can change that choice: under another kernel the
generated factors, and the rounding-level floats printed from them, can
differ in the last bits, so some full hash lines change. The verdicts
(supports, picks, rates, iteration counts, pass counts and the drawn
instances) agree on every kernel. So a first ``#`` line, not part of the
comparison, names the numpy version, the BLAS build, the kernel OpenBLAS
picked at run time and ``OPENBLAS_CORETYPE``. The build string is fixed
when numpy is built and does not name that kernel (a build string that
says Haswell can run SkylakeX or, under ``OPENBLAS_CORETYPE=Nehalem``,
Nehalem); ``core=`` does.
"""

import ctypes
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

GRID = "run --k-min 1 --k-max 8 --nsel-min 1 --nsel-max 4 --trials 40"
COMMANDS = (
    f"{GRID} --seed 11",
    f"{GRID} --noisy --format json --per-trial --seed 11",
    f"{GRID} --noisy --flat-signal --seed 4294967290",
    "gen --k 3 --n-select 2 --noisy --seed 18446744073709551615",
    "gen --k 8 --n-select 4 --seed 0",
    "verify --lemma selection --instances 2000 --seed 7",
    "verify --lemma 4 --instances 2000 --seed 7",
    "verify --lemma 4 --instances 2000 --seed 11",
    "verify --lemma 5 --instances 2000 --seed 7",
    "verify --lemma 5 --instances 2000 --seed 11",
    "run --k-min 1 --k-max 4 --nsel-min 1 --nsel-max 3 --trials 300 --seed 5 --noisy",
    # one-seed passes: a one-trial grid, and a last pass of one seed after 128
    "run --k-min 1 --k-max 8 --nsel-min 1 --nsel-max 4 --trials 1 --noisy --format json --per-trial --seed 700158",
    "run --k-min 1 --k-max 4 --nsel-min 1 --nsel-max 3 --trials 129 --seed 3",
    # the enumeration on a saved instance: C(25, 3) and C(25, 6) = 177,100 supports
    "gen --k 8 --n-select 3 --seed 4100000 --out {tmp}/inst.json",
    "ric --matrix {tmp}/inst.json --order 3",
    "ric --matrix {tmp}/inst.json --order 6",
)
# JSON keys and CSV columns a verdict drops, by subcommand: a run's final
# residuals (rounding-level on a noise-free run, and moved in their last
# digits by any change to the refit's arithmetic), and an instance's BLAS
# products (d, the signal and the support come from the RNG alone)
DROPPED = {
    "run": ("mean_final_residual", "residual_final"),
    "gen": ("matrix", "noise", "observation", "epsilon"),
}
RIC_DIGITS = 10
LEMMA4_SLACK = re.compile(r" \(lhs - rhs\) \S+ at ")  # lemma 4's min-slack float


def _without(value, fields):
    """A parsed JSON value with every key in ``fields`` dropped."""
    if isinstance(value, dict):
        return {k: _without(v, fields) for k, v in value.items() if k not in fields}
    if isinstance(value, list):
        return [_without(v, fields) for v in value]
    return value


def verdict(command: str, out: bytes) -> bytes:
    """The verdict form of ``command``'s output ``out``: a ``ric`` value to
    ``RIC_DIGITS`` significant digits, lemma 4's min slack dropped (its
    instance index kept), and the subcommand's ``DROPPED`` keys of a JSON
    document (re-printed as ``emit_report`` prints it) or columns of a CSV
    report. Output that names none of them is returned as it is."""
    text, subcommand = out.decode(), command.split()[0]
    if subcommand == "ric":
        doc = json.loads(text)
        return (json.dumps({**doc, "value": f"{doc['value']:.{RIC_DIGITS}g}"}) + "\n").encode()
    if subcommand == "verify":
        return LEMMA4_SLACK.sub(" at ", text).encode()
    fields = DROPPED[subcommand]
    if not any(field in text for field in fields):
        return out
    if text.startswith("{"):
        return (json.dumps(_without(json.loads(text), fields), indent=2) + "\n").encode()
    rows = [line.split(",") for line in text.splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in fields]
    return "".join(",".join(row[i] for i in keep) + "\n" for row in rows).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def blas_core() -> str:
    """The kernel OpenBLAS picked in this process: ``openblas_get_corename``
    of the ``scipy_openblas64_`` library that numpy's wheels bundle in
    ``numpy.libs``, read through ctypes; ``unknown`` when no such library
    exports it."""
    for lib in sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def environment() -> str:
    """The ``#`` line: numpy's version, its BLAS build (the ``openblas
    configuration`` string, else name and version; ``unknown`` on a numpy
    without ``show_config(mode="dicts")``), the run-time kernel from
    ``blas_core`` and ``OPENBLAS_CORETYPE``."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        build = "unknown"
    coretype = os.environ.get("OPENBLAS_CORETYPE", "unset")
    return (f"# numpy {np.__version__}; BLAS {build}; core={blas_core()}; "
            f"OPENBLAS_CORETYPE={coretype}")


def main() -> int:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    print(environment(), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            args = command.format(tmp=tmp).split()
            out = subprocess.run([sys.executable, "-m", "gompkit", *args],
                                 env=env, capture_output=True, check=True).stdout
            print(f"{digest(out)}  {digest(verdict(command, out))}  {command}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
