"""The corpus of CLI outputs under tests/data/golden/: the argvs, how one is
run, how an output is compared with its recorded bytes, and the generator.

Each entry is what one ``fireball`` argv gives: its standard output, in a
file of the entry's name, and its exit code and standard error, in
``exits.json``.  The argvs are ``verify`` for the four models at seeds 0
and 7919, a coarse ``simulate`` per model as CSV and as JSON, two usage
errors that fireball itself reports (exit 2), not argparse, whose wording
changes between Python versions, ``verify``'s drift checks alone to t = 1e4
on a coarse grid and to t = 1e5 for each model (exit 1), and a ``simulate``
whose variances differ by ten orders of magnitude (exit 3).
``manifest.json`` records what the bytes depend on beyond IEEE arithmetic:
the C library, whose ``pow`` every power is, and numpy's version.
``analytic`` is left out: its ``phi`` and ``ttilde`` columns follow numpy's
SIMD ``arctan2`` and ``arctan``, which differ between machines.

The exit code must match.  On the recorded C library both streams must
match byte for byte.  On another one each number may differ by ``ULPS``
units in the last place of the larger of its two magnitudes and 1, and
everything between the numbers must match.

A change that means to move outputs regenerates the corpus, so that its diff
shows every moved value::

    PYTHONPATH=src python tests/golden.py --write
"""

import contextlib
import io
import itertools
import json
import math
import platform
import re
import sys
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data" / "golden"
MODELS = ("1d", "2d", "3d", "elliptic")
STATE = {"X": "1", "Y": "1.3", "Z": "0.8", "Xdot": "0.1", "Ydot": "0.2", "Zdot": "0"}
# each model is given only its own components
LABELS = {"1d": "X", "2d": "XY", "3d": "XYZ", "elliptic": "XY"}

ARGVS = {f"verify-{model}-seed{seed}.json": ["verify", "--model", model, "--seed", seed]
         for model in MODELS for seed in ("0", "7919")}
ARGVS.update({f"simulate-{model}.{form}": [
    "simulate", "--model", model, "--t-end", "25", "--sample-interval", "0.5",
    *(a for x in LABELS[model] for a in (f"--{x}", STATE[x], f"--{x}dot", STATE[x + "dot"])),
    *(["--format", "json"] if form == "json" else [])]
    for form in ("csv", "json") for model in MODELS})
ARGVS.update({"verify-2d-negative-seed.txt": ["verify", "--model", "2d", "--seed", "-1"],
              "simulate-2d-without-Y.txt": ["simulate", "--model", "2d", "--X", "1",
                                            "--t-end", "1"]})
# the drift checks alone at long horizons: to t = 1e4 on a 1e3 grid, where
# the steps are set by the tolerance (truncation), and to t = 1e5 on the
# default grid, 2e5 landings (round-off); both exit 1, since J drifts by
# more than the 1e-8 tolerance
DRIFT_ONLY = ["--no-symmetry", "--no-hydro", "--no-analytic"]
ARGVS.update({f"verify-{model}-to-1e4-every-1e3.json": [
    "verify", "--model", model, "--t-end", "1e4", "--sample-interval", "1e3", *DRIFT_ONLY]
    for model in MODELS})
ARGVS.update({f"verify-{model}-to-1e5.json": ["verify", "--model", model, "--t-end", "1e5",
                                              *DRIFT_ONLY] for model in MODELS})
# a variance ratio of 1e10, which the step floor refuses at the start (exit 3)
ARGVS["simulate-2d-small-Y.txt"] = ["simulate", "--model", "2d", "--X", "1", "--Y", "1e-10",
                                    "--Xdot", "0.1", "--Ydot", "0.2", "--t-end", "25"]
# entries that only the C step loop runs in Tier-1's time: the Python
# stepper takes seconds for 2e5 steps
CC_ONLY = frozenset(f"verify-{model}-to-1e5.json" for model in MODELS)

ULPS = 2 ** 20
# a float as %.17g or repr writes it; a NaN is compared as text
NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\binf\b)")


def manifest() -> dict:
    return {"libc": " ".join(platform.libc_ver()), "numpy": np.__version__}


def ulp_bound() -> int:
    """0 (byte for byte) on the C library the corpus was recorded on, else ULPS."""
    recorded = json.loads((DATA / "manifest.json").read_text())
    return 0 if recorded["libc"] == manifest()["libc"] else ULPS


def describe() -> str:
    """One line on how the corpus is compared here, for pytest's report header."""
    recorded = json.loads((DATA / "manifest.json").read_text())["libc"]
    if ulp_bound() == 0:
        return f"golden corpus: byte for byte ({recorded}, as recorded)"
    return (f"golden corpus: numbers within {ULPS} ulps, since it was recorded on "
            f"{recorded} and this is {manifest()['libc'] or 'an unknown C library'}")


def run(argv) -> tuple[int, str, str]:
    """``(exit code, stdout, stderr)`` of ``fireball`` for ``argv``, run in process."""
    from fireball.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def recorded(name) -> tuple[int, str, str]:
    """The corpus entry ``name`` as :func:`run` returns it."""
    entry = json.loads((DATA / "exits.json").read_text())[name]
    return entry["exit"], (DATA / name).read_text(), entry["stderr"]


def _close(a: str, b: str, ulps: int) -> bool:
    x, y = float(a), float(b)
    return x == y or abs(x - y) <= ulps * math.ulp(max(abs(x), abs(y), 1.0))


def first_difference(want: str, got: str, ulps: int = 0) -> str | None:
    """None when ``got`` matches ``want`` line by line, numbers within ``ulps``;
    else the first line that differs, numbered from 1, as the two show it."""
    for i, (w, g) in enumerate(itertools.zip_longest(want.splitlines(), got.splitlines()), 1):
        if w == g or (ulps and w is not None and g is not None
                      and NUMBER.split(w) == NUMBER.split(g)
                      and all(_close(a, b, ulps)
                              for a, b in zip(NUMBER.findall(w), NUMBER.findall(g)))):
            continue
        return f"line {i} differs:\n  recorded: {w!r}\n  produced: {g!r}"
    return None


def write() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    exits = {}
    for name, argv in ARGVS.items():
        code, out, err = run(argv)
        (DATA / name).write_text(out)
        exits[name] = {"exit": code, "stderr": err}
    (DATA / "exits.json").write_text(json.dumps(exits, indent=2) + "\n")
    (DATA / "manifest.json").write_text(json.dumps(manifest(), indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write  (regenerates {DATA})")
    write()
