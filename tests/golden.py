"""The corpus of CLI outputs under tests/data/golden/: the argvs, how one is
run, how an output is compared with its recorded bytes, and the generator.

Each entry is the standard output of one ``fireball`` argv: ``verify`` for
the four models at seeds 0 and 7919, and a coarse ``simulate`` CSV per
model.  ``manifest.json`` records what the bytes depend on beyond IEEE
arithmetic: the C library, whose ``pow`` every power is, and numpy's
version.  ``analytic`` is left out: its ``phi`` and ``ttilde`` columns follow
numpy's SIMD ``arctan2`` and ``arctan``, which differ between machines.

On the recorded C library an output must match byte for byte.  On another
one each number may differ by ``ULPS`` units in the last place of the larger
of its two magnitudes and 1, and everything between the numbers must match.

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
ARGVS.update({f"simulate-{model}.csv": [
    "simulate", "--model", model, "--t-end", "25", "--sample-interval", "0.5",
    *(a for x in LABELS[model] for a in (f"--{x}", STATE[x], f"--{x}dot", STATE[x + "dot"]))]
    for model in MODELS})

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


def run(argv) -> str:
    """What ``fireball`` writes to standard output for ``argv``, run in process."""
    from fireball.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"{argv} exited {code}"
    return out.getvalue()


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
    for name, argv in ARGVS.items():
        (DATA / name).write_text(run(argv))
    (DATA / "manifest.json").write_text(json.dumps(manifest(), indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write  (regenerates {DATA})")
    write()
