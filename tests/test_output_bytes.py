"""simulate and verify write the same bytes whichever SIMD loops numpy picks
on the machine, and with or without a C compiler: every power is the C
library's pow, in Python, in numpy element by element and in the C."""

import inspect
import json
import subprocess
import sys

from fireball import ModelKind

from conftest import fresh_env

# numpy without its AVX-512 loops, whose power differs from pow in the last
# bit on about 5% of values
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
STATE = {"X": "1", "Y": "1.3", "Z": "0.8", "Xdot": "0.1", "Ydot": "0.2", "Zdot": "0"}
ARGVS = [["simulate", "--model", kind.value, "--t-end", "25", "--sample-interval", "0.01",
          *(a for x in kind.labels for a in (f"--{x}", STATE[x], f"--{x}dot", STATE[x + "dot"]))]
         for kind in ModelKind]
ARGVS += [["verify", "--model", kind.value, "--seed", seed]
          for kind in ModelKind for seed in ("0", "7919")]


def digests(argvs, directory):
    """The SHA-256 of what each of ``argvs`` writes, run in process."""
    import hashlib
    import os
    from fireball.cli import main

    found = []
    for i, argv in enumerate(argvs):
        path = os.path.join(directory, str(i))
        assert main([*argv, "--out", path]) == 0, argv
        with open(path, "rb") as f:
            found.append(hashlib.sha256(f.read()).hexdigest())
    return found


def test_outputs_do_not_depend_on_numpy_simd_or_the_compiler(tmp_path, no_cc):
    # the run without AVX-512 goes on in another interpreter meanwhile
    code = (inspect.getsource(digests)
            + "import json, sys\nprint(json.dumps(digests(json.loads(sys.argv[1]), sys.argv[2])))")
    (tmp_path / "simd").mkdir()
    (tmp_path / "cc").mkdir()
    (tmp_path / "no-cc").mkdir()
    proc = subprocess.Popen([sys.executable, "-c", code, json.dumps(ARGVS),
                             str(tmp_path / "simd")], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=fresh_env(**NO_AVX512))
    with_cc = digests(ARGVS, tmp_path / "cc")
    with no_cc():
        without_cc = digests(ARGVS, tmp_path / "no-cc")
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert [argv for argv, a, b in zip(ARGVS, with_cc, without_cc) if a != b] == []
    assert [argv for argv, a, b in zip(ARGVS, with_cc, json.loads(out)) if a != b] == []
