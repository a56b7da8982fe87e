"""A C runner linked with a package source under the address and
undefined-behaviour sanitizers, for the tests that check native code for
out-of-bounds access and undefined behaviour on boundary inputs."""

import os
import subprocess

import pytest

from fireball import native

SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all")


def build(tmp, runner: str, source: str, *defines: str):
    """The program ``runner`` (C source with a ``main``) linked with
    ``source`` under both sanitizers and the package's flags, in ``tmp``,
    or a skip where ``cc`` cannot link the sanitizers."""
    (tmp / "probe.c").write_text("int main(void) { return 0; }\n")
    if subprocess.run(["cc", *SANITIZE, "-o", "probe", "probe.c"], cwd=tmp,
                      capture_output=True, timeout=120).returncode != 0:
        pytest.skip("cc cannot link the address and undefined-behaviour sanitizers")
    (tmp / "source.c").write_text(source)
    (tmp / "runner.c").write_text(runner)
    flags = [f for f in native.FLAGS if f not in ("-fPIC", "-shared")]
    proc = subprocess.run(["cc", *SANITIZE, *flags, "-g", *defines, "-o", "runner", "runner.c",
                           "source.c", "-lm"], cwd=tmp, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return tmp / "runner"


def run(runner, data: bytes) -> bytes:
    """What ``runner`` writes to standard output on ``data``, checked to
    come without a sanitizer's report."""
    proc = subprocess.run([runner], input=data, capture_output=True, timeout=120,
                          env={**os.environ, "ASAN_OPTIONS": "detect_leaks=0"})
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr.decode(errors="replace")
    return proc.stdout
