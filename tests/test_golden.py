"""The CLI still gives the corpus under tests/data/golden/, exit code,
stdout and stderr, with a C compiler and without (golden.CC_ONLY's entries
with one alone); golden.py says how the
corpus is compared and how a change that means to move an output
regenerates it."""

import pytest

import golden
from fireball import native


@pytest.mark.parametrize("name", list(golden.ARGVS))
def test_output_matches_the_corpus(name, no_cc):
    if name in golden.CC_ONLY and native._compiler() is None:
        pytest.skip(f"{name} runs only on the C step loop, and there is no C compiler")
    code, *streams = golden.recorded(name)
    ulps = golden.ulp_bound()
    runs = [("with cc", golden.run(golden.ARGVS[name]))]
    if name not in golden.CC_ONLY:
        with no_cc():
            runs.append(("without cc", golden.run(golden.ARGVS[name])))
    for served, (got_code, *got_streams) in runs:
        assert got_code == code, f"{name} {served}: exit {got_code}, recorded {code}"
        for stream, want, got in zip(("stdout", "stderr"), streams, got_streams):
            difference = golden.first_difference(want, got, ulps)
            assert difference is None, f"{name} {served} {stream}: {difference}"


def test_a_moved_ulp_is_caught_and_shown():
    recorded = "t,X\n0.5,1.1604946312253117\n"
    moved = "t,X\n0.5,1.1604946312253119\n"
    assert golden.first_difference(recorded, recorded) is None
    assert golden.first_difference(recorded, moved) == (
        "line 2 differs:\n  recorded: '0.5,1.1604946312253117'\n"
        "  produced: '0.5,1.1604946312253119'")
    assert golden.first_difference(recorded, moved, ulps=2) is None
    assert golden.first_difference(recorded, moved.replace("0.5", "0.6"), ulps=2) is not None
    assert golden.first_difference(recorded, recorded + "1,2\n", ulps=2) is not None
    assert golden.first_difference("max_step=inf nan", "max_step=inf nan", ulps=2) is None
