"""The CLI still writes the corpus under tests/data/golden/, with a C
compiler and without; golden.py says how the corpus is compared and how a
change that means to move an output regenerates it."""

import pytest

import golden


@pytest.mark.parametrize("name", list(golden.ARGVS))
def test_output_matches_the_corpus(name, no_cc):
    recorded = (golden.DATA / name).read_text()
    ulps = golden.ulp_bound()
    with_cc = golden.run(golden.ARGVS[name])
    with no_cc():
        without_cc = golden.run(golden.ARGVS[name])
    for served, got in (("with cc", with_cc), ("without cc", without_cc)):
        difference = golden.first_difference(recorded, got, ulps)
        assert difference is None, f"{name} {served}: {difference}"


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
