"""The CLI argv golden corpus: each argv in cli_pins.json keeps its exit code
and the sha256 of its stdout. regen_cli_pins.py holds the corpus and rewrites
the file."""

import json

import pytest
from regen_cli_pins import CORPUS, PINS_PATH, run

PINS = json.loads(PINS_PATH.read_text(encoding="utf-8"))


def _id(pin: dict) -> str:
    argv = " ".join(pin["argv"]) or "<no arguments>"
    return f"{pin['mutant']}: {argv}" if pin["mutant"] else argv


def test_pins_list_the_corpus_in_order():
    assert [(pin["argv"], pin["mutant"]) for pin in PINS] == CORPUS


def test_pins_reach_every_exit_code():
    assert {pin["exit"] for pin in PINS} == set(range(5))


@pytest.mark.parametrize("pin", PINS, ids=map(_id, PINS))
def test_argv_keeps_its_exit_code_and_stdout(pin):
    assert run(pin["argv"], pin["mutant"]) == (pin["exit"], pin["stdout_sha256"])
