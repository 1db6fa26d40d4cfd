"""Pinned output bytes: the sha256 of what each README command prints.

The digests in reference/csv_sha256.json were taken on the machine whose
stamp is recorded beside them (conftest.numpy_build); under another numpy,
BLAS build, OpenBLAS core or SIMD dispatch the bits can differ, so a
failure message names both stamps.  To rewrite the
digests after a change that moves an output on purpose, run

    PYTHONPATH=src python tests/test_reference_outputs.py

It prints each command whose digest moved, old -> new, and how many did
not; say in the change why those outputs moved.
"""
import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from kpoqcr.cli import main

from conftest import numpy_build, stamp

REFERENCE = Path(__file__).resolve().parent / "reference" / "csv_sha256.json"
# In README order; the README gives the evolve Husimi map in its prose.
COMMANDS = (
    "rates --sweep voltage --from 0 --to 60e9 --points 121",
    "rates --sweep alpha --from 1 --to 2.5 --points 61 --interference off",
    "steady --from 30e9 --to 55e9 --points 26",
    "bitflip --from 1 --to 2.5 --points 31",
    "dynamics --initial phi0 --t-end 1e-4 --points 201 --t-qcr-on 5e-5",
    "husimi --source steady --points 81 --extent 4",
    "husimi --source evolve --initial phi_alpha --time 1e-4",
    "pq --pumped --json",
    "validate",
)


def _digest(command: str) -> str:
    result = CliRunner().invoke(main, command.split())
    assert result.exit_code == 0, result.output
    return hashlib.sha256(result.stdout_bytes).hexdigest()


@pytest.mark.parametrize("command", COMMANDS)
def test_csv_bytes_match_the_pinned_digest(command):
    reference = json.loads(REFERENCE.read_text())
    got = _digest(command)
    assert got == reference["sha256"][command], (
        f"`kpoqcr {command}` printed other bytes: sha256 {got}. Pinned on "
        f"{stamp(reference)}; this run has {stamp(numpy_build())}.")


@pytest.mark.parametrize("order", ["readme", "reversed"])
def test_commands_in_one_process_print_their_pinned_digests(order):
    # The commands of one process at the default junction share one
    # tunneling function and its charge average, warm from whichever
    # command ran first; every command still prints its pinned bytes.
    reference = json.loads(REFERENCE.read_text())["sha256"]
    commands = COMMANDS if order == "readme" else COMMANDS[::-1]
    got = {command: _digest(command) for command in commands}
    assert got == {command: reference[command] for command in commands}


if __name__ == "__main__":
    old = json.loads(REFERENCE.read_text())["sha256"]
    new = {c: _digest(c) for c in COMMANDS}
    moved = [c for c in COMMANDS if old.get(c) != new[c]]
    for command in moved:
        print(f"moved: kpoqcr {command}\n  {old.get(command)} -> "
              f"{new[command]}")
    print(f"{len(moved)} of {len(COMMANDS)} digests moved; the other "
          f"{len(COMMANDS) - len(moved)} did not.")
    REFERENCE.write_text(json.dumps({**numpy_build(), "sha256": new},
                                    indent=1) + "\n")
