"""Byte identity of the CLI's corpus output against the committed snapshot
(``tests/data/corpus_outputs.json``, written by ``tests/corpus_snapshot.py``)."""

from __future__ import annotations

import json

import corpus_snapshot as snap
import pytest

EXPECTED = json.loads(snap.SNAPSHOT.read_text(encoding="utf-8"))


def test_snapshot_covers_the_corpus():
    assert sorted(EXPECTED) == snap.programs()
    assert len(EXPECTED) == 36


@pytest.mark.parametrize("program", snap.programs())
def test_corpus_output_matches_snapshot(program, monkeypatch):
    monkeypatch.chdir(snap.ROOT)
    expected = EXPECTED[program]
    assert sorted(expected) == sorted(snap.key(argv) for argv in snap.runs(program))
    differ = [snap.key(argv) for argv in snap.runs(program)
              if snap.run(argv) != expected[snap.key(argv)]]
    assert not differ, "runs whose stdout or exit code changed:\n" + "\n".join(differ)
