"""Every command of the output corpus prints what it is pinned to (see corpus.py)."""

from pathlib import Path

import corpus

import qfibounds


def test_every_corpus_command_prints_its_pinned_output():
    names = [corpus.key(argv) for argv in corpus.COMMANDS]
    assert len(set(names)) == len(names) >= 150 and set(corpus.PINS) == set(names)
    results = corpus.dump(Path(qfibounds.__file__).resolve().parents[1])
    moved = [name for name in names if corpus.digest(results[name]) != corpus.PINS[name]]
    assert not moved, moved
