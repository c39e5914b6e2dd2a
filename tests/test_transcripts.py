"""Every command line of the output corpus prints what
tests/data/transcripts.json pins: the same stdout digest, stderr text and
exit code. After a deliberate change, re-pin it with
`PYTHONPATH=src python tests/transcripts.py`, which lists the command lines
that changed."""

import transcripts


def test_corpus_replays_its_transcripts(tmp_path):
    pinned = transcripts.load()
    replayed = transcripts.replay(tmp_path)
    assert list(replayed) == list(pinned), "the corpus and its pinned file list other commands"
    changed = [argv for argv, entry in replayed.items() if entry != pinned[argv]]
    assert not changed, f"{len(changed)} command lines changed, e.g. {changed[:5]}"

