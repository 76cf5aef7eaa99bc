"""Reproducer corpus: entry layout, atomic writes, validation, replay."""

from __future__ import annotations

import json
import os

import pytest

from repro.chaos.corpus import (
    CORPUS_SCHEMA,
    entry_path,
    load_corpus,
    load_entry,
    make_entry,
    pytest_snippet,
    replay_entry,
    replay_reproduces,
    write_entry,
)
from repro.chaos.oracles import ORACLE_INVARIANT, OracleFailure
from repro.errors import ObsFormatError
from repro.experiments.scenario import config_fingerprint
from repro.snapshot.restore import decode_config
from tests.chaos.conftest import tiny_case

FAILURE = OracleFailure(
    oracle=ORACLE_INVARIANT,
    detail="live spray tokens sum to 12 but at most 8 may exist",
    invariant="copy-conservation",
    violation_time=33.0,
    msg_id="M4",
)


def entry(**kw):
    defaults = dict(base_seed=7, iteration=3, shrink_attempts=21)
    defaults.update(kw)
    return make_entry(tiny_case(), FAILURE, **defaults)


class TestEntry:
    def test_layout(self):
        e = entry(original_config=tiny_case(n_nodes=20))
        assert e["schema"] == CORPUS_SCHEMA
        assert e["id"] == config_fingerprint(tiny_case())
        assert e["failure"]["invariant"] == "copy-conservation"
        assert decode_config(e["config"]) == tiny_case()
        assert decode_config(e["original_config"]) == tiny_case(n_nodes=20)
        assert e["base_seed"] == 7 and e["iteration"] == 3

    def test_pytest_snippet_compiles_and_names_the_entry(self):
        e = entry()
        snippet = pytest_snippet(e)
        compile(snippet, "<corpus snippet>", "exec")
        assert f"test_chaos_reproducer_{e['id'][:12]}" in snippet
        assert "'copy-conservation'" in snippet

    def test_file_name_carries_oracle_and_id(self, tmp_path):
        e = entry()
        path = entry_path(tmp_path, e)
        assert path.name == f"invariant-{e['id'][:16]}.json"


class TestWriteLoad:
    def test_roundtrip_is_exact_and_atomic(self, tmp_path):
        e = entry()
        path = write_entry(tmp_path, e)
        assert load_entry(path) == json.loads(json.dumps(e))
        assert not list(tmp_path.glob("*.tmp")), "staging file left behind"

    @pytest.mark.parametrize("fails", ["fsync", "replace"])
    def test_failed_write_keeps_the_old_entry_and_no_staging(
        self, tmp_path, monkeypatch, fails
    ):
        path = write_entry(tmp_path, entry(iteration=1))
        before = path.read_text(encoding="utf-8")

        def boom(*_args):
            raise OSError("injected")

        monkeypatch.setattr(os, fails, boom)
        with pytest.raises(OSError, match="injected"):
            write_entry(tmp_path, entry(iteration=2))
        monkeypatch.undo()
        assert path.read_text(encoding="utf-8") == before
        assert not list(tmp_path.glob("*.tmp")), "staging file left behind"

    def test_write_is_fsynced(self, tmp_path, monkeypatch):
        synced = []
        real = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real(fd))
        )
        write_entry(tmp_path, entry())
        assert synced, "corpus entry was not fsynced before the rename"

    def test_same_minimal_case_overwrites(self, tmp_path):
        write_entry(tmp_path, entry(iteration=1))
        write_entry(tmp_path, entry(iteration=2))
        corpus = load_corpus(tmp_path)
        assert len(corpus) == 1
        assert corpus[0][1]["iteration"] == 2

    def test_load_corpus_is_sorted_and_tolerates_missing_dir(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []
        for seed in (3, 1, 2):
            write_entry(tmp_path, entry(base_seed=seed))
        paths = [p for p, _ in load_corpus(tmp_path)]
        assert paths == sorted(paths)

    def test_unreadable_entry_raises(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ObsFormatError, match="unreadable"):
            load_entry(bad)

    def test_wrong_schema_raises(self, tmp_path):
        e = entry()
        e["schema"] = CORPUS_SCHEMA + 1
        path = write_entry(tmp_path, e)
        with pytest.raises(ObsFormatError, match="schema"):
            load_entry(path)

    def test_missing_key_raises(self, tmp_path):
        e = entry()
        del e["config"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(e), encoding="utf-8")
        with pytest.raises(ObsFormatError, match="config"):
            load_entry(path)

    def test_non_object_document_raises(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ObsFormatError, match="not a JSON object"):
            load_entry(path)


class TestReplay:
    def test_replay_runs_the_recorded_config(self):
        result = replay_entry(entry())
        assert result.config == tiny_case()

    def test_fixed_bug_no_longer_reproduces(self):
        # tiny_case is clean: an entry claiming it violates an invariant
        # must report non-reproduction (the regression-test direction).
        assert not replay_reproduces(entry())
