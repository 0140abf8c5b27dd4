"""Journal, checkpoint-manager, and resume semantics (crash-safe runtime)."""

from __future__ import annotations

import json

import pytest

from repro.parallel import ArtifactCache
from repro.parallel.cache import cache_key
from repro.pipeline.scaling import run_pipeline
from repro.recovery.checkpoint import CheckpointManager, RecoveryError, open_run_journal
from repro.recovery.harness import tear_file
from repro.recovery.journal import (
    EVENT_BEGIN,
    EVENT_COMMIT,
    EVENT_RUN_END,
    EVENT_RUN_RESUME,
    EVENT_RUN_START,
    JournalError,
    RunJournal,
    replay_journal,
)


class TestRunJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path, "r1") as journal:
            journal.append(EVENT_RUN_START, meta={"config": "abc"})
            journal.append(EVENT_BEGIN, stage="corpus", key="k1")
            journal.append(EVENT_COMMIT, stage="corpus", key="k1", digest="d1")
            journal.append(EVENT_RUN_END)
        replay = replay_journal(path)
        assert replay.run_id == "r1"
        assert [e.event for e in replay.events] == [
            EVENT_RUN_START, EVENT_BEGIN, EVENT_COMMIT, EVENT_RUN_END,
        ]
        assert [e.seq for e in replay.events] == [0, 1, 2, 3]
        assert replay.dropped == 0
        assert replay.completed
        assert replay.committed()["corpus"].digest == "d1"
        assert replay.run_config() == {"config": "abc"}

    def test_seq_continues_across_reopen(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path, "r1") as journal:
            journal.append(EVENT_RUN_START)
        with RunJournal(path, "r1") as journal:
            entry = journal.append(EVENT_RUN_END)
        assert entry.seq == 1
        assert replay_journal(path).next_seq == 2

    def test_unknown_event_rejected(self, tmp_path):
        with RunJournal(tmp_path / "run.jsonl", "r1") as journal:
            with pytest.raises(JournalError, match="unknown journal event"):
                journal.append("checkpoint")

    def test_append_after_close_rejected(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl", "r1")
        journal.append(EVENT_RUN_START)
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.append(EVENT_RUN_END)

    def test_on_event_fires_after_durable_write(self, tmp_path):
        path = tmp_path / "run.jsonl"
        seen = []

        def observer(event):
            # The event must already be parseable from disk when the
            # callback fires — this is what makes SIGKILL-at-event-k a
            # deterministic crash model.
            on_disk = [json.loads(line) for line in path.read_text().splitlines()]
            seen.append((event.seq, on_disk[-1]["seq"]))

        with RunJournal(path, "r1", on_event=observer) as journal:
            journal.append(EVENT_RUN_START)
            journal.append(EVENT_RUN_END)
        assert seen == [(0, 0), (1, 1)]

    def test_uncommitted_names_the_interrupted_stage(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path, "r1") as journal:
            journal.append(EVENT_RUN_START)
            journal.append(EVENT_BEGIN, stage="corpus", key="k1")
            journal.append(EVENT_COMMIT, stage="corpus", key="k1", digest="d1")
            journal.append(EVENT_BEGIN, stage="tfidf", key="k2")
        replay = replay_journal(path)
        assert replay.begun() == ["corpus", "tfidf"]
        assert list(replay.committed()) == ["corpus"]
        assert not replay.completed


class TestReplayCorruption:
    def _journal(self, tmp_path, events=3):
        path = tmp_path / "run.jsonl"
        with RunJournal(path, "r1") as journal:
            journal.append(EVENT_RUN_START)
            for index in range(events - 1):
                journal.append(EVENT_BEGIN, stage=f"s{index}", key=f"k{index}")
        return path

    def test_torn_tail_dropped_silently(self, tmp_path):
        path = self._journal(tmp_path)
        tear_file(path, -7)  # mid-way through the final record
        replay = replay_journal(path)
        assert replay.dropped == 1
        assert len(replay.events) == 2

    def test_torn_tail_is_cut_before_the_next_append(self, tmp_path):
        path = self._journal(tmp_path)
        tear_file(path, -7)
        with RunJournal(path, "r1") as journal:
            entry = journal.append(EVENT_RUN_END)
        assert entry.seq == 2
        replay = replay_journal(path)
        assert replay.dropped == 0
        assert [e.seq for e in replay.events] == [0, 1, 2]
        assert replay.completed

    def test_final_record_without_newline_is_torn(self, tmp_path):
        path = self._journal(tmp_path)
        tear_file(path, -1)  # the record survived, its newline did not
        replay = replay_journal(path)
        assert replay.dropped == 1
        assert len(replay.events) == 2

    def test_midfile_corruption_raises(self, tmp_path):
        path = self._journal(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1][:20] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(JournalError, match="corrupt journal record"):
            replay_journal(path)

    def test_checksum_mismatch_raises(self, tmp_path):
        path = self._journal(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["stage"] = "tampered"  # edit without re-deriving the check
        lines[1] = json.dumps(record, sort_keys=True) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(JournalError, match="corrupt journal record"):
            replay_journal(path)

    def test_sequence_gap_raises(self, tmp_path):
        path = self._journal(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        del lines[1]
        # Append a sentinel so the gap is not the (droppable) final line.
        path.write_text("".join(lines))
        with pytest.raises(JournalError, match="sequence gap"):
            replay_journal(path)

    def test_non_utf8_byte_midfile_raises_journal_error(self, tmp_path):
        path = self._journal(tmp_path)
        data = bytearray(path.read_bytes())
        data[30] = 0xFF  # inside the first of three records
        path.write_bytes(bytes(data))
        with pytest.raises(JournalError, match=r"run\.jsonl:1: corrupt journal record"):
            replay_journal(path)

    def test_non_utf8_byte_in_final_line_is_a_torn_tail(self, tmp_path):
        path = self._journal(tmp_path)
        data = bytearray(path.read_bytes())
        data[-10] = 0xFF
        path.write_bytes(bytes(data))
        replay = replay_journal(path)
        assert replay.dropped == 1
        assert [e.seq for e in replay.events] == [0, 1]
        with RunJournal(path, "r1") as journal:
            entry = journal.append(EVENT_RUN_END)
        assert entry.seq == 2
        replay = replay_journal(path)
        assert replay.dropped == 0
        assert [e.seq for e in replay.events] == [0, 1, 2]

    def test_non_object_record_midfile_raises_journal_error(self, tmp_path):
        path = self._journal(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = "[1, 2]\n"
        path.write_text("".join(lines))
        with pytest.raises(JournalError, match="not a JSON object"):
            replay_journal(path)

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError, match="does not exist"):
            replay_journal(tmp_path / "absent.jsonl")

    def test_fully_torn_journal_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("{half a rec")
        with pytest.raises(JournalError, match="no intact records"):
            replay_journal(path)


class TestOpenRunJournal:
    def test_fresh_refuses_existing_journal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal, _ = open_run_journal(path, "r1", resume=False, config_digest="c")
        journal.close()
        with pytest.raises(RecoveryError, match="already exists"):
            open_run_journal(path, "r1", resume=False, config_digest="c")

    def test_resume_refuses_config_drift(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal, _ = open_run_journal(path, "r1", resume=False, config_digest="c1")
        journal.close()
        with pytest.raises(RecoveryError, match="different configuration"):
            open_run_journal(path, "r1", resume=True, config_digest="c2")

    def test_refused_resume_leaves_a_torn_journal_untouched(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal, _ = open_run_journal(path, "r1", resume=False, config_digest="c1")
        journal.append(EVENT_BEGIN, stage="corpus", key="k1")
        journal.close()
        tear_file(path, -7)
        before = path.read_bytes()
        with pytest.raises(RecoveryError, match="different configuration"):
            open_run_journal(path, "r1", resume=True, config_digest="c2")
        assert path.read_bytes() == before
        journal, _ = open_run_journal(path, "r1", resume=True, config_digest="c1")
        journal.close()
        replay = replay_journal(path)
        assert replay.dropped == 0
        assert [e.event for e in replay.events] == [EVENT_RUN_START, EVENT_RUN_RESUME]

    def test_resume_parses_the_journal_once(self, tmp_path, journal_parses):
        path = tmp_path / "run.jsonl"
        journal, _ = open_run_journal(path, "r1", resume=False, config_digest="c")
        journal.append(EVENT_BEGIN, stage="corpus", key="k1")
        journal.close()
        journal_parses.clear()
        journal, _ = open_run_journal(path, "r1", resume=True, config_digest="c")
        journal.close()
        assert journal_parses == [path]

    def test_resume_returns_committed_map(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal, _ = open_run_journal(path, "r1", resume=False, config_digest="c")
        journal.append(EVENT_BEGIN, stage="corpus", key="k1")
        journal.append(EVENT_COMMIT, stage="corpus", key="k1", digest="d1")
        journal.close()
        journal, committed = open_run_journal(
            path, "r1", resume=True, config_digest="c"
        )
        journal.close()
        assert set(committed) == {"corpus"}
        assert committed["corpus"].digest == "d1"

    def test_config_digests_are_pinned(self):
        # A journal records its run's config digest and a resume compares
        # it, so a digest that moves makes every existing journal refuse.
        from repro.fuzzing import FuzzConfig
        from repro.recovery.smoke import FUZZ_CONFIG, STREAM_CONFIG
        from repro.stream import IngestConfig

        assert FuzzConfig().digest() == (
            "a080748c9cecba21ee2cfe9a148703b597662bba7eb564c5362ca9943c45b644"
        )
        assert IngestConfig().digest() == (
            "0a3e5003c7dbecdf80c6b01c4dbfefb6ce18d35220ae15e4c654dd31eafeb8c0"
        )
        assert FUZZ_CONFIG.digest() == (
            "3d6292b6fdb2c764302dcb21c2c9e66e42d6d2876359c806fce45c8cac0ae16e"
        )
        assert STREAM_CONFIG.digest() == (
            "615c1e68ca00074a07b791e3720fa63b4d13d5197731c92153c74cf171fefb3f"
        )


class TestCheckpointManager:
    def _manager(self, tmp_path, committed=None):
        cache = ArtifactCache(tmp_path / "cache")
        journal = RunJournal(tmp_path / "journal" / "run.jsonl", "r1")
        journal.append(EVENT_RUN_START)
        return cache, journal, CheckpointManager(
            cache, journal, committed=committed
        )

    def test_compute_then_resume_skips(self, tmp_path):
        cache, journal, manager = self._manager(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return {"acc": 0.96}

        value, outcome = manager.run_stage("svm", "svm", {"seed": 1}, compute)
        journal.close()
        assert value == {"acc": 0.96}
        assert not outcome.hit and not outcome.skipped
        assert [o.stage for o in manager.outcomes] == ["svm"]

        replay = replay_journal(journal.path)
        journal2 = RunJournal(journal.path, "r1")
        manager2 = CheckpointManager(cache, journal2, committed=replay.committed())
        value, outcome = manager2.run_stage("svm", "svm", {"seed": 1}, compute)
        journal2.close()
        assert value == {"acc": 0.96}
        assert outcome.skipped
        assert manager2.skipped_stages() == ["svm"]
        assert len(calls) == 1

    def test_corrupted_checkpoint_recomputes(self, tmp_path):
        cache, journal, manager = self._manager(tmp_path)
        manager.run_stage("svm", "svm", {"seed": 1}, lambda: "v1")
        journal.close()
        payload = cache.path_for("svm", {"seed": 1})
        tear_file(payload, payload.stat().st_size // 2)

        replay = replay_journal(journal.path)
        journal2 = RunJournal(journal.path, "r1")
        manager2 = CheckpointManager(cache, journal2, committed=replay.committed())
        value, outcome = manager2.run_stage("svm", "svm", {"seed": 1}, lambda: "v2")
        journal2.close()
        assert value == "v2"
        assert not outcome.skipped
        assert cache.stats()["quarantined"] == 1

    def test_warm_unjournaled_cache_adopted_as_commit(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.put("svm", {"seed": 1}, "warm")
        journal = RunJournal(tmp_path / "journal" / "run.jsonl", "r1")
        journal.append(EVENT_RUN_START)
        manager = CheckpointManager(cache, journal)
        value, outcome = manager.run_stage(
            "svm", "svm", {"seed": 1}, lambda: "recomputed"
        )
        journal.close()
        assert value == "warm"
        assert outcome.hit and not outcome.skipped
        committed = replay_journal(journal.path).committed()
        assert "svm" in committed

    def test_commit_digest_matches_cache(self, tmp_path):
        cache, journal, manager = self._manager(tmp_path)
        _, outcome = manager.run_stage("svm", "svm", {"seed": 1}, lambda: "value")
        journal.close()
        assert outcome.key == cache_key("svm", {"seed": 1})
        assert outcome.digest == cache.digest_of("svm", {"seed": 1})


_PIPELINE_KW = dict(
    seed=0, dimensions=("bug_type",), n_topics=2, nmf_restarts=2
)


class TestPipelineJournaling:
    def test_journaled_run_requires_cache(self):
        with pytest.raises(RecoveryError, match="require an artifact cache"):
            run_pipeline(run_id="r1", cache=None, **_PIPELINE_KW)

    def test_conflicting_run_ids_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(RecoveryError, match="conflicting run ids"):
            run_pipeline(run_id="a", resume="b", cache=cache, **_PIPELINE_KW)

    def test_fresh_run_journal_shape(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        result = run_pipeline(cache=cache, run_id="r1", **_PIPELINE_KW)
        assert result.run_id == "r1" and not result.resumed
        replay = replay_journal(tmp_path / ".journal" / "r1.jsonl")
        counts = replay.counts()
        assert counts == {"run-start": 1, "begin": 4, "commit": 4, "run-end": 1}
        assert replay.completed

    def test_resume_completed_run_skips_everything(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        first = run_pipeline(cache=cache, run_id="r1", **_PIPELINE_KW)
        second = run_pipeline(cache=cache, resume="r1", **_PIPELINE_KW)
        assert second.resumed
        assert sorted(second.skipped_stages) == sorted(
            ["corpus", "tfidf", "nmf", "validate:bug_type"]
        )
        assert first.accuracies() == second.accuracies()
        assert first.topics == second.topics
        replay = replay_journal(tmp_path / ".journal" / "r1.jsonl")
        assert replay.counts()["skip"] == 4

    def test_resume_with_changed_config_refused(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        run_pipeline(cache=cache, run_id="r1", **_PIPELINE_KW)
        changed = dict(_PIPELINE_KW, n_topics=3)
        with pytest.raises(RecoveryError, match="different configuration"):
            run_pipeline(cache=cache, resume="r1", **changed)

    def test_same_run_id_twice_refused(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        run_pipeline(cache=cache, run_id="r1", **_PIPELINE_KW)
        with pytest.raises(RecoveryError, match="already exists"):
            run_pipeline(cache=cache, run_id="r1", **_PIPELINE_KW)
