"""Tests for the write-ahead job journal (log, snapshot, lock).

The contract under test is the database recipe: an acknowledged
append survives any crash (fsync-before-return), replay reconstructs
the same job table from snapshot + log tail, a torn final record is
dropped with a warning (it was never acknowledged), corruption in the
middle is an error, and the lock file keeps two live servers off one
journal directory while a dead owner's lock is stolen silently.
"""

import json
import os
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.journal import (
    LOCK_NAME,
    LOG_NAME,
    RECORD_KINDS,
    SNAPSHOT_NAME,
    JobJournal,
    JournalError,
    JournalLocked,
    apply_record,
)


def _lifecycle(journal, job_id="job-000001"):
    """One full job lifecycle worth of appends."""
    journal.append("submitted", job_id, spec={"kind": "attack"})
    journal.append("started", job_id)
    journal.append(
        "lease_granted", job_id, shard=0, worker="w-0001", attempt=0
    )
    journal.append("checkpoint_spooled", job_id, path="/tmp/x.npz")
    journal.append("done", job_id, cache_key="abc123")


class TestAppendAndReplay:
    def test_crash_replay_reconstructs_the_table(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        _lifecycle(journal)
        journal.append("submitted", "job-000002", spec={"kind": "tracegen"})
        journal.append("started", "job-000002")
        journal.crash()  # SIGKILL: handles dropped, lock left behind

        replayed = JobJournal(str(tmp_path))
        try:
            table = replayed.jobs()
            assert table["job-000001"]["status"] == "done"
            assert table["job-000001"]["cache_key"] == "abc123"
            assert "leases" not in table["job-000001"]
            assert table["job-000002"]["status"] == "running"
            unfinished = replayed.unfinished()
            assert [entry["job_id"] for entry in unfinished] == [
                "job-000002"
            ]
            counters = replayed.counters()
            assert counters["journal_records"] == 7
            assert counters["journal_replays"] == 1
        finally:
            replayed.close()

    def test_unacknowledged_lease_survives_in_the_table(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.append("submitted", "job-000001", spec={})
        journal.append("started", "job-000001")
        journal.append(
            "lease_granted", "job-000001", shard=1, worker="w-0002",
            attempt=0,
        )
        journal.crash()
        with JobJournal(str(tmp_path)) as replayed:
            entry = replayed.jobs()["job-000001"]
            assert entry["leases"] == {
                "1": {"worker": "w-0002", "attempt": 0}
            }

    def test_fresh_journal_counts_no_replay(self, tmp_path):
        with JobJournal(str(tmp_path)) as journal:
            assert journal.counters()["journal_replays"] == 0
            assert journal.counters()["journal_records"] == 0

    def test_unknown_record_kind_rejected(self, tmp_path):
        with JobJournal(str(tmp_path)) as journal:
            with pytest.raises(JournalError, match="unknown journal"):
                journal.append("levitated", "job-000001")


class TestTornAndCorruptRecords:
    def test_torn_final_record_dropped_with_warning(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        _lifecycle(journal)
        journal.crash()
        log = tmp_path / LOG_NAME
        with open(log, "ab") as handle:
            handle.write(b'{"record": "done", "job_id": "job-9')  # torn

        with pytest.warns(RuntimeWarning, match="torn final journal"):
            replayed = JobJournal(str(tmp_path))
        try:
            # The torn record is gone from disk and from the table;
            # the acknowledged history replayed fully.
            assert b"job-9" not in log.read_bytes()
            assert "job-9" not in replayed.jobs()
            assert replayed.counters()["journal_records"] == 5
            # The next append starts a clean line.
            replayed.append("submitted", "job-000002", spec={})
        finally:
            replayed.close()
        with JobJournal(str(tmp_path)) as again:
            assert "job-000002" in again.jobs()

    def test_torn_payload_with_newline_is_also_dropped(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        _lifecycle(journal)
        journal.crash()
        with open(tmp_path / LOG_NAME, "ab") as handle:
            handle.write(b'{"record": "done", "job_id"\n')
        with pytest.warns(RuntimeWarning, match="torn final journal"):
            with JobJournal(str(tmp_path)) as replayed:
                assert replayed.counters()["journal_records"] == 5

    def test_mid_log_corruption_is_a_structured_error(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        _lifecycle(journal)
        journal.crash()
        log = tmp_path / LOG_NAME
        lines = log.read_bytes().splitlines(keepends=True)
        lines[1] = b"garbage that is not a record\n"
        log.write_bytes(b"".join(lines))
        with pytest.raises(JournalError, match="corrupt at record 2"):
            JobJournal(str(tmp_path))


class TestCompaction:
    def test_compaction_snapshots_and_truncates(self, tmp_path):
        journal = JobJournal(str(tmp_path), compact_every=4)
        _lifecycle(journal)  # 5 appends: one compaction at 4
        assert journal.compactions == 1
        assert (tmp_path / SNAPSHOT_NAME).exists()
        journal.crash()

        with JobJournal(str(tmp_path)) as replayed:
            # Snapshot (4 records) + log tail (1 record) replay to the
            # same table and the same total history.
            assert replayed.counters()["journal_records"] == 5
            assert replayed.jobs()["job-000001"]["status"] == "done"

    def test_crash_between_snapshot_and_truncate_is_idempotent(
        self, tmp_path
    ):
        """Replaying log records the snapshot already covers is a
        no-op: the reducer is monotone, so nothing regresses."""
        journal = JobJournal(str(tmp_path))
        _lifecycle(journal)
        journal.compact()
        journal.crash()
        # Put the pre-compaction log back: every record now appears in
        # both the snapshot and the log, as a crash between the
        # snapshot write and the log truncate would leave it.
        log = tmp_path / LOG_NAME
        stale = []
        for kind, extra in (
            ("submitted", {"spec": {"kind": "attack"}}),
            ("started", {}),
            ("done", {"cache_key": "abc123"}),
        ):
            record = {"record": kind, "job_id": "job-000001", "time": 0.0}
            record.update(extra)
            stale.append(json.dumps(record))
        log.write_text("\n".join(stale) + "\n")

        with JobJournal(str(tmp_path)) as replayed:
            entry = replayed.jobs()["job-000001"]
            assert entry["status"] == "done"
            assert entry["cache_key"] == "abc123"

    @pytest.mark.parametrize(
        "snapshot",
        [
            "[]",
            '{"jobs": [1]}',
            '{"jobs": {"job-000001": 5}}',
            '{"total_records": "x"}',
        ],
    )
    def test_snapshot_of_the_wrong_shape_is_a_structured_error(
        self, tmp_path, snapshot
    ):
        (tmp_path / SNAPSHOT_NAME).write_text(snapshot)
        with pytest.raises(JournalError, match="snapshot .* unreadable"):
            JobJournal(str(tmp_path))
        # The failed open released the lock.
        assert not (tmp_path / LOCK_NAME).exists()

    def test_compact_every_validated(self, tmp_path):
        with pytest.raises(ValueError):
            JobJournal(str(tmp_path), compact_every=0)


class TestLocking:
    def test_second_live_journal_refused(self, tmp_path):
        with JobJournal(str(tmp_path)) as journal:
            assert journal is not None
            with pytest.raises(JournalLocked, match="must not share"):
                JobJournal(str(tmp_path))

    def test_lock_released_on_close_and_stale_lock_stolen(
        self, tmp_path
    ):
        journal = JobJournal(str(tmp_path))
        journal.close()
        assert not (tmp_path / LOCK_NAME).exists()

        crashed = JobJournal(str(tmp_path))
        crashed.crash()
        assert (tmp_path / LOCK_NAME).exists()  # SIGKILL leaves it
        with JobJournal(str(tmp_path)) as successor:
            assert successor.counters()["journal_replays"] == 0

    def test_dead_pid_lock_is_stolen(self, tmp_path):
        os.makedirs(tmp_path, exist_ok=True)
        (tmp_path / LOCK_NAME).write_text("999999999:feedbeef\n")
        with JobJournal(str(tmp_path)) as journal:
            assert journal is not None

    def test_locked_error_carries_directory_and_pid(self, tmp_path):
        with JobJournal(str(tmp_path)):
            try:
                JobJournal(str(tmp_path))
            except JournalLocked as exc:
                assert exc.directory == str(tmp_path)
                assert exc.pid == os.getpid()


class TestReducer:
    def test_terminal_states_never_regress(self):
        table = {}
        apply_record(
            table, {"record": "done", "job_id": "j", "cache_key": "k"}
        )
        apply_record(table, {"record": "started", "job_id": "j"})
        apply_record(table, {"record": "recovered", "job_id": "j"})
        assert table["j"]["status"] == "done"

    def test_submitted_never_resets_an_entry(self):
        table = {}
        apply_record(
            table,
            {"record": "submitted", "job_id": "j", "spec": {"a": 1}},
        )
        apply_record(
            table,
            {"record": "submitted", "job_id": "j", "spec": {"a": 2}},
        )
        assert table["j"]["spec"] == {"a": 1}

    def test_quarantine_records_accumulate(self):
        table = {}
        for shard in (0, 1):
            apply_record(
                table,
                {
                    "record": "shard_quarantined",
                    "job_id": "j",
                    "shard": shard,
                    "workers": ["w-1", "w-2"],
                    "error": "boom",
                },
            )
        assert [q["shard"] for q in table["j"]["quarantined"]] == [0, 1]


_RECORDS = st.lists(
    st.tuples(
        st.sampled_from(RECORD_KINDS),
        st.sampled_from(["j1", "j2"]),
        st.fixed_dictionaries(
            {},
            optional={
                "shard": st.integers(0, 3),
                "worker": st.sampled_from(["w-1", "w-2"]),
                "attempt": st.integers(0, 2),
                "error": st.text("ab!", max_size=3),
            },
        ),
    ),
    min_size=1,
    max_size=4,
)


def _reopen(directory):
    """Open, read the table, close; torn-tail warnings are expected."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with JobJournal(directory, fsync=False) as journal:
            return journal.jobs()


class TestJournalFuzz:
    """Generated record sequences, then every truncation and every
    single-byte corruption of the log they leave."""

    @settings(max_examples=6, derandomize=True, deadline=None)
    @given(records=_RECORDS)
    def test_truncation_and_corruption(self, tmp_path_factory, records):
        directory = str(tmp_path_factory.mktemp("journal"))
        log = os.path.join(directory, LOG_NAME)
        tables = []
        with JobJournal(directory, fsync=False) as journal:
            tables.append(journal.jobs())
            for kind, job_id, data in records:
                journal.append(kind, job_id, **data)
                tables.append(journal.jobs())
        with open(log, "rb") as handle:
            raw = handle.read()

        def reopen_with(content):
            with open(log, "wb") as handle:
                handle.write(content)
            return _reopen(directory)

        for offset in range(len(raw) + 1):
            # A cut keeps the records whose newline landed; the torn
            # tail is dropped and cut off the file, so a second open
            # replays the same prefix.
            table = reopen_with(raw[:offset])
            assert table == tables[raw[:offset].count(b"\n")]
            assert _reopen(directory) == table
        # Masks that keep ASCII (a digit, quote or brace turns into a
        # neighbour, a letter changes case) and one that leaves it.
        for offset in range(len(raw)):
            for mask in (0x01, 0x20, 0xFF):
                flipped = bytearray(raw)
                flipped[offset] ^= mask
                try:
                    reopen_with(bytes(flipped))
                except JournalError:
                    pass
