package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func openTest(t *testing.T, dir string) (*Log, *Recovered) {
	t.Helper()
	lg, rec, err := Open(dir, LogConfig{FsyncInterval: time.Hour}) // explicit Sync only
	if err != nil {
		t.Fatal(err)
	}
	return lg, rec
}

// TestLogEmptyDir: a fresh data dir opens with nothing to recover and is
// immediately appendable.
func TestLogEmptyDir(t *testing.T) {
	dir := t.TempDir()
	lg, rec := openTest(t, dir)
	if rec.Snapshot != nil || len(rec.Records) != 0 || rec.Truncated {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	lg.Append(testRecord(0))
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec = openTest(t, dir)
	if len(rec.Records) != 1 {
		t.Fatalf("recovered %d records after close, want 1", len(rec.Records))
	}
}

// TestLogAppendSyncRecover: records survive Sync (not just Close) and a
// reopened log appends after them without damaging the prefix.
func TestLogAppendSyncRecover(t *testing.T) {
	dir := t.TempDir()
	lg, _ := openTest(t, dir)
	for i := 0; i < 5; i++ {
		lg.Append(testRecord(i))
	}
	if err := lg.Sync(); err != nil {
		t.Fatal(err)
	}
	lg.Crash() // synced records must survive an unflushed death

	lg2, rec := openTest(t, dir)
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records, want 5", len(rec.Records))
	}
	for i, r := range rec.Records {
		if r.Epoch != i {
			t.Fatalf("record %d has epoch %d; order not preserved", i, r.Epoch)
		}
	}
	lg2.Append(testRecord(5))
	if err := lg2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec = openTest(t, dir)
	if len(rec.Records) != 6 || rec.Records[5].Epoch != 5 {
		t.Fatalf("append after recovery: got %d records", len(rec.Records))
	}
}

// TestLogCrashLosesUnsyncedTail: records appended after the last Sync die
// with a Crash — and that is all that dies.
func TestLogCrashLosesUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	lg, _ := openTest(t, dir)
	lg.Append(testRecord(0))
	if err := lg.Sync(); err != nil {
		t.Fatal(err)
	}
	lg.Append(testRecord(1)) // never synced
	lg.Crash()
	_, rec := openTest(t, dir)
	if len(rec.Records) != 1 || rec.Records[0].Epoch != 0 {
		t.Fatalf("recovered %d records, want exactly the synced prefix", len(rec.Records))
	}
}

// TestLogSnapshotRotation: a snapshot compacts the WAL — recovery sees
// the snapshot plus only post-snapshot records, and superseded files are
// gone.
func TestLogSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	lg, _ := openTest(t, dir)
	lg.Append(testRecord(0))
	lg.Append(testRecord(1))
	state := &Snapshot{Seed: 7, NextGen: 2, Sessions: []SessionSnap{{Token: "tok-1", Gen: 2, Epoch: 1}}}
	if err := lg.Snapshot(func() (*Snapshot, error) { return state, nil }); err != nil {
		t.Fatal(err)
	}
	lg.Append(testRecord(2))
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec := openTest(t, dir)
	if rec.Snapshot == nil {
		t.Fatal("no snapshot recovered")
	}
	if rec.Snapshot.Seed != 7 || len(rec.Snapshot.Sessions) != 1 {
		t.Fatalf("snapshot content mangled: %+v", rec.Snapshot)
	}
	if rec.Snapshot.Version != SnapshotVersion || rec.Snapshot.Seq == 0 {
		t.Fatalf("snapshot version/seq not stamped: %+v", rec.Snapshot)
	}
	if len(rec.Records) != 1 || rec.Records[0].Epoch != 2 {
		t.Fatalf("recovered %d records after snapshot, want only the post-snapshot one", len(rec.Records))
	}
	entries, _ := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 { // snap-1.json + wal-2.v2
		t.Fatalf("rotation left %v, want exactly one snapshot + one live segment", names)
	}
}

// TestLogSnapshotNewerThanWALTail simulates a crash inside the rotation
// window: the snapshot was renamed into place but the superseded segment
// was not yet deleted. Recovery must return the snapshot and replay the
// stale segment's records (the caller's generation guards no-op them) —
// never lose the snapshot or double-open the log.
func TestLogSnapshotNewerThanWALTail(t *testing.T) {
	dir := t.TempDir()
	lg, _ := openTest(t, dir)
	lg.Append(testRecord(0))
	if err := lg.Snapshot(func() (*Snapshot, error) { return &Snapshot{NextGen: 1}, nil }); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	// Resurrect a stale pre-snapshot segment, as the crash would leave it.
	stale, err := appendRecord(nil, testRecord(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-1"+walExt), stale, 0o644); err != nil {
		t.Fatal(err)
	}

	lg2, rec := openTest(t, dir)
	defer lg2.Close()
	if rec.Snapshot == nil || rec.Snapshot.Seq != 1 {
		t.Fatalf("snapshot lost: %+v", rec.Snapshot)
	}
	if len(rec.Records) != 1 || rec.Records[0].Gen > rec.Snapshot.NextGen {
		t.Fatalf("stale segment should replay (guarded by gen): %d records", len(rec.Records))
	}
}

// TestLogVersionMismatch: a snapshot from a different format version is a
// clear, actionable error — not a panic, not a silent cold start.
func TestLogVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snap-3.json"), []byte(`{"version":99,"seq":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(dir, LogConfig{})
	if err == nil {
		t.Fatal("version-mismatched snapshot was accepted")
	}
	if !strings.Contains(err.Error(), "version 99") || !strings.Contains(err.Error(), fmt.Sprint(SnapshotVersion)) {
		t.Fatalf("error does not name the versions: %v", err)
	}
}

// TestLogCorruptSnapshot: a snapshot that fails to parse refuses to open
// (rename atomicity means it cannot be a crash artifact).
func TestLogCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snap-1.json"), []byte(`{"version":1,`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, LogConfig{}); err == nil {
		t.Fatal("corrupt snapshot was accepted")
	}
}

// TestLogTornTailTruncatedOnReopen: garbage at the live segment's tail is
// physically truncated before appends resume, so the recovered prefix +
// new appends replay as one clean sequence.
func TestLogTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	lg, _ := openTest(t, dir)
	lg.Append(testRecord(0))
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wal-1"+walExt)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("torn tail without newline")
	f.Close()

	lg2, rec := openTest(t, dir)
	if !rec.Truncated || len(rec.Records) != 1 {
		t.Fatalf("recovered %d records, truncated=%v", len(rec.Records), rec.Truncated)
	}
	lg2.Append(testRecord(1))
	if err := lg2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec = openTest(t, dir)
	if rec.Truncated || len(rec.Records) != 2 {
		t.Fatalf("after truncate+append: %d records, truncated=%v; want 2 clean", len(rec.Records), rec.Truncated)
	}
}

// TestLogDropCounting: a full async buffer drops records (never blocks)
// and counts every drop.
func TestLogDropCounting(t *testing.T) {
	dir := t.TempDir()
	var dropped countingCounter
	lg, _, err := Open(dir, LogConfig{FsyncInterval: time.Hour, Buffer: 1, Metrics: Metrics{Dropped: &dropped}})
	if err != nil {
		t.Fatal(err)
	}
	// Stall the writer with a capture that blocks until we release it, so
	// appends pile into the 1-slot buffer deterministically.
	hold := make(chan struct{})
	captured := make(chan struct{})
	go lg.Snapshot(func() (*Snapshot, error) {
		close(captured)
		<-hold
		return &Snapshot{}, nil
	})
	<-captured
	for i := 0; i < 10; i++ {
		lg.Append(testRecord(i))
	}
	close(hold)
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if dropped.n.Load() < 9 {
		t.Fatalf("dropped %d records with a 1-slot buffer and a stalled writer, want >= 9", dropped.n.Load())
	}
	_, rec := openTest(t, dir)
	if got := len(rec.Records) + int(dropped.n.Load()); got != 10 {
		t.Fatalf("written (%d) + dropped (%d) != appended (10)", len(rec.Records), dropped.n.Load())
	}
}
