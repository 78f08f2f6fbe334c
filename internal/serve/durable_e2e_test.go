package serve

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/rl"
)

// The golden durability harness: a lockstep online-learning run against a
// durable daemon that dies without flushing (the in-process equivalent of
// SIGKILL), then a recovery that must hand every client its session back.
// Two independent crash+recover runs must agree bitwise — solution
// streams, replay contents, weight checksums — which pins the whole
// WAL/snapshot/recovery path: a record that round-trips inexactly, a
// map-ordered snapshot, or a recovery that loses one transition all show
// up as a diff.

func durableConfig(dir string, crash bool) Config {
	return Config{
		Seed:             123,
		Learn:            true,
		TrainInterval:    -1, // deterministic mode: TrainNow at epoch barriers only
		TrainBatch:       16,
		UpdatesPerRound:  2,
		ReplayPerSession: 200,
		SessionTTL:       time.Hour,
		Explore:          rl.EpsilonSchedule{Start: 0.8, End: 0, Decay: 25, Kind: rl.ExpDecay},
		DataDir:          dir,
		FsyncInterval:    time.Hour, // explicit Sync barriers only: timing independence
		SnapshotEvery:    -1,        // explicit SnapshotNow barriers only
		crashOnDrain:     crash,
	}
}

// startDurable boots a server on cfg and fails the test if Serve errors.
func startDurable(t testing.TB, cfg Config) (*Server, string, func()) {
	t.Helper()
	s := New(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, l) }()
	return s, l.Addr().String(), func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("Serve did not drain after cancel")
		}
	}
}

const (
	durSessions = 4
	durPhase1   = 60 // epochs before the crash
	durSnapAt   = 30 // explicit snapshot barrier (weights survive as of here)
	durPhase2   = 40 // epochs after recovery
	durN, durM  = 6, 3
	durSpouts   = 2
)

type durableResult struct {
	streams               string // phase-1 + phase-2 solution streams, all sessions
	snapActor, snapCritic uint64 // trainer checksums at the snapshot barrier
	recActor, recCritic   uint64 // trainer checksums right after recovery
	finActor, finCritic   uint64 // trainer checksums at the end of phase 2
}

func stepAll(t testing.TB, s *Server, clients []*Session, envs []*goldenEnv, streams *strings.Builder, epoch int) {
	t.Helper()
	for i, c := range clients {
		meas, _ := envs[i].measure(c.Assign())
		assign, err := c.Step(context.Background(), meas)
		if err != nil {
			t.Fatalf("epoch %d session %d: %v", epoch, i, err)
		}
		fmt.Fprintf(streams, "s%d e%d %v\n", i, epoch, assign)
	}
	s.TrainNow()
}

func dialDurable(t testing.TB, addr string, n int, wantResumed bool) []*Session {
	t.Helper()
	clients := make([]*Session, n)
	for i := range clients {
		clients[i] = NewSession(ClientConfig{
			Addr:  addr,
			Hello: HelloMsg{Topology: "durable", N: durN, M: durM, Spouts: durSpouts, Token: fmt.Sprintf("d%d", i)},
		})
		if err := clients[i].Connect(context.Background()); err != nil {
			t.Fatal(err)
		}
		if clients[i].Resumed() != wantResumed {
			t.Fatalf("session %d: resumed=%v, want %v", i, clients[i].Resumed(), wantResumed)
		}
	}
	return clients
}

// runDurableGolden drives one crash+recover cycle in dir and returns
// everything the bitwise comparison needs.
func runDurableGolden(t *testing.T, dir string) durableResult {
	t.Helper()
	var res durableResult
	var streams strings.Builder

	// ---- Phase 1: learn, snapshot mid-run, die without flushing.
	sA, addrA, crashA := startDurable(t, durableConfig(dir, true))
	clients := dialDurable(t, addrA, durSessions, false)
	envs := make([]*goldenEnv, durSessions)
	for i := range envs {
		envs[i] = newGoldenEnv(1000+int64(i), durM, durSpouts)
	}
	key := modelKey{durN, durM, durSpouts}
	for epoch := 1; epoch <= durPhase1; epoch++ {
		stepAll(t, sA, clients, envs, &streams, epoch)
		if epoch == durSnapAt {
			if err := sA.SnapshotNow(); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			sA.mu.Lock()
			mdl := sA.models[key]
			sA.mu.Unlock()
			res.snapActor, res.snapCritic = mdl.learner.checksums()
		}
	}
	if got := sA.reg.Counter("serve_wal_dropped_total").Value(); got != 0 {
		t.Fatalf("WAL dropped %d records under lockstep load; determinism claims void", got)
	}
	// Everything acknowledged is on disk; then the daemon dies between
	// fsyncs (crashOnDrain: no final snapshot, no flush).
	liveSnap, err := sA.captureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := sA.dur.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, c := range clients {
		c.Close()
	}
	crashA()

	// ---- Phase 2: recover on the same dir; every token must resume.
	// (Recovery runs inside Serve before the accept loop, so a connected
	// client proves it finished — only then are the gauges meaningful.)
	sB, addrB, shutdownB := startDurable(t, durableConfig(dir, false))
	defer shutdownB()
	clients = dialDurable(t, addrB, durSessions, true)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	if got := sB.reg.Gauge("serve_recovered_sessions").Value(); got != durSessions {
		t.Fatalf("recovered %d sessions, want %d", got, durSessions)
	}
	if got := sB.reg.Gauge("serve_recovered_models").Value(); got != 1 {
		t.Fatalf("recovered %d models, want 1", got)
	}

	// Snapshot+WAL must reconstruct exactly the dead daemon's in-memory
	// session table and replay shards (weights are point-in-time: the
	// snapshot's, asserted below).
	recSnap, err := sB.captureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(liveSnap.Sessions, recSnap.Sessions) {
		t.Fatalf("recovered session table diverges from the crashed daemon's in-memory table:\n live %+v\n rec  %+v",
			liveSnap.Sessions, recSnap.Sessions)
	}
	if liveSnap.NextGen != recSnap.NextGen {
		t.Fatalf("generation counter diverged: %d vs %d", liveSnap.NextGen, recSnap.NextGen)
	}
	if len(liveSnap.Models) != 1 || len(recSnap.Models) != 1 {
		t.Fatalf("model snapshot counts: %d vs %d", len(liveSnap.Models), len(recSnap.Models))
	}
	if !reflect.DeepEqual(liveSnap.Models[0].Shards, recSnap.Models[0].Shards) {
		t.Fatal("recovered replay shards diverge from the crashed daemon's")
	}

	sB.mu.Lock()
	mdlB := sB.models[key]
	sB.mu.Unlock()
	res.recActor, res.recCritic = mdlB.learner.checksums()

	for i, c := range clients {
		if c.Epoch() != durPhase1 {
			t.Fatalf("resumed session %d at epoch %d, want %d", i, c.Epoch(), durPhase1)
		}
	}
	if got := sB.reg.Counter("serve_sessions_resumed_total").Value(); got != durSessions {
		t.Fatalf("daemon resumed %d sessions, want %d", got, durSessions)
	}
	for epoch := durPhase1 + 1; epoch <= durPhase1+durPhase2; epoch++ {
		stepAll(t, sB, clients, envs, &streams, epoch)
	}
	res.finActor, res.finCritic = mdlB.learner.checksums()
	res.streams = streams.String()
	return res
}

// TestDurableCrashRecoveryGolden: the weights survive the crash exactly
// as of the last snapshot, and two independent crash+recover runs are
// bitwise identical end to end.
func TestDurableCrashRecoveryGolden(t *testing.T) {
	a := runDurableGolden(t, t.TempDir())
	if a.recActor != a.snapActor || a.recCritic != a.snapCritic {
		t.Fatalf("recovered weights %x/%x do not match the snapshot-time weights %x/%x",
			a.recActor, a.recCritic, a.snapActor, a.snapCritic)
	}
	b := runDurableGolden(t, t.TempDir())
	if a.snapActor != b.snapActor || a.finActor != b.finActor || a.finCritic != b.finCritic {
		t.Fatalf("weight checksums diverged across identical crash+recover runs: %x/%x vs %x/%x",
			a.finActor, a.finCritic, b.finActor, b.finCritic)
	}
	if a.streams != b.streams {
		t.Fatal(firstStreamDiff(a.streams, b.streams))
	}
}

// TestDurableFreshDirAndCleanShutdown: an empty data dir boots serving
// normally, and an orderly drain's final snapshot recovers without any
// WAL replay.
func TestDurableFreshDirAndCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	_, addr, shutdown := startDurable(t, durableConfig(dir, false))
	clients := dialDurable(t, addr, durSessions, false)
	envs := []*goldenEnv{newGoldenEnv(1, durM, durSpouts)}
	for epoch := 1; epoch <= 3; epoch++ {
		meas, _ := envs[0].measure(clients[0].Assign())
		if _, err := clients[0].Step(context.Background(), meas); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range clients {
		c.Close()
	}
	shutdown() // clean drain: final snapshot

	s2, addr2, shutdown2 := startDurable(t, durableConfig(dir, false))
	defer shutdown2()
	c := dialDurable(t, addr2, 1, true)[0]
	// All four sessions were in the final snapshot, even the three that
	// never completed an epoch (the drain snapshot captures the table
	// directly, not just journaled epochs).
	if got := s2.reg.Gauge("serve_recovered_sessions").Value(); got != durSessions {
		t.Fatalf("recovered %d sessions from the final snapshot, want %d", got, durSessions)
	}
	if c.Epoch() != 3 {
		t.Fatalf("resumed at epoch %d, want 3", c.Epoch())
	}
	c.Close()
}

// TestDurableTrailingGarbageKeepsServing: junk appended to the live WAL
// segment (torn tail, partial write) costs only the junk — recovery keeps
// the intact prefix, truncates the file, and the daemon serves and
// appends normally.
func TestDurableTrailingGarbageKeepsServing(t *testing.T) {
	dir := t.TempDir()
	sA, addrA, crashA := startDurable(t, durableConfig(dir, true))
	clients := dialDurable(t, addrA, durSessions, false)
	env := newGoldenEnv(1, durM, durSpouts)
	for epoch := 1; epoch <= 5; epoch++ {
		meas, _ := env.measure(clients[0].Assign())
		if _, err := clients[0].Step(context.Background(), meas); err != nil {
			t.Fatal(err)
		}
	}
	if err := sA.dur.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, c := range clients {
		c.Close()
	}
	crashA()

	// Smash the tail.
	wal := filepath.Join(dir, "wal-1.v2")
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("\xff\xfe torn garbage with no newline")
	f.Close()

	sB, addrB, shutdownB := startDurable(t, durableConfig(dir, false))
	defer shutdownB()
	c := dialDurable(t, addrB, 1, true)[0]
	defer c.Close()
	// Only the session that completed epochs has journaled state (the
	// crash skipped the drain snapshot); it must survive the garbage tail.
	if got := sB.reg.Gauge("serve_recovered_sessions").Value(); got != 1 {
		t.Fatalf("recovered %d sessions past the garbage tail, want 1", got)
	}
	if c.Epoch() != 5 {
		t.Fatalf("resumed at epoch %d, want 5 (intact prefix)", c.Epoch())
	}
	meas, _ := env.measure(c.Assign())
	if _, err := c.Step(context.Background(), meas); err != nil {
		t.Fatalf("serving after tail truncation: %v", err)
	}
}

// TestDurableSeedMismatchRefused: recovering a data dir under a different
// serving seed is refused with a clear error (exploration streams are
// seed-derived; mixing them would silently corrupt every session).
func TestDurableSeedMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	_, addr, shutdown := startDurable(t, durableConfig(dir, false))
	dialDurable(t, addr, 1, false)[0].Close()
	shutdown()

	cfg := durableConfig(dir, false)
	cfg.Seed = 999
	s := New(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	err = s.Serve(context.Background(), l)
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("seed mismatch not refused: %v", err)
	}
}

// TestDurableVersionMismatchRefused: the serve-level surface of the
// snapshot version check — Serve returns the explicit error instead of
// panicking or starting cold.
func TestDurableVersionMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snap-2.json"), []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(durableConfig(dir, false))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	err = s.Serve(context.Background(), l)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch not refused: %v", err)
	}
}

// TestCheckpointErrorCounter: a failing periodic checkpoint is not just a
// log line — serve_checkpoint_errors_total must expose it.
func TestCheckpointErrorCounter(t *testing.T) {
	s, addr, shutdown := startServer(t, Config{Seed: 5, Learn: true, TrainInterval: -1})
	defer shutdown()
	c := NewSession(ClientConfig{Addr: addr, Hello: HelloMsg{N: durN, M: durM, Spouts: durSpouts}})
	if err := c.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	good := t.TempDir()
	if err := s.Checkpoint(good); err != nil {
		t.Fatalf("checkpoint to a writable dir: %v", err)
	}
	if got := s.reg.Counter("serve_checkpoint_errors_total").Value(); got != 0 {
		t.Fatalf("spurious checkpoint errors: %d", got)
	}
	bad := filepath.Join(good, "missing", "sub")
	if err := s.Checkpoint(bad); err == nil {
		t.Fatal("checkpoint into a nonexistent dir succeeded")
	}
	if got := s.reg.Counter("serve_checkpoint_errors_total").Value(); got != 1 {
		t.Fatalf("serve_checkpoint_errors_total = %d, want 1", got)
	}
}
