package serve

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/rl"
)

// One immutable state vector per epoch: the vector encoded for epoch t is
// transition t's NextState, the pending prevState, and transition t+1's
// State — the same backing array, never copied and never written again.
// These tests pin both halves: the sharing is real (on the live path and
// on WAL replay), and nothing writes through it.

// assertChained fails unless every adjacent pair in ts shares its middle
// state vector: ts[i].NextState and ts[i+1].State are one array.
func assertChained(t *testing.T, what string, ts []rl.Transition) {
	t.Helper()
	if len(ts) < 2 {
		t.Fatalf("%s: %d transitions, nothing to compare", what, len(ts))
	}
	for i := 0; i+1 < len(ts); i++ {
		if &ts[i].NextState[0] != &ts[i+1].State[0] {
			t.Fatalf("%s: transition %d's NextState and transition %d's State are separate copies", what, i, i+1)
		}
	}
}

func transitionBits(ts []rl.Transition) []uint64 {
	var bits []uint64
	for _, tr := range ts {
		for _, v := range [][]float64{tr.State, tr.Action, {tr.Reward}, tr.NextState} {
			for _, x := range v {
				bits = append(bits, math.Float64bits(x))
			}
		}
	}
	return bits
}

func TestStateVectorSharedNotWrittenThrough(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, true)
	cfg.TrainInterval = time.Millisecond // the trainer samples the shared vectors while epochs run (-race)
	sA, addrA, crashA := startDurable(t, cfg)
	clients := dialDurable(t, addrA, 2, false)
	envs := []*goldenEnv{newGoldenEnv(1, durM, durSpouts), newGoldenEnv(2, durM, durSpouts)}
	step := func(n int) {
		t.Helper()
		for e := 0; e < n; e++ {
			for i, c := range clients {
				meas, _ := envs[i].measure(c.Assign())
				if _, err := c.Step(context.Background(), meas); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	step(30)
	replay := sA.model(modelKey{durN, durM, durSpouts}).learner.replay
	before := replay.Export()
	var want [][]uint64
	for _, sh := range before {
		assertChained(t, "live shard "+sh.Key, sh.Trans)
		want = append(want, transitionBits(sh.Trans))
	}

	// 50 more live epochs, a snapshot capture in the middle: the exported
	// transitions (same backing arrays as the buffer's) must not move a bit.
	step(25)
	if err := sA.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	step(25)
	for i, sh := range before {
		got := transitionBits(sh.Trans)
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("shard %s: stored transition bits changed under later epochs (word %d)", sh.Key, j)
			}
		}
	}
	live := replay.Export()
	if err := sA.dur.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, c := range clients {
		c.Close()
	}
	crashA()

	// WAL replay shares the same way, and rebuilds the same bits. (The
	// snapshot's transitions decode into their own arrays; the 25 epochs
	// replayed from the WAL after it are the chained ones.)
	sB, addrB, shutdownB := startDurable(t, durableConfig(dir, false))
	defer shutdownB()
	for _, c := range dialDurable(t, addrB, 2, true) { // a resumed hello proves recovery finished
		c.Close()
	}
	rec := sB.model(modelKey{durN, durM, durSpouts}).learner.replay.Export()
	if len(rec) != len(live) {
		t.Fatalf("recovered %d shards, want %d", len(rec), len(live))
	}
	for i, sh := range rec {
		assertChained(t, "replayed shard "+sh.Key, sh.Trans[len(sh.Trans)-24:])
		got, want := transitionBits(sh.Trans), transitionBits(live[i].Trans)
		if len(got) != len(want) {
			t.Fatalf("shard %s: recovered %d words, want %d", sh.Key, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("shard %s: recovered transition bits differ at word %d", sh.Key, j)
			}
		}
	}
}

// TestRecoveryGaugeCoversScan: serve_recovery_ms is what a client waits
// for — Open's scan and decode plus the replay — so it can never read
// less than a bare durable.Recover of the same directory. (Frozen
// weights: the replay is then a table upsert per record, far cheaper than
// the scan, so a gauge that timed only the replay would fail here.)
func TestRecoveryGaugeCoversScan(t *testing.T) {
	dir := t.TempDir()
	lg, _, err := durable.Open(dir, durable.LogConfig{FsyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	const records = 200_000
	assign := make([]int, durN)
	for i := 0; i < records; i++ {
		lg.AppendBlocking(&durable.Record{
			T: durable.RecEpoch, Token: "d0", Key: durable.SessionKey{N: durN, M: durM, Spouts: durSpouts},
			Gen: uint64(i + 1), Epoch: i + 1, Assign: assign,
		})
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	s, addr, shutdown := startDurable(t, Config{Seed: 1, DataDir: dir, SnapshotEvery: -1})
	defer shutdown()
	dialDurable(t, addr, 1, true)[0].Close() // a resumed hello proves recovery finished
	gauge := s.reg.Gauge("serve_recovery_ms").Value()

	// The page cache is warm by now, so this bare scan is the quick one.
	scan := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		start := time.Now()
		rec, _, err := durable.Recover(dir, durable.LogConfig{})
		if err != nil || len(rec.Records) != records {
			t.Fatalf("Recover: %d records, err %v", len(rec.Records), err)
		}
		scan = min(scan, time.Since(start))
	}
	if gauge < scan.Milliseconds() {
		t.Fatalf("serve_recovery_ms = %d, below the %v a bare durable.Recover of the same directory takes", gauge, scan)
	}
}
