package main

import (
	"math/rand"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

// TestPercentileAgainstOracle checks the order-statistic code against the
// definition computed by brute force: the smallest sample with at least
// q·n samples at or below it.
func TestPercentileAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 9, 10, 100, 1001} {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(rng.Intn(50)) // ties on purpose
		}
		sorted := slices.Sorted(slices.Values(v))
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
			want := int64(-1)
			for _, x := range sorted {
				atOrBelow := 0
				for _, y := range v {
					if y <= x {
						atOrBelow++
					}
				}
				if float64(atOrBelow) >= q*float64(n) {
					want = x
					break
				}
			}
			if got := percentile(sorted, q); got != want {
				t.Errorf("n=%d q=%g: percentile=%d, oracle=%d", n, q, got, want)
			}
		}
	}
	if q := highestPercentile(188260); q != 0.9999 {
		t.Errorf("highestPercentile(188260) = %g, want 0.9999", q)
	}
	if q := highestPercentile(15); q != 0 {
		t.Errorf("highestPercentile(15) = %g, want 0", q)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{10, 1, 7, 3, 9, 2, 8, 4, 6, 5}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread(v); got != 1 {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Req: 1, Start: 0, End: 100, Parent: -1},
		{Name: "a", Req: 1, Start: 10, End: 40, Parent: 0},
		{Name: "b", Req: 1, Start: 30, End: 60, Parent: 0}, // overlaps a: counted once
		{Name: "a.1", Req: 1, Start: 15, End: 20, Parent: 1},
	}
	self := selfTimes(spans)
	if want := []int64{50, 25, 30, 5}; !slices.Equal(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

// TestSpecLimits holds BENCHMARK.json to the limits a benchmark file has.
func TestSpecLimits(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if _, err := workloadFor(w.Name, 1); err != nil {
			t.Error(err)
		}
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
}

// TestReplaySpans checks the traced stage replay: every request's spans
// share its id and nest inside its root, and self times never exceed the
// parent's duration.
func TestReplaySpans(t *testing.T) {
	w, err := workloadFor("serve-durable", 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(1 << 12)
	const n = 300
	rp, err := replayStages(w.serve, 3, n, 16, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if rp.checkErr != nil {
		t.Error(rp.checkErr)
	}
	roots := map[int64]int{}
	for i, s := range tr.spans {
		if s.End < s.Start {
			t.Fatalf("span %d %s never ended", i, s.Name)
		}
		if s.Name == "replay.request" {
			roots[s.Req] = i
		}
	}
	if len(roots) != n {
		t.Fatalf("%d request roots, want %d", len(roots), n)
	}
	stages := map[string]int{}
	for _, s := range tr.spans {
		if s.Parent < 0 {
			continue
		}
		p := tr.spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("%s [%d,%d] not inside its parent %s [%d,%d]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if p.Name == "replay.request" {
			if s.Req != p.Req || int(s.Parent) != roots[s.Req] {
				t.Errorf("%s of request %d hangs under request %d", s.Name, s.Req, p.Req)
			}
			stages[s.Name]++
		}
	}
	for _, name := range []string{"replay.decode", "replay.state", "replay.knn", "replay.journal", "replay.encode"} {
		if stages[name] != n {
			t.Errorf("%d %s spans, want one per request (%d)", stages[name], name, n)
		}
	}
	for i, self := range selfTimes(tr.spans) {
		if d := tr.spans[i].End - tr.spans[i].Start; self < 0 || self > d {
			t.Errorf("span %d %s: self time %d outside [0, %d]", i, tr.spans[i].Name, self, d)
		}
	}
	if sum := rp.sum(); sum <= 0 || rp.journal <= 0 {
		t.Errorf("replay sum %g µs, journal %g µs", sum, rp.journal)
	}
}

func TestJudge(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		b := make([]float64, len(a))
		for i := range a {
			b[i] = a[i] * f
		}
		return b
	}
	for _, c := range []struct {
		b      []float64
		higher bool
		want   verdict
	}{
		{shift(1.0), false, unchanged},
		{shift(1.2), false, regressed},
		{shift(0.9), false, improved},
		{shift(0.9), true, regressed},
		{shift(1.02), false, unchanged},
		{[]float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}, false, unresolved},
	} {
		if got := judge(a, c.b, c.higher, 0.05).Verdict; got != c.want {
			t.Errorf("judge(higher=%v, b[0]=%g) = %s, want %s", c.higher, c.b[0], got, c.want)
		}
	}
}

// TestReducedScale runs every workload, untraced and traced, at a small
// fraction of the real length and asserts that exactly the metrics named
// in BENCHMARK.json come out, once each, from a run whose checks pass.
func TestReducedScale(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns agentd")
	}
	e, err := setup()
	if err != nil {
		t.Fatal(err)
	}
	e.outDir = t.TempDir()
	e.probeBatch = 100 * time.Microsecond
	t.Setenv("GOMAXPROCS", "1")
	const seconds = 0.3
	for _, ws := range e.spec.Workloads {
		w, err := workloadFor(ws.Name, seconds)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			rec, err := e.runWorkload(w, 5, seconds, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", ws.Name, traced, err)
			}
			want := e.spec.EndToEnd
			if traced {
				want = e.spec.PerLayer
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%v",
					ws.Name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Notes)
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", ws.Name, traced, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s not emitted", ws.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: unit %q, want %q", m.Name, got.Unit, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s traced=%v: end-to-end metric %s = %g, must never be 0", ws.Name, traced, m.Name, got.Value)
				}
			}
		}
		if _, err := os.Stat(e.outDir + "/trace-" + ws.Name + ".json"); err != nil {
			t.Errorf("%s: no span file: %v", ws.Name, err)
		}
	}
	if left, _ := os.ReadDir(e.tmp); len(left) != 0 {
		t.Errorf("%d data directories left under %s", len(left), e.tmp)
	}
}
