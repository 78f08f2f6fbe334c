package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// verdict is the outcome of comparing one (metric, workload) pairing.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	unresolved verdict = "unresolved" // run-to-run spread wider than the bound
	regressed  verdict = "regressed"
)

// comparison is one row of -compare's table.
type comparison struct {
	Workload, Metric     string
	A, B                 [3]float64 // q1, median, q3
	SpreadA, SpreadB     float64    // (q3−q1)/median
	Worse                float64    // share of A's median by which B's median is worse (negative = better)
	Bound                float64
	Wins, Losses, NA, NB int
	Verdict              verdict
}

// loadRecords reads a results file: one runRecord per line. Only untraced
// runs carry end-to-end metrics.
func loadRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

func series(recs []runRecord, workload, metric string) []float64 {
	var v []float64
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			v = append(v, m.Value)
		}
	}
	return v
}

// judge applies the rule every later change is held to. B regressed when
// its median is worse than A's by more than the bound. It improved only
// when it wins at least nine tenths of the index-aligned pairs (ties count
// for neither side) and the medians differ by more than A's own
// interquartile distance. A pairing whose spread on either side exceeds the
// bound cannot carry a "no regression" claim and is unresolved.
func judge(a, b []float64, higherBetter bool, bound float64) comparison {
	c := comparison{Bound: bound, NA: len(a), NB: len(b)}
	if len(a) < 2 || len(b) < 2 {
		c.Verdict = unresolved
		return c
	}
	c.A[0], _, c.A[2] = quartiles(a)
	c.B[0], _, c.B[2] = quartiles(b)
	c.A[1], c.B[1] = median(a), median(b)
	c.SpreadA, c.SpreadB = spread(a), spread(b)
	sign := 1.0
	if higherBetter {
		sign = -1
	}
	c.Worse = sign * (c.B[1] - c.A[1]) / c.A[1]
	for i := 0; i < min(len(a), len(b)); i++ {
		switch d := sign * (b[i] - a[i]); {
		case d < 0:
			c.Wins++
		case d > 0:
			c.Losses++
		}
	}
	switch {
	case c.Worse > bound:
		c.Verdict = regressed
	case c.SpreadA > bound || c.SpreadB > bound:
		c.Verdict = unresolved
	case -c.Worse > c.SpreadA && c.Wins*10 >= 9*(c.Wins+c.Losses) && c.Wins > 0:
		c.Verdict = improved
	default:
		c.Verdict = unchanged
	}
	return c
}

// compareSets judges every pairing of end-to-end metric and workload.
func compareSets(spec *benchSpec, a, b []runRecord) []comparison {
	var out []comparison
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			c := judge(series(a, w.Name, m.Name), series(b, w.Name, m.Name), m.Better == "higher", m.Bound)
			c.Workload, c.Metric = w.Name, m.Name
			out = append(out, c)
		}
	}
	return out
}

// compareMain implements -compare A B: exit 0 when nothing regressed, 1
// when something did, 2 on usage or I/O errors.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare A.jsonl B.jsonl")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var sets [2][]runRecord
	for i, p := range args {
		if sets[i], err = loadRecords(p); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	code := 0
	fmt.Printf("%-14s %-17s %3s %12s %7s %3s %12s %7s %8s %6s %5s  %s\n",
		"workload", "metric", "nA", "median A", "iqr A", "nB", "median B", "iqr B", "worse", "bound", "wins", "verdict")
	for _, c := range compareSets(spec, sets[0], sets[1]) {
		fmt.Printf("%-14s %-17s %3d %12.6g %6.2f%% %3d %12.6g %6.2f%% %+7.2f%% %5.1f%% %2d/%-2d  %s\n",
			c.Workload, c.Metric, c.NA, c.A[1], 100*c.SpreadA, c.NB, c.B[1], 100*c.SpreadB,
			100*c.Worse, 100*c.Bound, c.Wins, c.Wins+c.Losses, c.Verdict)
		if c.Verdict == regressed {
			code = 1
		}
	}
	return code
}
