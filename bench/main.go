// Command bench is the repository's benchmark: it builds agentd, runs one
// of four workloads from a seed, checks the outputs, and prints every metric
// named in BENCHMARK.json. See README.md in this directory.
//
//	bash bench/run.sh --workload serve-sat --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh                         # all four workloads
//	bash bench/run.sh --compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// value is one measured metric before it is given its unit.
type value struct {
	v float64
	n int // samples behind the figure
}

// metricOut is a metric as printed: the last stdout line carries value and
// unit only, the results file also the sample count.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// runRecord is one line of the results file -compare reads.
type runRecord struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Seconds    float64              `json:"seconds"`
	Trace      int                  `json:"trace"`
	NProc      int                  `json:"nproc"`
	SharedCore bool                 `json:"shared_core"`
	Correct    bool                 `json:"correct"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Metrics    map[string]metricOut `json:"metrics"`
	Notes      []string             `json:"notes,omitempty"`
}

// env is what every workload run needs from the checkout.
type env struct {
	spec   *benchSpec
	agentd string // built daemon
	tmp    string // scratch for data dirs, inside the checkout
	outDir string // results and traces

	probeBatch time.Duration // batch length of the layer probes
}

// findRoot walks up from the working directory to the one holding
// BENCHMARK.json: the driver runs from the root, `go test` from bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// setup locates the checkout and builds agentd into .bench_build/ with a
// build cache inside the checkout. The build is outside every timer.
func setup() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{
		spec:   spec,
		agentd: filepath.Join(build, "agentd"),
		tmp:    filepath.Join(build, "tmp"),
		outDir: filepath.Join(root, spec.Paths[0], "out"),

		probeBatch: probeBatch,
	}
	cmd := exec.Command("go", "build", "-o", e.agentd, "./cmd/agentd")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod",
		"GOCACHE="+filepath.Join(build, "go-cache"), "XDG_CONFIG_HOME="+filepath.Join(build, "config"))
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building agentd: %w\n%s", err, out)
	}
	// A crashed earlier run may have left data dirs behind.
	if err := os.RemoveAll(e.tmp); err != nil {
		return nil, err
	}
	return e, os.MkdirAll(e.outDir, 0o755)
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "all", "workload to run: serve-sat|serve-lone|serve-durable|repro|all")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 0, "how long one run measures (0 = run_seconds from BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics, span files under out/")
		compare = flag.Bool("compare", false, "compare two results files: -compare A.jsonl B.jsonl")
		out     = flag.String("out", "", "results file to append to (default <paths[0]>/out/results.jsonl)")
	)
	flag.Parse()
	if *compare {
		return compareMain(flag.Args())
	}

	e, err := setup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = float64(e.spec.RunSeconds)
	}
	if *out == "" {
		*out = filepath.Join(e.outDir, "results.jsonl")
	}
	// One busy thread per process: the generator here, the daemon in its
	// child (which inherits the variable).
	runtime.GOMAXPROCS(1)
	if err := os.Setenv("GOMAXPROCS", "1"); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	// SIGINT/SIGTERM: kill children and remove data dirs before exiting.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		killChildren()
		_ = os.RemoveAll(e.tmp) // interrupted: nothing left to report to
		os.Exit(130)
	}()

	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range e.spec.Workloads {
			names = append(names, w.Name)
		}
	}
	code := 0
	for _, n := range names {
		w, err := workloadFor(n, *seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		rec, err := e.runWorkload(w, *seed, *seconds, *trace != 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
			_ = os.RemoveAll(e.tmp) // the run's error is the one to report
			return 1
		}
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printRecord(rec)
		if !rec.Correct {
			code = 1
		}
	}
	if err := os.RemoveAll(e.tmp); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return code
}

// printRecord prints the table of metrics and then, as the last line, the
// result object the driver reads.
func printRecord(rec *runRecord) {
	fmt.Printf("# %s seed=%d seconds=%g trace=%d nproc=%d shared_core=%v\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.NProc, rec.SharedCore)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Printf("%-42s %16.6g %-6s n=%d\n", n, m.Value, m.Unit, m.N)
	}
	for _, note := range rec.Notes {
		fmt.Println("#", note)
	}
	final := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]metricOut{}}
	for n, m := range rec.Metrics {
		final.Metrics[n] = metricOut{Value: m.Value, Unit: m.Unit}
	}
	line, _ := json.Marshal(final) // plain data: cannot fail
	fmt.Println(string(line))
}

func appendRecord(path string, rec *runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// emit turns measured values into the metrics BENCHMARK.json names for this
// mode — every one of them, exactly once — and marks the run invalid when a
// value is missing or not a finite number.
func emit(specs []metricSpec, vals map[string]value, rec *runRecord) {
	for _, s := range specs {
		v, ok := vals[s.Name]
		if !ok || math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			rec.Correct = false
			rec.Notes = append(rec.Notes, fmt.Sprintf("INVALID: no finite value for %s", s.Name))
			v = value{}
		}
		rec.Metrics[s.Name] = metricOut{Value: v.v, Unit: s.Unit, N: v.n}
	}
}
