package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
)

// daemon is one agentd child with its own ports and data directory. Every
// island gets a fresh one: a reused durable+learn daemon slows from run to
// run as its session table and replay grow.
type daemon struct {
	proc     *chaos.Proc
	log      *daemonLog
	addr     string // session listener
	httpAddr string // /metrics
	dir      string // temp dir owning the data dir; removed by stop
}

// children lists the daemons currently alive, for the signal handler.
var children = struct {
	sync.Mutex
	m map[*daemon]struct{}
}{m: map[*daemon]struct{}{}}

// killChildren SIGKILLs every live daemon (interrupt path).
func killChildren() {
	children.Lock()
	defer children.Unlock()
	for d := range children.m {
		_ = d.proc.Kill() // exiting anyway; the kernel reaps what is left
	}
}

// daemonLog collects the child's stderr and signals when a line containing
// the listen banner arrives.
type daemonLog struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	banner string
	seen   chan struct{}
}

func (l *daemonLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if l.seen != nil && bytes.Contains(l.buf.Bytes(), []byte(l.banner)) {
		close(l.seen)
		l.seen = nil
	}
	return len(p), nil
}

// arm resets the log and returns a channel closed at the next banner.
func (l *daemonLog) arm() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Reset()
	ch := make(chan struct{})
	l.seen = ch
	return ch
}

func (l *daemonLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// newDaemon prepares (but does not start) an agentd under tmpRoot.
func newDaemon(bin, tmpRoot string, durable bool) (*daemon, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "agentd-")
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err // dir goes with tmpRoot when the run ends
	}
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-listen", addr, "-http", httpAddr}
	if durable {
		args = append(args, "-learn", "-data-dir", dir+"/data")
	}
	lg := &daemonLog{banner: "serving scheduler sessions on"}
	d := &daemon{
		proc: &chaos.Proc{Name: "agentd", Bin: bin, Args: args, Log: lg},
		log:  lg, addr: addr, httpAddr: httpAddr, dir: dir,
	}
	children.Lock()
	children.m[d] = struct{}{}
	children.Unlock()
	return d, nil
}

// start execs the daemon and returns once it is listening. The caller's
// timer starts before the call: exec is part of set-up and of recovery.
func (d *daemon) start() error {
	ready := d.log.arm()
	if err := d.proc.Start(); err != nil {
		return err
	}
	select {
	case <-ready:
		return nil
	case <-time.After(20 * time.Second):
		return fmt.Errorf("agentd did not listen within 20s:\n%s", d.log)
	}
}

// stop kills the child, removes its directory and fails if either the
// child or one of its ports outlives it.
func (d *daemon) stop() error {
	children.Lock()
	delete(children.m, d)
	children.Unlock()
	if d.proc.Alive() {
		if err := d.proc.Kill(); err != nil {
			return err
		}
	}
	if err := os.RemoveAll(d.dir); err != nil {
		return err
	}
	if d.proc.Alive() {
		return fmt.Errorf("agentd pid %d leaked", d.proc.Pid())
	}
	for _, a := range []string{d.addr, d.httpAddr} {
		l, err := net.Listen("tcp", a)
		if err != nil {
			return fmt.Errorf("port %s leaked: %w", a, err)
		}
		l.Close()
	}
	return nil
}

// scrapeClient keeps no idle connection to a daemon about to be killed.
var scrapeClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}

// scrape reads the daemon's /metrics exposition into a map. agentd opens
// its HTTP listener after the session listener, so early calls retry.
func (d *daemon) scrape() (map[string]float64, error) {
	var resp *http.Response
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		if resp, err = scrapeClient.Get("http://" + d.httpAddr + "/metrics"); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// daemonSample is the daemon as seen from outside at one instant.
type daemonSample struct {
	user, sys float64            // CPU seconds so far
	metrics   map[string]float64 // /metrics
}

func (d *daemon) sample() (s daemonSample, err error) {
	if s.user, s.sys, err = d.cpuSeconds(); err != nil {
		return s, err
	}
	s.metrics, err = d.scrape()
	return s, err
}

// userHZ is the unit of utime/stime in /proc/<pid>/stat; the kernel ABI
// fixes it at 100 on every Linux architecture Go runs on.
const userHZ = 100

// cpuSeconds returns the child's user and system CPU time so far.
func (d *daemon) cpuSeconds() (user, sys float64, err error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.proc.Pid()))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	line := string(raw)
	f := strings.Fields(line[strings.LastIndexByte(line, ')')+1:])
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("unexpected /proc stat line %q", raw)
	}
	u, err1 := strconv.ParseFloat(f[11], 64)
	s, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("unexpected /proc stat line %q", raw)
	}
	return u / userHZ, s / userHZ, nil
}

// rssMB returns the child's resident set size.
func (d *daemon) rssMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.proc.Pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmRSS for pid %d", d.proc.Pid())
}
