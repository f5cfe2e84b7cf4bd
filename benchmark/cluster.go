package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clusterSpec is the shape of one loopback dpqd cluster.
type clusterSpec struct {
	procs int
	hosts int
	prios int
	proto string // skeap or seap
	wal   bool
}

// tick is the daemons' activation period, stated because every latency
// below is a multiple of it.
const tick = time.Millisecond

// suspectAfter and downAfter are the failure detector's thresholds in a
// multi-daemon cluster. dpqd's defaults call a peer down after one second
// of silence; on a shared host a virtual CPU is now and then taken away
// for that long, the cluster then refuses deletes as unavailable and the
// run counts failed operations that are the host's, not the program's. No
// workload here injects a peer failure, so the detector is given slack; the
// heartbeats themselves stay at dpqd's default period and cost.
const (
	suspectAfter = 10 * time.Second
	downAfter    = 30 * time.Second
)

// cluster is a set of dpqd child processes with fixed addresses and WAL
// directories, so a killed daemon restarts into the same identity.
type cluster struct {
	spec        clusterSpec
	bin         string
	dir         string
	peerAddrs   []string
	clientAddrs []string

	mu      sync.Mutex // guards daemons: a signal handler may destroy concurrently
	daemons []*daemon
}

// daemon is one dpqd child process.
type daemon struct {
	proc     int
	cmd      *exec.Cmd
	ready    chan struct{} // closed once the daemon may be loaded
	exited   chan struct{} // closed once Wait returned
	mu       sync.Mutex
	tail     []string // last log lines, for failure reports
	summary  string   // the "served N ops ..." line of a graceful exit
	needWAL  bool     // readiness also waits for the reconcile line
	serving  bool
	reinject bool
}

// The two log lines that make a daemon ready. With -wal in a multi-daemon
// cluster the second matters: elements inserted before the restarter's
// re-injection pass are re-injected by it and delivered twice (see README,
// known defects).
const (
	lineServing  = "serving clients on"
	lineReinject = "reconcile: restarter re-injected"
)

// live tracks every cluster with running children so that a signal or a
// failure path can kill them all.
var (
	liveMu sync.Mutex
	live   = map[*cluster]bool{}
)

// killAll kills every child of every live cluster and removes their
// directories.
func killAll() {
	liveMu.Lock()
	cs := make([]*cluster, 0, len(live))
	for c := range live {
		cs = append(cs, c)
	}
	liveMu.Unlock()
	for _, c := range cs {
		c.destroy()
	}
}

// freeAddr picks a loopback address by binding port 0 and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// newCluster allocates addresses and a scratch directory; no process runs
// until start.
func newCluster(spec clusterSpec, bin, tmpRoot string) (*cluster, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "cluster-")
	if err != nil {
		return nil, err
	}
	c := &cluster{spec: spec, bin: bin, dir: dir, daemons: make([]*daemon, spec.procs)}
	for p := 0; p < spec.procs; p++ {
		pa, err := freeAddr()
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		ca, err := freeAddr()
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		c.peerAddrs = append(c.peerAddrs, pa)
		c.clientAddrs = append(c.clientAddrs, ca)
	}
	liveMu.Lock()
	live[c] = true
	liveMu.Unlock()
	return c, nil
}

func (c *cluster) walDir(proc int) string { return filepath.Join(c.dir, "wal"+strconv.Itoa(proc)) }

// start execs every daemon that is not running. It returns at once; call
// waitReady before loading the cluster.
func (c *cluster) start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for p := range c.daemons {
		if c.daemons[p] != nil {
			continue
		}
		d, err := c.startDaemon(p)
		if err != nil {
			return err
		}
		c.daemons[p] = d
	}
	return nil
}

func (c *cluster) startDaemon(proc int) (*daemon, error) {
	args := []string{
		"-proc", strconv.Itoa(proc),
		"-peers", strings.Join(c.peerAddrs, ","),
		"-client", c.clientAddrs[proc],
		"-hosts", strconv.Itoa(c.spec.hosts),
		"-prios", strconv.Itoa(c.spec.prios),
		"-proto", c.spec.proto,
		"-tick", tick.String(),
	}
	if c.spec.procs > 1 {
		args = append(args, "-clients", strings.Join(c.clientAddrs, ","),
			"-suspect-after", suspectAfter.String(), "-down-after", downAfter.String())
	}
	if c.spec.wal {
		args = append(args, "-wal", c.walDir(proc))
	}
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(c.bin, args...)
	cmd.Stdout = w
	cmd.Stderr = w
	// Own process group, so the whole group can be signalled; the death
	// signal covers a benchmark that dies without running its deferred
	// clean-up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	d := &daemon{
		proc:    proc,
		cmd:     cmd,
		ready:   make(chan struct{}),
		exited:  make(chan struct{}),
		needWAL: c.spec.wal && c.spec.procs > 1,
	}
	if err := cmd.Start(); err != nil {
		r.Close()
		w.Close()
		return nil, fmt.Errorf("exec dpqd: %w", err)
	}
	w.Close()
	go d.scan(r)
	return d, nil
}

// scan follows the daemon's output until it closes, then reaps the child.
func (d *daemon) scan(r *os.File) {
	defer close(d.exited)
	defer r.Close()
	sc := bufio.NewScanner(r)
	isReady := false
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > 40 {
			d.tail = d.tail[1:]
		}
		switch {
		case strings.Contains(line, lineServing):
			d.serving = true
		case strings.Contains(line, lineReinject):
			d.reinject = true
		case strings.Contains(line, ": served "):
			d.summary = line
		}
		now := d.serving && (d.reinject || !d.needWAL)
		d.mu.Unlock()
		if now && !isReady {
			isReady = true
			close(d.ready)
		}
	}
	d.cmd.Wait()
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// waitReady blocks until every daemon printed its readiness lines.
func (c *cluster) waitReady(timeout time.Duration) error {
	deadline := time.After(timeout)
	for _, d := range c.running() {
		select {
		case <-d.ready:
		case <-d.exited:
			return fmt.Errorf("dpqd[%d] exited before it was ready:\n%s", d.proc, d.logTail())
		case <-deadline:
			return fmt.Errorf("dpqd[%d] not ready within %v:\n%s", d.proc, timeout, d.logTail())
		}
	}
	return nil
}

// running returns the daemons that have been started and not yet stopped.
func (c *cluster) running() []*daemon {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*daemon
	for _, d := range c.daemons {
		if d != nil {
			out = append(out, d)
		}
	}
	return out
}

func (c *cluster) pids() []int {
	var out []int
	for _, d := range c.running() {
		out = append(out, d.cmd.Process.Pid)
	}
	return out
}

// cpu sums the CPU time the running daemons have consumed.
func (c *cluster) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, pid := range c.pids() {
		t, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// peakRSS sums the running daemons' peak resident sets in bytes.
func (c *cluster) peakRSS() (int64, error) {
	var sum int64
	for _, pid := range c.pids() {
		b, err := procPeakRSS(pid)
		if err != nil {
			return 0, err
		}
		sum += b
	}
	return sum, nil
}

// signal sends sig to every running daemon's process group and waits for
// the children to exit, escalating to SIGKILL after grace. It returns the
// daemons it stopped.
func (c *cluster) signal(sig syscall.Signal, grace time.Duration) []*daemon {
	c.mu.Lock()
	ds := c.daemons
	c.daemons = make([]*daemon, len(ds))
	c.mu.Unlock()
	var stopped []*daemon
	for _, d := range ds {
		if d != nil {
			syscall.Kill(-d.cmd.Process.Pid, sig)
			stopped = append(stopped, d)
		}
	}
	deadline := time.Now().Add(grace)
	for _, d := range stopped {
		select {
		case <-d.exited:
		case <-time.After(time.Until(deadline)):
			syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
			<-d.exited
		}
	}
	return stopped
}

// kill is SIGKILL for every daemon: no drain, no snapshot.
func (c *cluster) kill() { c.signal(syscall.SIGKILL, time.Second) }

// stop shuts the daemons down gracefully and returns their summary lines
// ("served N ops ... ticks=T msgs=M drained=true") and the tail of their
// logs, for the report of a run that went wrong.
func (c *cluster) stop() (summaries []string, logs string) {
	for _, d := range c.signal(syscall.SIGTERM, 5*time.Second) {
		d.mu.Lock()
		summaries = append(summaries, d.summary)
		logs += strings.Join(d.tail, "\n") + "\n"
		d.mu.Unlock()
	}
	return summaries, logs
}

// destroy kills whatever still runs and removes the scratch directory.
func (c *cluster) destroy() {
	c.kill()
	os.RemoveAll(c.dir)
	liveMu.Lock()
	delete(live, c)
	liveMu.Unlock()
}
