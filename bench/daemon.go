package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"resilientfusion/fusionclient"
)

// repoRoot walks up from the working directory to the directory whose
// go.mod declares the resilientfusion module: the benchmark runs from
// bench/ (run.sh, go run -C bench .) or from the root.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module resilientfusion\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("resilientfusion module root not found above the working directory")
		}
		dir = parent
	}
}

// janitor owns every child process and scratch directory of a run, so
// one sweep — at exit or on SIGINT/SIGTERM — leaves nothing behind.
type janitor struct {
	sweeping sync.Mutex

	mu    sync.Mutex
	procs []*exec.Cmd
	dirs  []string
}

func (j *janitor) addProc(c *exec.Cmd) {
	j.mu.Lock()
	j.procs = append(j.procs, c)
	j.mu.Unlock()
}

func (j *janitor) addDir(d string) {
	j.mu.Lock()
	j.dirs = append(j.dirs, d)
	j.mu.Unlock()
}

// stop ends one child: SIGTERM, a grace period for fusiond's drain,
// then SIGKILL; it returns once the process has been reaped.
func stop(c *exec.Cmd) {
	if c.ProcessState != nil {
		return
	}
	_ = c.Process.Signal(syscall.SIGTERM) // already-exited is fine: Wait below reaps it
	done := make(chan struct{})
	go func() {
		_ = c.Wait() // exit status of a signalled daemon carries no information
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = c.Process.Kill()
		<-done
	}
}

func (j *janitor) sweep() {
	// The signal handler and main's deferred sweep may both arrive; the
	// second must not return (and let the process exit) mid-sweep.
	j.sweeping.Lock()
	defer j.sweeping.Unlock()
	j.mu.Lock()
	procs, dirs := j.procs, j.dirs
	j.procs, j.dirs = nil, nil
	j.mu.Unlock()
	// Workers first, so fusiond's drain does not wait on a live fleet.
	for i := len(procs) - 1; i >= 0; i-- {
		stop(procs[i])
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// buildDaemons compiles cmd/fusiond and cmd/fusionworkerd from the
// checkout's source into dir.
func buildDaemons(root, dir string) (fusiond, workerd string, err error) {
	fusiond = filepath.Join(dir, "fusiond")
	workerd = filepath.Join(dir, "fusionworkerd")
	for _, b := range []struct{ out, pkg string }{{fusiond, "./cmd/fusiond"}, {workerd, "./cmd/fusionworkerd"}} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return "", "", fmt.Errorf("go build %s: %v\n%s", b.pkg, err, out)
		}
	}
	return fusiond, workerd, nil
}

// freePort asks the kernel for an unused loopback port and releases it
// for a daemon to claim.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// deployment is one booted fusiond (plus its worker fleet in cluster
// mode) with a client pointed at it.
type deployment struct {
	procs  []*exec.Cmd // fusiond first
	client *fusionclient.Client
	base   string // http://127.0.0.1:<port>
	dir    string // this boot's state: temp spool, -spool, -journal
	// readyS is daemon exec → /v2/stats answering (and, in cluster
	// mode, the whole fleet live).
	readyS float64
}

func (d *deployment) pids() []int {
	pids := make([]int, len(d.procs))
	for i, c := range d.procs {
		pids[i] = c.Process.Pid
	}
	return pids
}

func (d *deployment) shutdown() {
	for i := len(d.procs) - 1; i >= 0; i-- {
		stop(d.procs[i])
	}
	os.RemoveAll(d.dir)
}

// boot starts the workload's daemons on free loopback ports with
// GOMAXPROCS = nproc and polls /v2/stats until they answer.
func (e *env) boot(ctx context.Context, w *workload) (*deployment, error) {
	dir, err := os.MkdirTemp(e.work, "boot-")
	if err != nil {
		return nil, err
	}
	d := &deployment{dir: dir}
	e.jan.addDir(dir)
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-log-level", "debug"}
	var clusterAddr string
	if w.cluster {
		cport, err := freePort()
		if err != nil {
			return nil, err
		}
		clusterAddr = fmt.Sprintf("127.0.0.1:%d", cport)
	}
	args = append(args, w.daemonArgs(dir, clusterAddr)...)

	start := func(bin string, args ...string) (*exec.Cmd, error) {
		cmd := exec.Command(bin, args...)
		cmd.Stderr = e.log
		// A default (temp) spool lands under TMPDIR: keep it inside this
		// boot's directory, on the checkout's filesystem.
		cmd.Env = append(os.Environ(),
			"GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()), "TMPDIR="+dir)
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		e.jan.addProc(cmd)
		d.procs = append(d.procs, cmd)
		return cmd, nil
	}

	t0 := time.Now()
	if _, err := start(e.fusiond, args...); err != nil {
		return nil, err
	}
	d.base = fmt.Sprintf("http://127.0.0.1:%d", port)
	d.client = fusionclient.New(d.base)
	if _, err := d.waitStats(ctx, func(*fusionclient.Stats) bool { return true }); err != nil {
		return nil, fmt.Errorf("fusiond not ready: %w", err)
	}
	if w.cluster {
		for i := 0; i < clusterWorkers; i++ {
			if _, err := start(e.workerd, "-connect", clusterAddr, "-log-level", "debug"); err != nil {
				return nil, err
			}
		}
		_, err := d.waitStats(ctx, func(st *fusionclient.Stats) bool {
			return st.Cluster != nil && st.Cluster.LiveWorkers == clusterWorkers
		})
		if err != nil {
			return nil, fmt.Errorf("worker fleet not live: %w", err)
		}
	}
	d.readyS = time.Since(t0).Seconds()
	return d, nil
}

// waitStats polls /v2/stats until ok accepts a snapshot, a daemon
// exits, or 30 s pass.
func (d *deployment) waitStats(ctx context.Context, ok func(*fusionclient.Stats) bool) (*fusionclient.Stats, error) {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	var last error
	for {
		st, err := d.client.Stats(ctx)
		if err == nil && ok(st) {
			return st, nil
		}
		if err != nil {
			last = err
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%w (last error: %v)", ctx.Err(), last)
		case <-tick.C:
		}
	}
}

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTick = 100

// procCPU reads a process's consumed user and system CPU seconds.
func procCPU(pid int) (user, sys float64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// comm may hold spaces and parentheses; fields resume after the last ')'.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: short record", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64) // field 14: utime
	st, err2 := strconv.ParseFloat(f[12], 64) // field 15: stime
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return ut / clockTick, st / clockTick, nil
}

// cpu sums procCPU over the deployment's processes.
func (d *deployment) cpu() (user, sys float64, err error) {
	for _, pid := range d.pids() {
		u, s, err := procCPU(pid)
		if err != nil {
			return 0, 0, err
		}
		user += u
		sys += s
	}
	return user, sys, nil
}

// peakRSSMB reads fusiond's resident-set high-water mark.
func (d *deployment) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.procs[0].Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmHWM not in /proc status")
}

// cpuModel is the host's CPU model name, for the run header.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
