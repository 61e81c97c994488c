package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/nu-aqualab/borges/internal/resilience"
)

// buildRun is one borges CLI run.
type buildRun struct {
	wall   time.Duration
	rssMB  float64 // the child's max RSS
	hash   string  // snapshot content hash the CLI printed
	orgs   int
	asns   int
	theta  float64
	stderr string
}

var (
	hashLine   = regexp.MustCompile(`snapshot content hash ([0-9a-f]{64})`)
	mappedLine = regexp.MustCompile(`mapped (\d+) networks into (\d+) organizations \(θ = ([0-9.]+)\)`)
)

// runBorges runs the borges CLI with args, timing the whole process
// and reading its peak RSS from the kernel's rusage.
func runBorges(ctx context.Context, bin string, args ...string) (buildRun, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	r := buildRun{wall: time.Since(start), stderr: stderr.String()}
	if err != nil {
		return r, fmt.Errorf("borges %s: %w\n%s", strings.Join(args, " "), err, r.stderr)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	m := hashLine.FindStringSubmatch(r.stderr)
	n := mappedLine.FindStringSubmatch(r.stderr)
	if m == nil || n == nil {
		return r, fmt.Errorf("borges %s: unexpected output:\n%s", strings.Join(args, " "), r.stderr)
	}
	r.hash = m[1]
	r.asns, _ = strconv.Atoi(n[1])
	r.orgs, _ = strconv.Atoi(n[2])
	r.theta, _ = strconv.ParseFloat(n[3], 64)
	return r, nil
}

// daemon is a running borgesd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
}

// startDaemon execs borgesd on a free loopback port and waits for the
// first 200 from /healthz. It returns the time from exec to that
// answer. The daemon's stdout and stderr go to the null device, so its
// request logging still runs but costs the benchmark nothing to read.
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	// A daemon must not outlive a benchmark that dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("borgesd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is not interesting: stop sends SIGTERM
		close(d.done)
	}()
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("borgesd exited before becoming healthy")
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("borgesd not healthy after 60s")
		}
		if err := resilience.Sleep(ctx, 200*time.Microsecond); err != nil {
			d.stop()
			return nil, 0, err
		}
	}
}

// stop sends SIGTERM, waits for a clean exit, and kills the daemon if
// it has not exited within ten seconds. It returns once the process is
// gone.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpuTime sums the time every thread of the process has spent on a
// CPU, from /proc/<pid>/task/*/schedstat (nanoseconds, unlike the
// 10 ms ticks of /proc/<pid>/stat). Go runtimes keep their threads,
// so the sum only grows while the process runs.
func cpuTime(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no threads under /proc/%d/task", pid)
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s", t)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad %s: %w", t, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// peakRSSMB reads the process's VmHWM (peak resident set) from /proc.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
