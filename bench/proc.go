package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// Deadlines. A child that outlives its deadline is killed and the run
// fails: a hung binary must read as a failure, never as a slow number.
const (
	childDeadline  = 150 * time.Second
	healthDeadline = 30 * time.Second
	drainDeadline  = 15 * time.Second
)

// janitor owns everything a run leaves behind if it dies: started
// children and temp directories. Every error path, and SIGINT/SIGTERM,
// ends in sweep.
type janitor struct {
	mu    sync.Mutex
	procs map[*exec.Cmd]<-chan struct{} // closed once the child was waited for
	dirs  map[string]struct{}
}

var cleanup = &janitor{procs: map[*exec.Cmd]<-chan struct{}{}, dirs: map[string]struct{}{}}

// addProc registers a started child; reaped is closed by whoever calls
// cmd.Wait, after it returns.
func (j *janitor) addProc(c *exec.Cmd, reaped <-chan struct{}) {
	j.mu.Lock()
	j.procs[c] = reaped
	j.mu.Unlock()
}

func (j *janitor) doneProc(c *exec.Cmd) {
	j.mu.Lock()
	delete(j.procs, c)
	j.mu.Unlock()
}

// tempDir creates a directory under parent that sweep removes.
func (j *janitor) tempDir(parent, pattern string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(parent, pattern)
	if err != nil {
		return "", err
	}
	j.mu.Lock()
	j.dirs[dir] = struct{}{}
	j.mu.Unlock()
	return dir, nil
}

// removeDir deletes a temp directory now.
func (j *janitor) removeDir(dir string) error {
	j.mu.Lock()
	delete(j.dirs, dir)
	j.mu.Unlock()
	return os.RemoveAll(dir)
}

// sweep kills every live child and waits until each has ended, then
// removes every temp directory. It reports how many children it had to
// kill.
func (j *janitor) sweep() int {
	j.mu.Lock()
	procs := j.procs
	dirs := make([]string, 0, len(j.dirs))
	for d := range j.dirs {
		dirs = append(dirs, d)
	}
	j.procs = map[*exec.Cmd]<-chan struct{}{}
	j.dirs = map[string]struct{}{}
	j.mu.Unlock()
	for c := range procs {
		_ = c.Process.Kill() // already exited is fine
	}
	for _, reaped := range procs {
		<-reaped
	}
	for _, d := range dirs {
		_ = os.RemoveAll(d) // best effort on the way out
	}
	return len(procs)
}

// sweepOnSignal makes SIGINT/SIGTERM clean up and exit 130.
func sweepOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		cleanup.sweep()
		os.Exit(130)
	}()
}

// stampWriter buffers a child's output and notes when its first line
// was complete. os/exec writes to it from one goroutine and Wait returns
// only after that goroutine is done, so it needs no lock.
type stampWriter struct {
	buf   bytes.Buffer
	start time.Time
	first time.Duration
}

func (w *stampWriter) Write(p []byte) (int, error) {
	if w.first == 0 && bytes.IndexByte(p, '\n') >= 0 {
		w.first = time.Since(w.start)
	}
	return w.buf.Write(p)
}

// childRun is one finished child process.
type childRun struct {
	Wall      time.Duration
	CPU       time.Duration // user + system
	MaxRSSKB  int64
	FirstLine time.Duration // start to first complete stdout line
	Stdout    []byte
	Stderr    []byte
}

func usage(ps *os.ProcessState) (cpu time.Duration, maxRSSKB int64) {
	cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		maxRSSKB = int64(ru.Maxrss)
	}
	return cpu, maxRSSKB
}

// tail returns the last few hundred bytes of a child's stderr for an
// error message.
func tail(b []byte) string {
	const n = 400
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(bytes.TrimSpace(b))
}

// runChild runs a binary to completion. A non-zero exit or a blown
// deadline is an error.
func runChild(bin string, args ...string) (*childRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childDeadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	out := &stampWriter{}
	var errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = out, &errBuf
	start := time.Now()
	out.start = start
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	reaped := make(chan struct{})
	cleanup.addProc(cmd, reaped)
	err := cmd.Wait()
	wall := time.Since(start)
	close(reaped)
	cleanup.doneProc(cmd)
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%s: killed after %v deadline", bin, childDeadline)
		}
		return nil, fmt.Errorf("%s %v: %w: %s", bin, args, err, tail(errBuf.Bytes()))
	}
	cpu, rss := usage(cmd.ProcessState)
	return &childRun{
		Wall: wall, CPU: cpu, MaxRSSKB: rss, FirstLine: out.first,
		Stdout: out.buf.Bytes(), Stderr: errBuf.Bytes(),
	}, nil
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the server binds it; nothing else on a benchmark host
// races for the port in between.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// server is a running ixpserve.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	exited chan struct{}
	err    error // cmd.Wait's result, valid once exited is closed
}

// startServer launches ixpserve over dir and waits for /healthz.
func startServer(bin, dir string, cacheWeeks int) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-in", dir, "-addr", addr, "-cache-weeks", strconv.Itoa(cacheWeeks))
	s.cmd.Stdout, s.cmd.Stderr = io.Discard, &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	cleanup.addProc(s.cmd, s.exited)
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(healthDeadline)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // liveness only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return s, nil
			}
		}
		select {
		case <-s.exited:
			cleanup.doneProc(s.cmd)
			return nil, fmt.Errorf("ixpserve exited before /healthz answered: %v: %s", s.err, tail(s.stderr.Bytes()))
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("ixpserve: no /healthz 200 within %v", healthDeadline)
		}
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.exited
	cleanup.doneProc(s.cmd)
}

// stop sends SIGTERM and waits for the graceful drain. A server that
// does not exit 0 within the deadline is killed and reported: a
// leftover ixpserve is a failed run.
func (s *server) stop() (drain, cpu time.Duration, maxRSSKB int64, err error) {
	start := time.Now()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return 0, 0, 0, fmt.Errorf("ixpserve: SIGTERM: %w", err)
	}
	select {
	case <-s.exited:
	case <-time.After(drainDeadline):
		s.kill()
		return 0, 0, 0, fmt.Errorf("ixpserve still running %v after SIGTERM; killed", drainDeadline)
	}
	drain = time.Since(start)
	cleanup.doneProc(s.cmd)
	if s.err != nil {
		return drain, 0, 0, fmt.Errorf("ixpserve drain: %w: %s", s.err, tail(s.stderr.Bytes()))
	}
	cpu, maxRSSKB = usage(s.cmd.ProcessState)
	return drain, cpu, maxRSSKB, nil
}

// get fetches one URL and returns status and body.
func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// mustGet is get that turns a non-200 into an error.
func mustGet(c *http.Client, url string) ([]byte, error) {
	code, body, err := get(c, url)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", url, code)
	}
	return body, nil
}
