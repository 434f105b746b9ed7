package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"snmatch/internal/features"
	"snmatch/internal/pipeline"
	"snmatch/internal/serve/snapshot"
)

// setupTimes is one server set-up, split by layer.
type setupTimes struct {
	total   time.Duration // gallery render to first /healthz 200
	gallery time.Duration // NewGalleryWorkers + PrepareDescriptorsWorkers
	index   time.Duration // flat index build + SetIndexSpec
	save    time.Duration // snapshot.Save
	boot    time.Duration // snserve exec to first /healthz 200
	bytes   int64         // snapshot file size
	steal   float64       // the machine's CPU steal (%) over the set-up's burst
}

// setUp renders and prepares the workload's gallery, saves it as a
// snapshot at path, and boots snserve on it. The caller owns the
// returned server and must stop it.
func setUp(ctx context.Context, w *workload, bin, path, logPath string, gomaxprocs int) (*server, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	g := pipeline.NewGalleryWorkers(w.gallery(), 0)
	params := pipeline.DefaultDescriptorParams()
	if w.hasDesc {
		g.PrepareDescriptorsWorkers(w.descriptor, params, 0)
	}
	st.gallery = time.Since(t0)

	// PrepareDescriptorsWorkers builds the flat index as its last step;
	// rebuilding it from the prepared sets times that step on its own.
	t := time.Now()
	if w.hasDesc {
		sets := make([]*features.Set, g.Len())
		for i := range g.Views {
			sets[i] = g.Views[i].Desc[w.descriptor]
		}
		pipeline.NewDescriptorIndex(sets)
	}
	spec := pipeline.IndexSpec{Kind: pipeline.ExactKind}
	if err := g.SetIndexSpec(spec); err != nil {
		return nil, st, err
	}
	st.index = time.Since(t)

	t = time.Now()
	snap := &snapshot.Snapshot{Name: w.meta.Dataset, Meta: w.meta, Gallery: g}
	if err := snapshot.Save(path, snap); err != nil {
		return nil, st, fmt.Errorf("save snapshot: %w", err)
	}
	st.save = time.Since(t)
	fi, err := os.Stat(path)
	if err != nil {
		return nil, st, err
	}
	st.bytes = fi.Size()

	t = time.Now()
	srv, err := startServer(ctx, bin, path, logPath, gomaxprocs)
	if err != nil {
		return nil, st, err
	}
	st.boot = time.Since(t)
	st.total = time.Since(t0)
	return srv, st, nil
}

// server is a running snserve child process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:PORT
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// startServer execs snserve on the snapshot and waits for /healthz.
func startServer(ctx context.Context, bin, snapPath, logPath string, gomaxprocs int) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-snapshot", snapPath, "-mmap",
		"-shards", strconv.Itoa(serveShards),
		"-index", serveIndex,
		"-workers", "0")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), exited: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitHealthy(ctx, 30*time.Second); err != nil {
		s.stop()
		return nil, fmt.Errorf("%w (server log: %s)", err, logPath)
	}
	return s, nil
}

func (s *server) waitHealthy(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("snserve exited during boot: %v", s.err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return errors.New("snserve did not become healthy")
		}
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// does not exit in time. It returns once the process has exited.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // a failure means it already exited
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime returns the process's user+system CPU time.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name (which may hold
	// spaces): state is field 3, utime 14 and stime 15.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	stt, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat: %w", pid, err)
	}
	return time.Duration(ut+stt) * time.Second / clockTicks, nil
}

// peakRSS returns the process's VmHWM in bytes.
func peakRSS(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb << 10, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
