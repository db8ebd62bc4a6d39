package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	healthTimeout = 30 * time.Second
	drainTimeout  = 15 * time.Second
	// requestTimeout bounds every HTTP call, so a hung server fails the
	// workload instead of hanging the benchmark.
	requestTimeout = 30 * time.Second
	// userHZ is the unit of the CPU times in /proc/<pid>/stat; Linux fixes
	// it at 100 on every architecture this repo builds for.
	userHZ = 100
)

// serverProc is one cmd/robustdb -serve process under test.
type serverProc struct {
	cmd     *exec.Cmd
	url     string
	http    *http.Client // scrapes and health checks; load uses per-session clients
	exited  chan struct{}
	waitErr error // valid once exited is closed
}

// startServer spawns the server with the flags a user would pass and nothing
// else — tracer, slow-query journal, fair admission and the pipelined
// executor all stay at their defaults — and waits for /healthz. The one-hour
// cooldown leaves the built-in background tenant exactly one pass, which
// finishes inside warm-up.
func startServer(bin string, w *serveWorkload, seed int64, logPath string) (*serverProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	args := []string{"-bench", "ssb", "-sf", strconv.Itoa(w.sf)}
	if w.rows > 0 {
		args = append(args, "-rows", strconv.Itoa(w.rows))
	}
	args = append(args,
		"-seed", strconv.FormatInt(seed, 10),
		"-strategy", "data-driven-chopping",
		"-cache-frac", strconv.FormatFloat(w.cacheFrac, 'g', -1, 64),
		"-kernel-workers", strconv.Itoa(kernelWorkers),
		"-serve", addr,
		"-serve-cooldown", "1h",
		"-log-level", "error")
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// If the harness dies, the server must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Start()
	if cerr := logFile.Close(); err == nil {
		err = cerr // the child holds its own descriptor
	}
	if err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &serverProc{
		cmd:    cmd,
		url:    "http://" + addr,
		http:   &http.Client{Timeout: requestTimeout},
		exited: make(chan struct{}),
	}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	deadline := now().Add(healthTimeout)
	for {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("server exited before /healthz answered (%v); see %s", s.waitErr, logPath)
		default:
		}
		if _, status, err := s.get("/healthz"); err == nil && status == http.StatusOK {
			return s, nil
		}
		if now().After(deadline) {
			stopErr := s.stop()
			return nil, fmt.Errorf("server not healthy within %v (stop: %v); see %s", healthTimeout, stopErr, logPath)
		}
		sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM and requires the orderly drain to exit 0 within
// drainTimeout; a server that has to be killed fails the workload.
func (s *serverProc) stop() error {
	select {
	case <-s.exited:
		return fmt.Errorf("server exited on its own: %v", s.waitErr)
	default:
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.exited:
		if s.waitErr != nil {
			return fmt.Errorf("server did not exit 0 after SIGTERM: %w", s.waitErr)
		}
		return nil
	case <-after(drainTimeout):
		err := s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("server did not drain within %v and was killed (kill: %v)", drainTimeout, err)
	}
}

func (s *serverProc) get(path string) ([]byte, int, error) {
	resp, err := s.http.Get(s.url + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// snapshot is everything the program already exports about itself, read from
// outside at one instant: the /metrics series, the allocator totals of
// /debug/pprof/heap?debug=1, and the kernel's CPU and memory accounting.
type snapshot struct {
	series     map[string]float64 // Prometheus series, labels included in the key
	mallocs    float64
	totalAlloc float64
	numGC      float64
	cpuSeconds float64 // user + system
	hwmMB      float64 // VmHWM, the peak resident set
	scrapeMS   float64 // wall time of the /metrics request
	// heapLiveMB is HeapAlloc right after forced collections with nothing in
	// flight — what the server retains. Window end only: asking for it is
	// what forces the collections.
	heapLiveMB float64
}

// snapshot reads the kernel's accounting of the server and, when layers is
// set (traced passes), scrapes the server too. The CPU reading is taken last
// at a window's start and first at its end, so the scrapes themselves stay
// outside the measured CPU delta.
func (s *serverProc) snapshot(windowEnd, layers bool) (*snapshot, error) {
	snap := &snapshot{}
	if windowEnd || !layers {
		if err := snap.readProc(s.cmd.Process.Pid); err != nil {
			return nil, err
		}
	}
	if !layers {
		return snap, nil
	}
	t0 := now()
	body, status, err := s.get("/metrics")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d: %v", status, err)
	}
	snap.scrapeMS = ms(now().Sub(t0))
	snap.series = parseExposition(body)
	body, status, err = s.get("/debug/pprof/heap?debug=1")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("/debug/pprof/heap: status %d: %v", status, err)
	}
	mem := parseMemStats(body)
	snap.mallocs, snap.totalAlloc, snap.numGC = mem["Mallocs"], mem["TotalAlloc"], mem["NumGC"]
	if windowEnd {
		// Three collections: a sync.Pool keeps its buffers through two.
		for i := 0; i < 3; i++ {
			body, status, err = s.get("/debug/pprof/heap?debug=1&gc=1")
			if err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("/debug/pprof/heap: status %d: %v", status, err)
			}
		}
		snap.heapLiveMB = parseMemStats(body)["HeapAlloc"] / 1e6
	}
	if !windowEnd {
		if err := snap.readProc(s.cmd.Process.Pid); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// readProc reads utime+stime from /proc/<pid>/stat and VmHWM from
// /proc/<pid>/status.
func (snap *snapshot) readProc(pid int) error {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return err
	}
	// The command name (field 2) may contain spaces; fields are counted from
	// the closing parenthesis. utime and stime are fields 14 and 15.
	rest := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(rest) < 13 {
		return fmt.Errorf("/proc/%d/stat: %d fields after the command name", pid, len(rest))
	}
	utime, err1 := strconv.ParseFloat(rest[11], 64)
	stime, err2 := strconv.ParseFloat(rest[12], 64)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("/proc/%d/stat: utime %q stime %q", pid, rest[11], rest[12])
	}
	snap.cpuSeconds = (utime + stime) / userHZ
	snap.hwmMB, err = readStatusMB(pid, "VmHWM:")
	return err
}

// readStatusMB returns one kB-valued line of /proc/<pid>/status, such as
// VmHWM: or VmRSS:, in MB ("self" when pid is 0).
func readStatusMB(pid int, key string) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	status, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == key {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}

// parseExposition reads Prometheus text exposition into series → value.
func parseExposition(body []byte) map[string]float64 {
	series := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			series[line[:i]] = v
		}
	}
	return series
}

// parseMemStats reads the "# Name = value" runtime.MemStats trailer of a
// debug=1 heap profile.
func parseMemStats(body []byte) map[string]float64 {
	stats := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 4 && f[0] == "#" && f[2] == "=" {
			if v, err := strconv.ParseFloat(f[3], 64); err == nil {
				stats[f[1]] = v
			}
		}
	}
	return stats
}
