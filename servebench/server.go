package main

import (
	"bytes"
	"encoding/json"
	"errors"
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

// clockTicks is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; 100 on every Linux architecture Go supports.
const clockTicks = 100

// server is one running lrmserve process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan error
}

// startServer launches the lrmserve binary with args plus a loopback
// listen address and waits until /healthz answers. The server's log
// goes to logPath.
func startServer(bin, logPath string, args []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies without stopping it, the kernel kills the
	// server rather than leaving it running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting lrmserve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	if err := s.waitHealthy(30 * time.Second); err != nil {
		s.stop()
		return nil, fmt.Errorf("%w (log %s: %s)", err, logPath, tailFile(logPath))
	}
	return s, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (s *server) waitHealthy(limit time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("lrmserve exited during start-up: %v", err)
		default:
		}
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("lrmserve did not become healthy")
}

// stop sends SIGTERM, waits for the process to exit (killing it after a
// grace period) and closes its log.
func (s *server) stop() {
	if s.cmd.Process != nil {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(20 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
	}
	s.log.Close()
}

// post sends one request outside any timed window.
func (s *server) post(body []byte) ([]byte, error) {
	resp, err := http.Post(s.base+"/answer", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /answer: %s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}

// serverStats mirrors the parts of lrmserve's GET /stats body the
// benchmark reads.
type serverStats struct {
	Engine struct {
		Requests, Answers       uint64
		Hits, Misses, Coalesced uint64
		Prepares, Evictions     uint64
		Batched, Implicit       uint64
	} `json:"engine"`
	Tenants []struct {
		Tenant string  `json:"tenant"`
		Total  float64 `json:"total"`
		Spent  float64 `json:"spent"`
	} `json:"tenants"`
	Kernels struct {
		Tier       string            `json:"tier"`
		Calibrated bool              `json:"calibrated"`
		Dispatch   map[string]string `json:"dispatch"`
	} `json:"kernels"`
}

func (s *server) stats() (*serverStats, error) {
	resp, err := http.Get(s.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /stats: %w", err)
	}
	return &st, nil
}

// spent returns the ε the named tenant has spent, per /stats.
func (st *serverStats) spent(tenant string) float64 {
	for _, t := range st.Tenants {
		if t.Tenant == tenant {
			return t.Spent
		}
	}
	return 0
}

// cpuSeconds returns the process's user+system CPU time from
// /proc/<pid>/stat.
func (s *server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, so 12 and 13 here.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", raw)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat line %q", raw)
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMB returns the process's VmHWM in MiB.
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// tailFile returns the last lines of a log for error messages.
func tailFile(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(raw) > 800 {
		raw = raw[len(raw)-800:]
	}
	return strings.TrimSpace(string(raw))
}
