package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running domserved subprocess.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	client *http.Client
	done   chan struct{} // closed once the process has exited
}

// daemonGOMAXPROCS pins the daemon to one core, leaving the other of the
// two to the load generator.
const daemonGOMAXPROCS = "1"

// startDaemon launches bin on a free loopback port and waits until
// /healthz answers.  A non-empty dataDir enables persistence.
func startDaemon(bin, workDir, dataDir string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		d, err := launch(bin, workDir, dataDir, port)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func launch(bin, workDir, dataDir string, port int) (*daemon, error) {
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-addr", addr}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-checkpoint-interval", "0")
	}
	logPath := filepath.Join(workDir, "domserved-"+strconv.Itoa(port)+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+daemonGOMAXPROCS)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without stopping it, the daemon dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start domserved: %w", err)
	}
	d := &daemon{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		done: make(chan struct{}),
	}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: stop() decides
		logf.Close()
		close(d.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return nil, fmt.Errorf("domserved exited during start-up (log: %s)", logPath)
		default:
		}
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("domserved did not become healthy on %s (log: %s)", addr, logPath)
}

// stop terminates the daemon and waits for it to exit.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.client.CloseIdleConnections()
}

// doInto sends one request, reads the response body into buf and returns
// the status.
func (d *daemon) doInto(ctx context.Context, method, path, ctype string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// mustOK sends a request outside the window, which must succeed.
func (d *daemon) mustOK(method, path, ctype string, body []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var buf bytes.Buffer
	status, err := d.doInto(ctx, method, path, ctype, body, &buf)
	b := buf.Bytes()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(b))
	}
	return b, nil
}

// metrics is one /metrics scrape: series (name plus label set, as printed)
// to value.
type metrics map[string]float64

func (d *daemon) scrape() (metrics, error) {
	b, err := d.mustOK(http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	return parseMetrics(b), nil
}

func parseMetrics(b []byte) metrics {
	m := metrics{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
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
			m[line[:i]] = v
		}
	}
	return m
}

// sum adds every series of the named family whose label text contains all
// of the given fragments (e.g. `route="POST /query"`).
func (m metrics) sum(name string, fragments ...string) float64 {
	t := 0.0
	for series, v := range m {
		base, labels, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		ok := true
		for _, f := range fragments {
			if !strings.Contains(labels, f) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// delta returns after minus before for one family/label selection.
func metricDelta(before, after metrics, name string, fragments ...string) float64 {
	return after.sum(name, fragments...) - before.sum(name, fragments...)
}

// cpuTicks is utime+stime of a process, in clock ticks.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat cpu fields")
	}
	return ut + st, nil
}

// cpuSteal returns the machine's total and stolen CPU time from /proc/stat,
// in clock ticks: time the hypervisor gave to other guests counts as stolen.
func cpuSteal() (total, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0, errors.New("malformed /proc/stat")
		}
		if i < 8 { // user..steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// clockTick is USER_HZ, fixed at 100 on Linux.
const clockTick = 10 * time.Millisecond

// peakRSSMB is VmHWM of a process in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
