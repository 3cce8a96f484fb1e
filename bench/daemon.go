package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hashstash"
	"hashstash/internal/server"
)

// clockTicksPerSecond is USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; Linux fixes it at 100 for every architecture Go
// supports.
const clockTicksPerSecond = 100

// buildDaemon compiles ./cmd/hashstashd of the checkout at root into
// root/.bench_build/bin and returns the binary's path.
func buildDaemon(root string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(root, ".bench_build", "bin", "hashstashd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hashstashd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/hashstashd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running hashstashd.
type daemon struct {
	cmd     *exec.Cmd
	base    string        // http://127.0.0.1:<port>
	drained chan struct{} // closed once the daemon's stdout hit EOF
	client  *http.Client
	stopped sync.Once
	// setup is how long spawn took: process start until /healthz
	// answered 200.
	setup time.Duration
}

// spawn starts hashstashd on a free loopback port and returns once
// /healthz answers 200, that is once TPC-H is loaded.
func spawn(ctx context.Context, bin string, flags []string, conns int) (*daemon, error) {
	start := time.Now()
	args := append([]string{"-listen", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{
		cmd:     cmd,
		drained: make(chan struct{}),
		client: &http.Client{
			Timeout: time.Minute, // a hung daemon fails the run, not the driver's timeout
			Transport: &http.Transport{
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "http listening on "); ok {
				addr <- strings.TrimSpace(rest)
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.drained:
		_ = cmd.Wait()
		return nil, fmt.Errorf("%s exited before listening", bin)
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = time.Since(start)
				return d, nil
			}
		}
		select {
		case <-ctx.Done():
			d.stop()
			return nil, fmt.Errorf("healthz: %w", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop asks the daemon to drain and waits until the process has ended;
// it kills the process if the drain outlasts the grace period.
func (d *daemon) stop() {
	d.stopped.Do(func() {
		d.client.CloseIdleConnections()
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.drained:
		case <-time.After(15 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.drained
		}
		_ = d.cmd.Wait()
	})
}

// post sends one query and reads the whole answer.
func (d *daemon) post(body []byte) (status int, answer []byte, err error) {
	resp, err := d.client.Post(d.base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	answer, err = io.ReadAll(resp.Body)
	return resp.StatusCode, answer, err
}

// daemonStats is the GET /stats document.
type daemonStats struct {
	Server server.Stats         `json:"server"`
	Cache  hashstash.CacheStats `json:"cache"`
}

func (d *daemon) stats() (daemonStats, error) {
	var st daemonStats
	resp, err := d.client.Get(d.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// cpuSeconds is the daemon's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis, after which utime and stime are
	// the 12th and 13th.
	i := bytes.LastIndexByte(raw, ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("/proc stat: unexpected format %q", raw)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc stat: bad utime/stime in %q", raw)
	}
	return float64(utime+stime) / clockTicksPerSecond, nil
}

// rssPeakMiB is the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) rssPeakMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc status: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc status: no VmHWM line")
}
