package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/metrics/testutil"
)

// procs is every ppserve this process started and has not reaped yet;
// reapAll kills them on any exit path, interrupts included.
var procs = struct {
	sync.Mutex
	live map[*server]bool
}{live: make(map[*server]bool)}

// server is one running ppserve process.
type server struct {
	cmd  *exec.Cmd
	URL  string // http://127.0.0.1:<port>, read back from the log line
	done chan struct{}
	// usage is the reaped process's resource usage (valid after done).
	usage *syscall.Rusage
}

// startServer launches ppserve with args on an OS-chosen loopback port and
// returns once it answers /healthz. Its output is copied to logPath; the
// "listening on" line gives the port away the moment it is written.
func startServer(bin, logPath string, args ...string) (*server, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout, cmd.Stderr = pw, pw
	// Pdeathsig reaps the server even if this process is SIGKILLed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Start()
	pw.Close() // the child holds its own copy; EOF comes when it exits
	if err != nil {
		pr.Close()
		logFile.Close()
		return nil, fmt.Errorf("start ppserve: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	procs.Lock()
	procs.live[s] = true
	procs.Unlock()
	// The log copier hands over the listening address and ends at EOF;
	// done closes once both it and the process are finished.
	addr := make(chan string, 1)
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		defer logFile.Close()
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			fmt.Fprintln(logFile, sc.Text())
			if a, ok := strings.CutPrefix(sc.Text(), "ppserve: listening on "); ok {
				select {
				case addr <- strings.TrimSpace(a):
				default:
				}
			}
		}
	}()
	go func() {
		_ = cmd.Wait()
		<-copied
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			s.usage = ru
		}
		close(s.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	select {
	case a := <-addr:
		s.URL = "http://" + a
	case <-s.done:
		log, _ := os.ReadFile(logPath)
		return nil, fmt.Errorf("ppserve %v exited during start-up: %s", args, log)
	case <-time.After(time.Until(deadline)):
		s.stop()
		return nil, fmt.Errorf("ppserve %v never listened; log %s", args, logPath)
	}
	for {
		if resp, err := httpClient.Get(s.URL + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("ppserve %v never became healthy", args)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the server down (SIGINT: graceful drain, as an operator
// would), escalating to SIGKILL after 15 s, and waits until it has exited.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	procs.Lock()
	delete(procs.live, s)
	procs.Unlock()
}

// cpuSeconds is the user+sys CPU time of the reaped process. It comes from
// wait4's rusage, which the kernel keeps at nanosecond precision; the
// /proc/<pid>/stat tick counters would quantise a 0.1 s sweep to 10 ms.
func (s *server) cpuSeconds() float64 {
	if s.usage == nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(s.usage.Utime) + tv(s.usage.Stime)
}

// peakRSSMB is the reaped process's peak resident set (rusage ru_maxrss,
// the VmHWM high-water mark, in KiB on Linux) in MB.
func (s *server) peakRSSMB() float64 {
	if s.usage == nil {
		return 0
	}
	return float64(s.usage.Maxrss) * 1024 / 1e6
}

// reapAll kills every server still running and waits for each to exit.
func reapAll() {
	procs.Lock()
	live := make([]*server, 0, len(procs.live))
	for s := range procs.live {
		live = append(live, s)
	}
	procs.Unlock()
	for _, s := range live {
		_ = s.cmd.Process.Kill()
		<-s.done
		procs.Lock()
		delete(procs.live, s)
		procs.Unlock()
	}
}

// httpClient keeps at most two connections per server alive: the closed
// loop's two clients.
var httpClient = &http.Client{Transport: &http.Transport{
	MaxIdleConnsPerHost: 2,
	DisableCompression:  true,
}}

// scrape reads a server's /metrics into sample values.
func scrape(url string) (map[string]float64, error) {
	resp, err := httpClient.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return testutil.ParseText(resp.Body)
}

// family sums the samples of one metric family whose labels contain every
// given `name="value"` pair.
func family(samples map[string]float64, name string, labels ...string) float64 {
	t := 0.0
	for k, v := range samples {
		base, rest, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(rest, l)
		}
		if ok {
			t += v
		}
	}
	return t
}

// copyDir copies a directory tree of regular files (an artifact store).
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// waitMembers polls a coordinator's membership view until want workers
// have joined or ctx ends.
func waitMembers(ctx context.Context, url string, want int) error {
	for {
		resp, err := httpClient.Get(url + "/v1/cluster/members")
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && strings.Count(string(body), `"id"`) >= want {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return errors.New("cluster membership never formed")
		case <-time.After(2 * time.Millisecond):
		}
	}
}
