package trustbench

// trustd as a separate process: built from the checkout under test,
// started on a free loopback port, timed from exec to its first healthy
// answer, and read through /proc while it serves.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// BuildDir is where the benchmark keeps everything it builds and writes,
// relative to the checkout root.
const BuildDir = ".bench_build"

// FindRoot walks up from dir to the checkout root: the directory holding
// both go.mod and BENCHMARK.json.
func FindRoot(dir string) (string, error) {
	for d := dir; ; d = filepath.Dir(d) {
		if fileExists(filepath.Join(d, "go.mod")) && fileExists(filepath.Join(d, "BENCHMARK.json")) {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("no checkout root (go.mod beside BENCHMARK.json) above %s", dir)
		}
	}
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// Binaries are the programs under test, built from the checkout.
type Binaries struct {
	Trustd, Synthgen string
}

// Build compiles cmd/trustd and cmd/synthgen from root into
// root/.bench_build/bin. The go command's own cache makes a rebuild of an
// unchanged tree cheap.
func Build(ctx context.Context, root string) (Binaries, error) {
	bin := filepath.Join(root, BuildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return Binaries{}, err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator), "./cmd/trustd", "./cmd/synthgen")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return Binaries{}, fmt.Errorf("go build trustd synthgen: %w\n%s", err, out)
	}
	return Binaries{Trustd: filepath.Join(bin, "trustd"), Synthgen: filepath.Join(bin, "synthgen")}, nil
}

// Server is one running trustd.
type Server struct {
	Base string
	cmd  *exec.Cmd
	done chan error
	log  *os.File
	stop sync.Once
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// StartServer execs trustd with args plus a loopback -addr and returns
// once /healthz answers 200, along with the time from exec to that answer.
// trustd's log goes to logPath.
func StartServer(ctx context.Context, bin string, args []string, logPath string) (*Server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	s := &Server{Base: "http://" + addr, cmd: cmd, done: make(chan error, 1), log: logf}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start trustd: %w", err)
	}
	go func() { s.done <- cmd.Wait() }()

	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	poll := time.NewTicker(2 * time.Millisecond)
	defer poll.Stop()
	giveUp := time.After(150 * time.Second)
	for {
		resp, err := client.Get(s.Base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			s.Stop()
			return nil, 0, fmt.Errorf("trustd exited before serving (%v); log in %s", err, logPath)
		case <-giveUp:
			s.Stop()
			return nil, 0, fmt.Errorf("trustd not healthy after 150s; log in %s", logPath)
		case <-ctx.Done():
			s.Stop()
			return nil, 0, ctx.Err()
		case <-poll.C:
		}
	}
}

// Stop asks trustd to shut down and waits for it to exit, killing it if
// it has not within ten seconds. Later calls do nothing.
func (s *Server) Stop() {
	s.stop.Do(func() {
		defer s.log.Close()
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-s.done:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
	})
}

// CPU returns the CPU time trustd's threads have run so far, summed from
// each thread's /proc schedstat in nanoseconds. utime and stime in
// /proc/<pid>/stat count in 10 ms ticks, too coarse for a few seconds of
// serving. Go keeps its threads alive, so no thread's time is lost to an
// exit between two readings.
func (s *Server) CPU() (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	if len(tasks) == 0 {
		return 0, errors.New("trustd has no /proc task schedstat")
	}
	var total time.Duration
	for _, path := range tasks {
		raw, err := os.ReadFile(path)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // the thread exited after the glob
			}
			return 0, err
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s", path)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", path, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// PeakRSSMB returns trustd's peak resident set (VmHWM) in MiB.
func (s *Server) PeakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}
