package main

import (
	"bufio"
	"bytes"
	"context"
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

// env locates the built programs and the run's scratch directory.
type env struct {
	bin  string // directory holding the serve and pipeline binaries
	work string // per-run working directory
}

// pipelineInterval is how often the server's embedded pipeline looks for
// new store records; it bounds the wait a retrain round pays before its
// cycle starts.
const pipelineInterval = 250 * time.Millisecond

// runTool runs one cmd/pipeline subcommand to completion, keeping its
// output in the work directory for diagnosis.
func (e env) runTool(ctx context.Context, logName string, args ...string) error {
	log, err := os.Create(filepath.Join(e.work, logName))
	if err != nil {
		return err
	}
	defer log.Close()
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, "pipeline"), args...)
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("pipeline %s: %w (log in %s)", args[0], err, log.Name())
	}
	return nil
}

// server is one running cmd/serve process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan error
	log  string
	once sync.Once
}

// startServer launches cmd/serve with the embedded pipeline over the
// given store and generations directories; the pipeline sweeps the store
// every pipelineInterval.
func (e env) startServer(store, gens, logName string, minNew int) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(e.work, logName)
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(e.bin, "serve"),
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-pipeline-store", store, "-pipeline-dir", gens,
		"-pipeline-interval", pipelineInterval.String(),
		"-pipeline-min-new", strconv.Itoa(minNew),
		// The gate still evaluates every candidate; the slack only keeps a
		// round's promotion from depending on which seed drew the data.
		"-pipeline-slack", "1",
		// Observations must not kick extra, timing-dependent
		// retrains: the rounds alone decide which generations exist.
		"-drift-floor", "0.01",
		"-log-level", "warn")
	cmd.Stdout, cmd.Stderr = log, log
	// A server outlives the benchmark only if the benchmark is killed;
	// then the kernel stops it too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	s := &server{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), done: make(chan error, 1), log: logPath}
	go func() {
		s.done <- cmd.Wait()
		log.Close()
	}()
	return s, nil
}

// stop shuts the server down gracefully and waits for it to exit,
// killing it if it has not exited after a grace period. Calls after the
// first return at once.
func (s *server) stop() {
	s.once.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-s.done:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill() // it can only have exited meanwhile
			<-s.done
		}
	})
}

// exited reports whether the process has ended.
func (s *server) exited() bool {
	select {
	case err := <-s.done:
		s.done <- err
		return true
	default:
		return false
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// setupResult is one timed set-up.
type setupResult struct {
	srv   *server
	store string
	gens  string
	dur   time.Duration
	first []byte // the first 200 /v1/predict answer, checked later
}

// setUp goes from an empty store to a serving generation: ingest the
// history CSV, train, calibrate, gate and promote generation 1 with
// cmd/pipeline, then start cmd/serve on it. The clock runs from the
// first process launch to the first 200 answer to probe; whether that
// answer is correct is checked by the caller, off the clock.
func (e env) setUp(ctx context.Context, k int, csvPath string, probe []byte, minNew int) (*setupResult, error) {
	dir := filepath.Join(e.work, fmt.Sprintf("setup%d", k))
	r := &setupResult{store: filepath.Join(dir, "store"), gens: filepath.Join(dir, "gens")}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := e.runTool(ctx, fmt.Sprintf("ingest%d.log", k), "ingest", "-store", r.store, csvPath); err != nil {
		return nil, err
	}
	if err := e.runTool(ctx, fmt.Sprintf("train%d.log", k), "run", "-store", r.store, "-dir", r.gens); err != nil {
		return nil, err
	}
	srv, err := e.startServer(r.store, r.gens, fmt.Sprintf("serve%d.log", k), minNew)
	if err != nil {
		return nil, err
	}
	if r.first, err = srv.firstAnswer(ctx, probe); err != nil {
		srv.stop()
		return nil, err
	}
	r.dur = time.Since(t0)
	r.srv = srv
	return r, nil
}

// firstAnswer polls /v1/predict with probe until the server answers 200
// and returns that answer.
func (s *server) firstAnswer(ctx context.Context, probe []byte) ([]byte, error) {
	client := &http.Client{Transport: &http.Transport{Proxy: nil}, Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	for {
		if s.exited() {
			return nil, fmt.Errorf("serve exited before answering (log in %s)", s.log)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		resp, err := client.Post(s.base+"/v1/predict", "application/json", bytes.NewReader(probe))
		if err == nil {
			var body bytes.Buffer
			_, rerr := body.ReadFrom(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				return body.Bytes(), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cpuStat returns the machine's cumulative CPU time and the part of it
// stolen by the hypervisor, in clock ticks, from /proc/stat.
func cpuStat() (total, steal float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, err
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}
