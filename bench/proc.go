package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverSet is the running system under test: one server, or the nodes of a
// static cluster. Traffic goes to urls()[0].
type serverSet interface {
	urls() []string
	// kill stops every process at once (SIGKILL: no drain, no final
	// snapshot) and waits for them to end.
	kill()
	// rssPeakMB is the peak resident set (VmHWM), summed over processes;
	// rssMB the current one (VmRSS).
	rssPeakMB() float64
	rssMB() float64
	// cpuSeconds is user+system CPU consumed so far, summed over processes.
	cpuSeconds() float64
}

// launcher starts the system under test for a workload. dataDir is the
// durable workloads' data directory (reused across a kill to measure
// recovery). serverTrace leaves the server's own request tracing at the
// product default instead of switching it off.
type launcher interface {
	launch(w workload, seed int64, dataDir string, serverTrace bool) (serverSet, error)
}

// procLauncher runs the real cmd/server binary on free loopback ports.
type procLauncher struct {
	bin    string // built server binary
	logDir string // captured stdout+stderr of every server, one file each

	mu   sync.Mutex
	live map[*exec.Cmd]bool
	seq  int

	// starts carries process starts to one goroutine that owns its OS thread
	// for the life of the harness. Pdeathsig fires when the *thread* that
	// forked the child ends, and the generator goroutines end theirs, so a
	// child must never be forked from a thread the scheduler hands around.
	starts chan startReq
}

type startReq struct {
	cmd  *exec.Cmd
	done chan error
}

func newProcLauncher(bin, logDir string) *procLauncher {
	l := &procLauncher{bin: bin, logDir: logDir, live: map[*exec.Cmd]bool{}, starts: make(chan startReq)}
	go func() {
		runtime.LockOSThread()
		for req := range l.starts {
			req.done <- req.cmd.Start()
		}
	}()
	return l
}

func (l *procLauncher) start(cmd *exec.Cmd) error {
	req := startReq{cmd: cmd, done: make(chan error, 1)}
	l.starts <- req
	return <-req.done
}

// buildServer compiles cmd/server once into buildDir and reports how long
// that took.
func buildServer(root, buildDir string) (string, time.Duration, error) {
	bin := filepath.Join(buildDir, "server")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/server")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/server: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

type procSet struct {
	l     *procLauncher
	addrs []string
	cmds  []*exec.Cmd
	logs  []string
}

func (l *procLauncher) launch(w workload, seed int64, dataDir string, serverTrace bool) (serverSet, error) {
	ps := &procSet{l: l}
	for i := 0; i < w.nodes; i++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		ps.addrs = append(ps.addrs, "127.0.0.1:"+strconv.Itoa(port))
	}
	for i, addr := range ps.addrs {
		args := []string{"-addr", addr, "-seed", strconv.FormatInt(seed, 10), "-shards", strconv.Itoa(w.shards)}
		if !serverTrace {
			args = append(args, "-trace-sample", "-1", "-slow-query", "0")
		}
		if w.durable {
			dir := dataDir
			if w.nodes > 1 {
				dir = filepath.Join(dataDir, "node-"+strconv.Itoa(i))
			}
			args = append(args, "-data-dir", dir, "-fsync", "always", "-snapshot-every", "60")
		}
		if w.nodes > 1 {
			args = append(args, "-node-id", addr, "-peers", strings.Join(ps.addrs, ","))
		}
		l.mu.Lock()
		l.seq++
		logPath := filepath.Join(l.logDir, fmt.Sprintf("server-%s-%03d-node%d.log", w.name, l.seq, i))
		l.mu.Unlock()
		logFile, err := os.Create(logPath)
		if err != nil {
			ps.kill()
			return nil, err
		}
		cmd := exec.Command(l.bin, args...)
		cmd.Stdout, cmd.Stderr = logFile, logFile
		// The child dies with the harness even when the harness is SIGKILLed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		err = l.start(cmd)
		logFile.Close() // the child holds its own descriptor
		if err != nil {
			ps.kill()
			return nil, fmt.Errorf("start %s: %w", l.bin, err)
		}
		l.mu.Lock()
		l.live[cmd] = true
		l.mu.Unlock()
		ps.cmds = append(ps.cmds, cmd)
		ps.logs = append(ps.logs, logPath)
	}
	if err := ps.awaitReady(10 * time.Second); err != nil {
		ps.kill()
		return nil, err
	}
	return ps, nil
}

// awaitReady polls /readyz on every node until each answers 200. A node
// that exits first fails at once, with the tail of its captured output.
func (ps *procSet) awaitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for i, addr := range ps.addrs {
		c := newConn("http://" + addr)
		for {
			r, err := c.do("GET", "/readyz", nil)
			if err == nil && r.status == 200 {
				break
			}
			if !ps.alive(i) {
				c.close()
				return fmt.Errorf("server %s exited before /readyz turned 200; its output (%s):\n%s",
					addr, ps.logs[i], tail(ps.logs[i], 2000))
			}
			if time.Now().After(deadline) {
				c.close()
				return fmt.Errorf("server %s: /readyz not 200 after %v; its output (%s):\n%s",
					addr, limit, ps.logs[i], tail(ps.logs[i], 2000))
			}
			time.Sleep(500 * time.Microsecond)
		}
		c.close()
	}
	return nil
}

func (ps *procSet) alive(i int) bool {
	// Signal 0 probes without delivering; a zombie still answers, so also
	// look at the process state.
	st, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", ps.cmds[i].Process.Pid))
	if err != nil {
		return false
	}
	f := strings.Fields(string(st[bytes.LastIndexByte(st, ')')+1:]))
	return len(f) > 0 && f[0] != "Z" && f[0] != "X"
}

func tail(path string, n int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(b)
}

func (ps *procSet) urls() []string {
	out := make([]string, len(ps.addrs))
	for i, a := range ps.addrs {
		out[i] = "http://" + a
	}
	return out
}

func (ps *procSet) kill() {
	for _, cmd := range ps.cmds {
		cmd.Process.Kill()
	}
	for _, cmd := range ps.cmds {
		cmd.Wait()
		ps.l.mu.Lock()
		delete(ps.l.live, cmd)
		ps.l.mu.Unlock()
	}
	ps.cmds = nil
}

func (ps *procSet) rssPeakMB() float64 { return ps.statusMB("VmHWM:") }
func (ps *procSet) rssMB() float64     { return ps.statusMB("VmRSS:") }

// statusMB sums one kB field of /proc/<pid>/status over the processes.
func (ps *procSet) statusMB(field string) float64 {
	total := 0.0
	for _, cmd := range ps.cmds {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", cmd.Process.Pid))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, field) {
				f := strings.Fields(line)
				if len(f) >= 2 {
					kb, _ := strconv.ParseFloat(f[1], 64)
					total += kb / 1024
				}
			}
		}
	}
	return total
}

func (ps *procSet) cpuSeconds() float64 {
	total := 0.0
	for _, cmd := range ps.cmds {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", cmd.Process.Pid))
		if err != nil {
			continue
		}
		// Fields after the parenthesised command name; utime and stime are
		// the 14th and 15th of the whole line, so 12th and 13th here (0-based
		// 11, 12), in clock ticks of 1/100 s.
		f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
		if len(f) > 12 {
			ut, _ := strconv.ParseFloat(f[11], 64)
			st, _ := strconv.ParseFloat(f[12], 64)
			total += (ut + st) / 100
		}
	}
	return total
}

// killAll stops every server the launcher still has running; the signal
// handler and the exit path both call it.
func (l *procLauncher) killAll() {
	l.mu.Lock()
	cmds := make([]*exec.Cmd, 0, len(l.live))
	for c := range l.live {
		cmds = append(cmds, c)
	}
	l.live = map[*exec.Cmd]bool{}
	l.mu.Unlock()
	for _, c := range cmds {
		c.Process.Kill()
	}
	for _, c := range cmds {
		c.Wait()
	}
}

// selfCPUSeconds is the harness's own user+system CPU so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
