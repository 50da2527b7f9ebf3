package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// buildActserve compiles cmd/actserve from the commit under test into dir.
func buildActserve(root, dir string) (string, error) {
	bin := filepath.Join(dir, "actserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/actserve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building actserve: %w", err)
	}
	return bin, nil
}

// children tracks every live actserve so that no exit path leaves one
// running.
var children struct {
	sync.Mutex
	live map[*child]struct{}
}

func killAllChildren() {
	children.Lock()
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.kill()
	}
}

// child is one actserve process on a loopback port.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr *os.File
	waited chan struct{}
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the child binds it; nothing else on the host is expected to
// grab it in between.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startChild launches actserve with args plus a fresh -addr — on the CPU the
// run is confined to, which a child inherits — stderr appended to logPath,
// and waits for /healthz.
func startChild(bin string, args []string, logPath string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stderr = logf
	// The child dies with the harness even when the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	c := &child{cmd: cmd, base: "http://" + addr, stderr: logf, waited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed child carries nothing
		close(c.waited)
	}()
	children.Lock()
	if children.live == nil {
		children.live = make(map[*child]struct{})
	}
	children.live[c] = struct{}{}
	children.Unlock()
	if err := c.waitHealthy(60 * time.Second); err != nil {
		c.kill()
		return nil, err
	}
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-c.waited:
			return fmt.Errorf("actserve exited during startup (see %s)", c.stderr.Name())
		default:
		}
		resp, err := http.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("actserve not healthy after %v (see %s)", timeout, c.stderr.Name())
}

// kill sends SIGKILL and waits until the process has ended.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already exited is fine
	<-c.waited
	c.stderr.Close()
	children.Lock()
	delete(children.live, c)
	children.Unlock()
}
