package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"github.com/tibfit/tibfit/internal/serve"
)

// daemon is one tibfit-serve process started for a single run.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan error
}

// orphanKill has the kernel kill a child the moment this process dies,
// so a benchmark that crashes leaves no daemon or campaign running.
var orphanKill = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

// daemonGOMAXPROCS pins the daemon to one P, and the load generator runs
// at one too, so the two do not compete for the host's CPUs.
const daemonGOMAXPROCS = 1

// startDaemon launches tibfit-serve on an ephemeral loopback port and
// waits until /healthz answers.
func startDaemon(bin string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no tibfit-serve binary given (-serve-bin)")
	}
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-tenant", "boot", "-nodes", "1")
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", daemonGOMAXPROCS))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = orphanKill
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		// Read the banner for the bound address, then drain the pipe
		// until the daemon exits so it never blocks on a full pipe.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "tibfit-serve: listening on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
		d.done <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case err := <-d.done:
		return nil, fmt.Errorf("tibfit-serve exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("tibfit-serve did not report its address within 30s")
	}
	if err := waitHealthy(d.base, 10*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop terminates the daemon and waits for it to exit, killing it if it
// does not drain within a few seconds.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

func waitHealthy(base string, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not healthy after %v: %v", base, within, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// createTenants creates every tenant of a workload over one connection.
func createTenants(c *conn, base string, names []string, cfg serve.TenantConfig) error {
	body, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	for _, name := range names {
		status, _, err := c.do(http.MethodPost, base+"/v1/tenants/"+name, "create", body)
		if err != nil {
			return fmt.Errorf("creating tenant %s: %w", name, err)
		}
		if status != http.StatusCreated {
			return fmt.Errorf("creating tenant %s: status %d", name, status)
		}
	}
	return nil
}
