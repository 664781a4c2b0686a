// Command vpfleet spawns and supervises N local vpserved shards — the
// one-command way to stand up a fleet for CI, benchmarks and examples
// (DESIGN.md §12). Each shard is this same binary re-executed in its
// serve-shard mode, which runs vpserved's own daemon (cmd/internal/daemon:
// the same flags, access log and drain; no separate vpserved binary
// needed), listening on a random loopback port with a stable shard id that
// tags its log lines. The supervisor waits until every shard answers
// /v1/healthz, publishes the roster, and then forwards SIGTERM/SIGINT to
// the children so the whole fleet drains as one unit.
//
// Usage:
//
//	vpfleet -n 3 -addr-file fleet.addrs -pids-file fleet.pids &
//	vpsim -kernel art -pred vtage -shards "$(cat fleet.addrs)"
//	experiments -run fig4 -shards "$(cat fleet.addrs)"
//	kill -TERM "$(sed -n 2p fleet.pids)"    # kill one shard; the fleet routes around it
//
// The addr file holds every shard base URL comma-separated — exactly the
// -shards argument. The pids file holds one child pid per line, in shard
// order, so a test can SIGTERM a specific shard mid-run. A shard that dies
// is logged and left down (the fleet front re-routes); vpfleet does not
// restart children, keeping CI runs deterministic.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/cmd/internal/daemon"
)

// child is one supervised shard process.
type child struct {
	cmd      *exec.Cmd
	addrPath string
	url      string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve-shard" {
		os.Exit(daemon.Run(os.Args[2:]))
	}
	os.Exit(supervise(os.Args[1:]))
}

// supervise is the default mode: spawn N shards, publish the roster, relay
// signals, reap children.
func supervise(args []string) int {
	fs := flag.NewFlagSet("vpfleet", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	n := fs.Int("n", 3, "number of shards to spawn")
	addrFile := fs.String("addr-file", "", "write every shard base URL, comma-separated, to this file once all are healthy (the -shards argument)")
	pidsFile := fs.String("pids-file", "", "write one child pid per line, in shard order")
	storeDir := fs.String("store-dir", "", "persistent record store directory shared by every shard (empty: memory-only per shard)")
	warmup := fs.Uint64("warmup", 0, "warmup µops per simulation, per shard (0: server default)")
	measure := fs.Uint64("measure", 0, "measured µops per simulation, per shard (0: server default)")
	workers := fs.Int("workers", 0, "simulation workers per shard (0: GOMAXPROCS)")
	startTimeout := fs.Duration("start-timeout", 30*time.Second, "budget for every shard to become healthy")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *n < 1 {
		logger.Error("need at least one shard", "n", *n)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		logger.Error("resolve own executable", "err", err)
		return 1
	}
	tmp, err := os.MkdirTemp("", "vpfleet-*")
	if err != nil {
		logger.Error("temp dir", "err", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	children := make([]*child, *n)
	exits := make(chan int, *n) // shard index, on child exit
	for i := range children {
		ch := &child{addrPath: filepath.Join(tmp, fmt.Sprintf("shard%d.addr", i))}
		cargs := []string{
			"serve-shard",
			"-addr", "127.0.0.1:0",
			"-addr-file", ch.addrPath,
			"-shard-id", fmt.Sprintf("shard-%d", i),
		}
		if *storeDir != "" {
			cargs = append(cargs, "-store-dir", *storeDir)
		}
		if *warmup != 0 {
			cargs = append(cargs, "-warmup", strconv.FormatUint(*warmup, 10))
		}
		if *measure != 0 {
			cargs = append(cargs, "-measure", strconv.FormatUint(*measure, 10))
		}
		if *workers != 0 {
			cargs = append(cargs, "-workers", strconv.Itoa(*workers))
		}
		ch.cmd = exec.Command(self, cargs...)
		ch.cmd.Stderr = os.Stderr
		ch.cmd.Stdout = os.Stdout
		if err := ch.cmd.Start(); err != nil {
			logger.Error("spawn shard", "shard", i, "err", err)
			killAll(children)
			return 1
		}
		children[i] = ch
		go func(i int, c *exec.Cmd) {
			c.Wait()
			exits <- i
		}(i, ch.cmd)
	}

	// Wait until every shard published its address and answers healthz.
	deadline := time.Now().Add(*startTimeout)
	for i, ch := range children {
		for {
			if time.Now().After(deadline) {
				logger.Error("shard never became healthy", "shard", i)
				killAll(children)
				return 1
			}
			if b, err := os.ReadFile(ch.addrPath); err == nil && len(b) > 0 {
				url := "http://" + strings.TrimSpace(string(b))
				resp, err := http.Get(url + "/v1/healthz")
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						ch.url = url
						break
					}
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		logger.Info("shard healthy", "shard", i, "url", ch.url, "pid", ch.cmd.Process.Pid)
	}

	urls := make([]string, len(children))
	pids := make([]string, len(children))
	for i, ch := range children {
		urls[i] = ch.url
		pids[i] = strconv.Itoa(ch.cmd.Process.Pid)
	}
	roster := strings.Join(urls, ",")
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(roster), 0o644); err != nil {
			logger.Error("write addr-file", "err", err)
			killAll(children)
			return 1
		}
	}
	if *pidsFile != "" {
		if err := os.WriteFile(*pidsFile, []byte(strings.Join(pids, "\n")+"\n"), 0o644); err != nil {
			logger.Error("write pids-file", "err", err)
			killAll(children)
			return 1
		}
	}
	fmt.Println(roster)
	logger.Info("fleet up", "shards", len(children))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	alive := len(children)
	for {
		select {
		case s := <-sig:
			logger.Info("forwarding signal to shards", "signal", s.String())
			for _, ch := range children {
				if ch.cmd.Process != nil {
					ch.cmd.Process.Signal(syscall.SIGTERM)
				}
			}
			// Children drain and exit; reap them all, then leave.
			for alive > 0 {
				<-exits
				alive--
			}
			logger.Info("fleet drained")
			return 0
		case i := <-exits:
			// A shard died on its own (killed by a test, crashed). Leave it
			// down — the fleet front marks it and routes around — but keep
			// supervising the rest.
			alive--
			logger.Warn("shard exited", "shard", i, "alive", alive)
			if alive == 0 {
				logger.Error("all shards gone")
				return 1
			}
		}
	}
}

func killAll(children []*child) {
	for _, ch := range children {
		if ch != nil && ch.cmd != nil && ch.cmd.Process != nil {
			ch.cmd.Process.Kill()
		}
	}
}
