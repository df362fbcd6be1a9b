package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/serve"
)

// anomalyPct is RFIDGen's dirty percentage, rfidserve's default.
const anomalyPct = 10

// server is one running engine behind HTTP: a spawned rfidserve, or —
// for the smoke tests, which must not need a built binary — the same
// serve.Server on a listener inside this process.
type server struct {
	url  string
	pid  int // 0 when in-process
	stop func() error
}

// startServer boots a server at the given scale and returns once it
// answers /readyz. bin "" selects the in-process listener.
func startServer(bin string, scale int, tmp string) (*server, error) {
	if bin == "" {
		return startInProcess(scale)
	}
	addrFile, err := os.CreateTemp(tmp, "addr-")
	if err != nil {
		return nil, err
	}
	addrPath := addrFile.Name()
	addrFile.Close()
	os.Remove(addrPath)

	// The shipped configuration: every flag at its default but the
	// listen address and the scale.
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrPath, "-scale", strconv.Itoa(scale))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	s := &server{pid: cmd.Process.Pid}
	s.stop = func() error {
		defer os.Remove(addrPath)
		_ = cmd.Process.Signal(syscall.SIGTERM)
		select {
		case err := <-exited:
			if err != nil {
				return fmt.Errorf("rfidserve exit: %w\n%s", err, tail(stderr.String()))
			}
			return nil
		case <-time.After(20 * time.Second):
			_ = cmd.Process.Kill()
			<-exited
			return fmt.Errorf("rfidserve ignored SIGTERM for 20s; killed")
		}
	}

	deadline := time.Now().Add(150 * time.Second)
	for {
		if blob, err := os.ReadFile(addrPath); err == nil && len(blob) > 0 {
			s.url = "http://" + strings.TrimSpace(string(blob))
			break
		}
		select {
		case err := <-exited:
			os.Remove(addrPath)
			return nil, fmt.Errorf("rfidserve exited before listening: %v\n%s", err, tail(stderr.String()))
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			_ = s.stop()
			return nil, fmt.Errorf("rfidserve did not listen within 150s")
		}
	}
	if err := awaitReady(s.url, deadline); err != nil {
		_ = s.stop()
		return nil, err
	}
	return s, nil
}

func awaitReady(url string, deadline time.Time) error {
	for {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s never became ready: %v", url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func startInProcess(scale int) (*server, error) {
	db, err := openWorkloadDB(scale)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{DB: db})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	return &server{
		url: "http://" + addr.String(),
		stop: func() error {
			derr := srv.Drain(context.Background())
			<-served
			if cerr := db.Close(); derr == nil {
				derr = cerr
			}
			return derr
		},
	}, nil
}

// openWorkloadDB is what rfidserve does at boot: generate and load the
// RFIDGen workload (the server has no seed flag, so the data seed is
// RFIDGen's zero seed everywhere) and register the paper's rules.
func openWorkloadDB(scale int, opts ...repro.Option) (*repro.DB, error) {
	db := repro.Open(opts...)
	if err := db.LoadRFIDWorkload(repro.WorkloadConfig{Scale: scale, AnomalyPct: anomalyPct}); err != nil {
		return nil, err
	}
	if _, err := db.DefinePaperRules(); err != nil {
		return nil, err
	}
	return db, nil
}

// peakRSSMB reads VmHWM, the process's resident high-water mark.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = filepath.Join("/proc", strconv.Itoa(pid), "status")
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

func tail(s string) string {
	if len(s) > 2000 {
		return "..." + s[len(s)-2000:]
	}
	return s
}
