package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// stamp identifies what produced a set of numbers. Every output
// carries one.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	Start      string `json:"start"`
	Network    string `json:"network"`
}

func newStamp(seed int64) stamp {
	return stamp{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Seed:       seed,
		Start:      time.Now().UTC().Format(time.RFC3339),
		Network:    "in-process fabric: no kernel, no wire",
	}
}

func (s stamp) print(w io.Writer) {
	fmt.Fprintf(w, "# commit %s  %s  GOMAXPROCS=%d nproc=%d  cpu %q\n",
		s.Commit, s.GoVersion, s.GOMAXPROCS, s.NumCPU, s.CPUModel)
	fmt.Fprintf(w, "# seed %d  start %s  %s\n", s.Seed, s.Start, s.Network)
}

// gitCommit is the checkout's commit, "-dirty" when the tree differs
// from it, or "unknown" outside a git checkout (the accepting driver
// runs the benchmark from an exported tree).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		commit += "-dirty"
	}
	return commit
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
