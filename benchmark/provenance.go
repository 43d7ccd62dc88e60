package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// provenance is stamped on every run record so a number is never quoted
// without the host shape and run length that produced it.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Rounds     int     `json:"rounds"`
	Traced     bool    `json:"traced"`
	Smoke      bool    `json:"smoke,omitempty"`
	GitRev     string  `json:"git_rev"`
	GitDirty   bool    `json:"git_dirty"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Date       string  `json:"date"`
}

func collectProvenance(o options, rounds int) provenance {
	p := provenance{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Rounds:     rounds,
		Traced:     o.trace,
		Smoke:      o.smoke,
		GitRev:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	// Best effort: an exported checkout is not a git repository.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.GitRev = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			p.GitDirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
