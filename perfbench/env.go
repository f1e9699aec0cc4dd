package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// envStamp separates a slow disk or a busy machine from a regression: it
// travels with every result.
type envStamp struct {
	commit     string // git HEAD when the checkout is a git repository
	source     string // digest of the Go sources and go.mod files built
	fsyncP50us float64
	loadBefore float64
	loadAfter  float64
	// stealPct is the share of the machine's CPU time the hypervisor gave
	// to other guests while the run measured: the load average inside a
	// VM does not show a busy host, steal time does.
	stealPct float64
}

func stampEnv(tmp string) (envStamp, error) {
	e := envStamp{loadBefore: loadavg(), commit: gitHead()}
	src, err := sourceDigest(".")
	if err != nil {
		return e, err
	}
	e.source = src
	e.fsyncP50us, err = fsyncP50(tmp)
	return e, err
}

// loadavg is the one-minute load average (0 where /proc is missing).
func loadavg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// cpuTicks returns the machine-wide steal and total CPU ticks from
// /proc/stat (0, 0 where it is missing).
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user.
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// gitHead resolves .git/HEAD without running git; "none" outside a
// repository.
func gitHead() string {
	b, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	head := strings.TrimSpace(string(b))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
				return f[0]
			}
		}
	}
	return "unresolved"
}

// sourceDigest hashes every .go and go.mod file under root (skipping
// dot-directories), in path order, so two runs of the same code carry
// the same digest with or without git.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		h.Write([]byte(p))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// fsyncP50 measures the median latency of a 4 KiB append plus fsync in
// dir, the same kind of write the WAL makes per record.
func fsyncP50(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var us []float64
	for i := 0; i < 31; i++ {
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		t := time.Now()
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
	}
	return quantileOf(us, 0.5), nil
}
