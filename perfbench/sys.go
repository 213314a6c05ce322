package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// vmHWM reads the process's peak resident set size (VmHWM) in MB.
func vmHWM() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// stealTicks reads the CPU time the hypervisor gave to other guests
// (the steal column of /proc/stat), in clock ticks; 0 if unreadable.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(fields[8], 10, 64)
	return v
}

// mappedBlobs counts the artifact blob mappings (*.tmar files) in the
// process's address space.
func mappedBlobs() (int, error) {
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// A blob whose file was removed still counts: it stays mapped.
		if line := sc.Text(); strings.Contains(line, ".tmar") {
			fields := strings.Fields(line)
			seen[fields[0]] = true // one entry per mapping (address range)
		}
	}
	return len(seen), sc.Err()
}

// freeMB reports the space available to an unprivileged writer on the
// filesystem holding dir.
func freeMB(dir string) (float64, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return 0, err
	}
	return float64(st.Bavail) * float64(st.Bsize) / (1 << 20), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// stamp identifies the code, machine and inputs behind one result.
type stamp struct {
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	CPU          string `json:"cpu"`
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
}

func newStamp(root, workload string, seed int64, seconds int, trace bool) stamp {
	return stamp{
		Commit:       gitCommit(root),
		SourceSHA256: sourceDigest(root),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CPU:          cpuModel(),
		Workload:     workload,
		Seed:         seed,
		Seconds:      seconds,
		Trace:        trace,
	}
}

// gitCommit is the checkout's HEAD, or "unknown" outside a git work
// tree; sourceDigest identifies the code either way.
func gitCommit(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source, assembly and module file under
// root (skipping hidden and build directories) in path order, so two
// checkouts of the same code share a digest.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		switch filepath.Ext(p) {
		case ".go", ".s", ".mod":
			if d.Type().IsRegular() {
				paths = append(paths, p)
			}
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", rel)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if k, v, ok := bytes.Cut(line, []byte(":")); ok && string(bytes.TrimSpace(k)) == "model name" {
			return string(bytes.TrimSpace(v))
		}
	}
	return "unknown"
}
