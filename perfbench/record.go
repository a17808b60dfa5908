package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// cpuTicks is the aggregate line of /proc/stat: total and steal time in
// clock ticks. Steal is time a hypervisor ran someone else on our vCPUs;
// a run with high steal was disturbed by neighbours.
type cpuTicks struct{ total, steal int64 }

func readCPUTicks() (cpuTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var c cpuTicks
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return cpuTicks{}, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		// user nice system idle iowait irq softirq steal [guest guest_nice]:
		// guest time is already counted in user, so stop after steal.
		if i < 8 {
			c.total += n
		}
		if i == 7 {
			c.steal = n
		}
	}
	return c, nil
}

// stealPct is the share of all CPU time between two readings that was
// stolen, in percent.
func stealPct(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS returns the heap's free pages to the kernel and resets the
// process's VmHWM to its current resident set, so a later peakRSSMB reads
// the peak of what ran after the reset.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// commitID names the code under test: the VCS revision the binary was
// built from when the build saw one, else a digest of the module's Go
// sources (the benchmark runs from checkouts without git metadata). A
// build from a work tree with uncommitted changes gets the digest beside
// the revision, so it is not recorded as that revision.
func commitID(root string) string {
	var rev string
	modified := false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	switch {
	case rev == "":
		return treeDigest(root)
	case modified:
		return rev + "+dirty:" + treeDigest(root)
	}
	return rev
}

// treeDigest hashes the paths and contents of the Go sources and go.mod
// files under root, skipping dot directories such as .git and the build
// directory.
func treeDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown (" + err.Error() + ")"
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func hostLine(root string) string {
	return fmt.Sprintf("host nproc=%d gomaxprocs=%d go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commitID(root))
}
