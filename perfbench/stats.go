package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"atf/internal/obs"
)

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// delta is the change of the process-wide metrics registry between two
// snapshots: the layers' own counters and histograms, read from outside.
type delta struct{ before, after obs.Snapshot }

func (d delta) counter(name string) float64 {
	return float64(d.after.Counter(name).Value - d.before.Counter(name).Value)
}

// hist is the histogram of the observations made between the snapshots.
func (d delta) hist(name string) obs.HistogramSnapshot {
	a, b := d.after.Histogram(name), d.before.Histogram(name)
	h := obs.HistogramSnapshot{Name: name, Bounds: a.Bounds, Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	h.Counts = append([]uint64(nil), a.Counts...)
	for i := range h.Counts {
		if i < len(b.Counts) {
			h.Counts[i] -= b.Counts[i]
		}
	}
	return h
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	kb, _ := procField("/proc/self/status", "VmHWM:")
	v, _ := strconv.ParseFloat(strings.TrimSuffix(kb, " kB"), 64)
	return v / 1024
}

// procField returns the trimmed rest of the first line of a /proc file
// that starts with prefix.
func procField(path, prefix string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":")), true
		}
	}
	return "", false
}

// environment describes the machine a run was measured on.
func environment(journalDir string) map[string]string {
	cpu, _ := procField("/proc/cpuinfo", "model name")
	return map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpu,
		"journal_fs": fsType(journalDir),
	}
}

// fsType is the filesystem type of the mount holding dir, from
// /proc/self/mountinfo (the longest mount point that prefixes dir).
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		// mount-id parent major:minor root mount-point options... - type source
		pre, post, ok := strings.Cut(line, " - ")
		fields, tail := strings.Fields(pre), strings.Fields(post)
		if !ok || len(fields) < 5 || len(tail) < 1 {
			continue
		}
		mp := fields[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), tail[0]
		}
	}
	return typ
}
