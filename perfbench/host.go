package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// hostRecord identifies where and on what a result was measured.
type hostRecord struct {
	CPU          string  `json:"cpu_model"`
	NProc        int     `json:"nproc"`
	ServerProcs  int     `json:"server_gomaxprocs"`
	GenProcs     int     `json:"generator_gomaxprocs"`
	Conns        int     `json:"generator_conns"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	SourceDigest string  `json:"source_sha256"`
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Seconds      int     `json:"seconds"`
	Trace        bool    `json:"trace"`
	LightRPS     float64 `json:"light_rps"`
	HeavyRPS     float64 `json:"heavy_rps"`
	LimitMS      float64 `json:"limit_ms"`
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

// commitOf reads HEAD from root/.git without running git, so nothing
// outside the checkout is read; a tree without .git reports "unknown"
// (the source digest still identifies it).
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file under cmd/ and
// internal/: the program under test, whether or not it is a git tree.
func sourceDigest(root string) string {
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil // an unreadable entry only weakens the digest
		})
	}
	slices.Sort(files)
	h := sha256.New()
	for _, p := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func newHostRecord(w *workload, seed uint64, seconds int, trace bool, conns, procs int) hostRecord {
	return hostRecord{
		CPU:          cpuModel(),
		NProc:        runtime.NumCPU(),
		ServerProcs:  procs,
		GenProcs:     runtime.GOMAXPROCS(0),
		Conns:        conns,
		GoVersion:    runtime.Version(),
		Commit:       commitOf("."),
		SourceDigest: sourceDigest("."),
		Workload:     w.name,
		Seed:         seed,
		Seconds:      seconds,
		Trace:        trace,
		LightRPS:     w.light,
		HeavyRPS:     w.heavy,
		LimitMS:      ms(w.limit),
	}
}

// cpuTicks returns the machine's steal time and its total CPU time so
// far, in clock ticks, from the "cpu" line of /proc/stat (zeros when it
// cannot be read). Steal is time the hypervisor gave this machine's
// CPUs to someone else while they had work: a phase's share of it tells
// a noisy host from a slow program.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice,
	// which user and nice already include]
	for i, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// stealPct returns the machine's CPU steal, in percent of its CPU time,
// since cpuTicks returned steal0 and total0 (0 when no time passed).
func stealPct(steal0, total0 int64) float64 {
	steal1, total1 := cpuTicks()
	if total1 <= total0 {
		return 0
	}
	return 100 * float64(steal1-steal0) / float64(total1-total0)
}
