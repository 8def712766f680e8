package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// stamp identifies the host, the build and the inputs a result came
// from. Two results are comparable only when every field but Rev agrees:
// Rev is what an A/B comparison varies.
type stamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Rev        string `json:"rev"`
	Workload   string `json:"workload"`
	// Seed is --seed; MasterSeed is the master schedule seed the
	// workload ran with; StartSeed is the batch's first slot (--start)
	// and Slots its size.
	Seed       int64 `json:"seed"`
	MasterSeed int64 `json:"master_seed"`
	StartSeed  int64 `json:"start_seed"`
	Slots      int64 `json:"slots"`
	Seconds    int   `json:"seconds"`
	Trace      bool  `json:"trace"`
}

func newStamp(w *workload, seed int64, seconds int, trace bool) stamp {
	return stamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Rev:        sourceRev(),
		Workload:   w.name,
		Seed:       seed,
		MasterSeed: w.master,
		StartSeed:  w.start,
		Slots:      w.slots,
		Seconds:    seconds,
		Trace:      trace,
	}
}

// hostMismatch names the first host field on which a and b differ (""
// when they ran on the same kind of host).
func (a stamp) hostMismatch(b stamp) string {
	return firstDiff([]field{
		{"gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS},
		{"nproc", a.NProc, b.NProc},
		{"cpu_model", a.CPUModel, b.CPUModel},
		{"go_version", a.GoVersion, b.GoVersion},
	})
}

// mismatch names the first field, other than Rev, on which a and b
// differ ("" when they are comparable).
func (a stamp) mismatch(b stamp) string {
	if m := a.hostMismatch(b); m != "" {
		return m
	}
	return firstDiff([]field{
		{"workload", a.Workload, b.Workload},
		{"seed", a.Seed, b.Seed},
		{"master_seed", a.MasterSeed, b.MasterSeed},
		{"start_seed", a.StartSeed, b.StartSeed},
		{"slots", a.Slots, b.Slots},
		{"seconds", a.Seconds, b.Seconds},
		{"trace", a.Trace, b.Trace},
	})
}

type field struct {
	name string
	a, b any
}

func firstDiff(fs []field) string {
	for _, f := range fs {
		if f.a != f.b {
			return fmt.Sprintf("%s: %v vs %v", f.name, f.a, f.b)
		}
	}
	return ""
}

// stealMeter measures the hypervisor's steal share of CPU time between
// its start and a call to share, from the first line of /proc/stat.
type stealMeter struct{ steal, total uint64 }

func startStealMeter() stealMeter {
	s, t := readCPUStat()
	return stealMeter{s, t}
}

// share returns the steal share since the meter started, or -1 when
// /proc/stat is unreadable.
func (m stealMeter) share() float64 {
	s, t := readCPUStat()
	if t <= m.total {
		return -1
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// readCPUStat returns the host's cumulative steal and total CPU ticks
// (zeros when unavailable).
func readCPUStat() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
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

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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

// sourceRev is the git revision the binary was built from when the build
// recorded one, otherwise a digest of the module sources under the
// working directory (the benchmark also runs from exported trees that
// are not git repositories).
func sourceRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			return "git:" + rev + dirty
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:16]
}
