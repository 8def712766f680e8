// Command perfbench is the repository benchmark: fixed-seed batch
// workloads pushed through the public entry points the p4gauntlet CLI
// uses (core.NewEngine/Engine.Run, and fleet.NewCoordinator with
// fleet.RunLocal), with end-to-end metrics from untraced runs and
// per-layer metrics from a separate traced run. Every run also checks the
// outputs it measured.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//	perfbench --compare BASE.json NEW.json
//	perfbench --spread RESULT.json...
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {NAME: {"value": X, "unit": U}}}
//
// The full result, with its host stamp, is also written to
// .bench_build/perfbench/results/, and a traced run writes its spans next
// to it. --compare refuses results whose stamps differ in anything but
// the source revision; --spread reports run-to-run spread against the
// bounds in BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// outDir holds result and span files, relative to the repository root.
const outDir = ".bench_build/perfbench/results"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the line the benchmark contract reads.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is the saved form of a run: the summary plus its stamp and any
// correctness violations.
type result struct {
	Stamp      stamp    `json:"stamp"`
	Violations []string `json:"violations,omitempty"`
	// HostSteal is the share of the host's CPU time the hypervisor gave
	// to other guests during the run (/proc/stat "steal"; -1 when
	// unavailable): the noise a shared host adds to every timing.
	HostSteal float64 `json:"host_steal_share"`
	summary
}

func main() {
	name := flag.String("workload", "", "workload name: validate-only | fuzz-default | defect-hunt | fleet-1w")
	seed := flag.Int64("seed", 1, "master schedule seed (concolic inputs); fuzz-default keeps the CLI default 0, because its schedule picks the mutants")
	start := flag.Int64("start", 0, "first slot of the batch (the generator seed of its first program)")
	seconds := flag.Int("seconds", 20, "measured time per run: the batch repeats until this much has passed")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics instead of end-to-end ones")
	compare := flag.Bool("compare", false, "compare two saved results given as arguments (base, new)")
	spread := flag.Bool("spread", false, "print each end-to-end metric's median and quartile spread over the saved results given as arguments")
	flag.Parse()
	if *spread {
		if err := printSpread(os.Stdout, flag.Args()); err != nil {
			fail("%v", err)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fail("--compare needs two result files")
		}
		if err := compareResults(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fail("%v", err)
		}
		return
	}
	w := workloadByName(*name, *start, *seed)
	if w == nil {
		fail("unknown workload %q", *name)
	}
	if *seed < 0 || *start < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail("need --seed >= 0, --start >= 0, --seconds >= 1 and --trace 0 or 1")
	}
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		fail("run from the repository root: %v", err)
	}
	st := newStamp(w, *seed, *seconds, *trace == 1)
	js, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", js)

	base := filepath.Join(outDir, fmt.Sprintf("%s-start%d-seed%d", w.name, w.start, *seed))
	steal := startStealMeter()
	var res *result
	var err error
	if *trace == 1 {
		res, err = w.traced(context.Background(), base+"-spans.jsonl")
	} else {
		res, err = w.measure(context.Background(), time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fail("%s: %v", w.name, err)
	}
	res.Stamp = st
	res.HostSteal = steal.share()
	fmt.Printf("host steal during the run: %.1f%% of CPU time\n", 100*res.HostSteal)
	for name := range res.Metrics {
		if !validName(name) {
			fail("metric name %q is not a letter or digit followed by letters, digits, '_', '.' or '-'", name)
		}
	}
	for _, v := range res.Violations {
		fmt.Printf("CHECK FAILED: %s\n", v)
	}
	path := fmt.Sprintf("%s-trace%d.json", base, *trace)
	if err := writeJSON(path, res); err != nil {
		fail("%v", err)
	}
	fmt.Printf("result written to %s\n", path)
	line, err := json.Marshal(res.summary)
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(line))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// setupProbes is how many times a run measures set-up; it reports the
// median.
const setupProbes = 101

// measure is the untraced run: set-up probes, then repetitions of the
// batch for up to about d.
func (w *workload) measure(ctx context.Context, d time.Duration) (*result, error) {
	var setups []float64
	for range setupProbes {
		s, err := w.setupTime()
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.Seconds())
	}
	res := &result{}
	var first *rep
	var pps, heap, commits []float64
	start := time.Now()
	// Repeat while the next repetition is expected to end within d, but
	// at least twice, so every run compares one repetition's output with
	// another's.
	for len(pps) < 2 || time.Since(start)*time.Duration(len(pps)+1)/time.Duration(len(pps)) <= d {
		r, err := w.runRep(ctx, nil)
		if err != nil {
			return nil, err
		}
		res.record(w, r, first)
		if first == nil {
			first = r
		}
		pps = append(pps, float64(w.slots)/r.wall.Seconds())
		heap = append(heap, r.peakMB)
		commits = append(commits, r.commitMs...)
		fmt.Printf("rep %d: %.2fs %.1f programs/s, %d findings, peak heap %.1f MiB\n",
			len(pps), r.wall.Seconds(), pps[len(pps)-1], len(r.findings), r.peakMB)
	}
	fmt.Printf("%d commit samples; the highest percentile with at least 10 beyond it is p%d\n",
		len(commits), tailPercentile(len(commits)))
	res.Metrics = endToEnd(pps, commits, setups, heap)
	return res, nil
}

// endToEnd computes the end-to-end metrics from a run's samples: one
// throughput, set-up time and peak heap per repetition or probe, and
// every commit latency of every repetition.
func endToEnd(pps, commits, setups, heap []float64) map[string]metric {
	return map[string]metric{
		"programs_per_s": {median(pps), "1/s"},
		"commit_ms.p50":  {percentile(commits, 50), "ms"},
		"commit_ms.p90":  {percentile(commits, 90), "ms"},
		"setup_s":        {median(setups), "s"},
		"peak_heap_mb":   {median(heap), "MB"},
	}
}

// record folds one repetition's attempts, failures and check results
// into the result. A repetition that fails a check counts all its slots
// as failed.
func (res *result) record(w *workload, r, ref *rep) {
	res.Attempted += uint64(w.slots)
	bad := w.check(r, ref)
	res.Violations = append(res.Violations, bad...)
	if len(bad) > 0 {
		res.Failed += uint64(w.slots)
	} else {
		res.Failed += r.failed
	}
	res.Correct = len(res.Violations) == 0
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printSpread groups untraced results by workload and prints, for every
// end-to-end metric, the median over runs and the distance between the
// first and third quartiles as a share of it, next to the metric's bound.
// Results from different hosts are refused.
func printSpread(out io.Writer, paths []string) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	byWorkload := map[string][]*result{}
	var order []string
	var first *result
	for _, p := range paths {
		r, err := readResult(p)
		if err != nil {
			return err
		}
		if first == nil {
			first = r
		}
		if m := first.Stamp.hostMismatch(r.Stamp); m != "" {
			return fmt.Errorf("%s: refusing to pool results with different stamps (%s)", p, m)
		}
		if !r.Correct {
			return fmt.Errorf("%s: run failed its correctness checks", p)
		}
		if _, ok := byWorkload[r.Stamp.Workload]; !ok {
			order = append(order, r.Stamp.Workload)
		}
		byWorkload[r.Stamp.Workload] = append(byWorkload[r.Stamp.Workload], r)
	}
	for _, w := range order {
		rs := byWorkload[w]
		var steal []float64
		for _, r := range rs {
			steal = append(steal, r.HostSteal)
		}
		fmt.Fprintf(out, "%s: %d runs, median host steal %.1f%%\n", w, len(rs), 100*median(steal))
		for _, m := range spec.EndToEnd {
			var xs []float64
			for _, r := range rs {
				xs = append(xs, r.Metrics[m.Name].Value)
			}
			sp, err := relSpread(xs)
			if err != nil {
				return fmt.Errorf("%s %s: %w", w, m.Name, err)
			}
			fmt.Fprintf(out, "  %-16s median %12.6f %-4s spread %5.1f%% of median (bound %.0f%%)\n",
				m.Name, median(xs), m.Unit, 100*sp, 100*m.Bound)
		}
	}
	return nil
}

// compareResults prints the relative change of every metric between two
// saved results, after refusing results from different hosts, inputs or
// settings. End-to-end metrics are judged against their BENCHMARK.json
// bounds; it returns an error naming any that regressed beyond it.
func compareResults(out io.Writer, basePath, newPath string) error {
	base, err := readResult(basePath)
	if err != nil {
		return err
	}
	cur, err := readResult(newPath)
	if err != nil {
		return err
	}
	if m := base.Stamp.mismatch(cur.Stamp); m != "" {
		return fmt.Errorf("refusing to compare results with different stamps (%s)", m)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s seed %d: %s -> %s\n", base.Stamp.Workload, base.Stamp.Seed, base.Stamp.Rev, cur.Stamp.Rev)
	var regressed []string
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		b, okB := base.Metrics[m.Name]
		c, okC := cur.Metrics[m.Name]
		if !okB || !okC {
			continue
		}
		change := math.NaN()
		if b.Value != 0 {
			change = (c.Value - b.Value) / math.Abs(b.Value)
		}
		verdict := ""
		if m.Bound > 0 {
			ok, err := withinBound(b.Value, c.Value, m.Better, m.Bound)
			if err != nil {
				return err
			}
			verdict = fmt.Sprintf("within %.0f%% bound", 100*m.Bound)
			if !ok {
				verdict = fmt.Sprintf("REGRESSED beyond %.0f%% bound", 100*m.Bound)
				regressed = append(regressed, m.Name)
			}
		}
		fmt.Fprintf(out, "%-44s %12.4f %12.4f %-6s %+7.1f%%  %s\n", m.Name, b.Value, c.Value, m.Unit, 100*change, verdict)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("regressed beyond bound: %v", regressed)
	}
	return nil
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
