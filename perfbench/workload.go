package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gauntlet/internal/bugs"
	"gauntlet/internal/compiler"
	"gauntlet/internal/core"
	"gauntlet/internal/corpus"
	"gauntlet/internal/fleet"
	"gauntlet/internal/generator"
	"gauntlet/internal/obs"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/smt"
	"gauntlet/internal/target/bmv2"
	"gauntlet/internal/validate"
)

// workload is one closed batch: a fixed slot range pushed through the
// engine (or a one-worker fleet) with every heavy stage sized to nproc.
// A run repeats the batch, so each repetition does identical work and
// must produce identical output.
type workload struct {
	name string
	// start is the batch's first slot (generator seed); slots its size.
	start int64
	slots int64
	// master is the master schedule seed (EngineConfig.Seed).
	master int64
	// fixedMaster holds master at 0, the CLI's default -seed, whatever
	// the benchmark seed: the schedule decides which programs a
	// mutating workload runs.
	fixedMaster bool
	// mutateRatio and packets mirror EngineConfig.MutateRatio and
	// EngineConfig.PacketTests; reduction is always on.
	mutateRatio float64
	packets     bool
	// defects are bug-registry IDs instrumented into the pass pipeline.
	defects []string
	// fleet runs the batch through a coordinator and one in-process
	// worker (fleet.RunLocal) instead of a bare engine.
	fleet bool
}

// The four workloads. Slot counts keep one repetition to a few seconds
// on two cores, so a run repeats each batch several times and reports
// medians.
var workloads = []workload{
	// The paper's white-box P4C mode: generation plus translation
	// validation. Loads compiler, formulas, simplifier and CDCL; leaves
	// testgen, mutation and reduction idle.
	{name: "validate-only", slots: 256},
	// The CLI's default fuzz settings: mutation, corpus, coverage,
	// testgen and the device all load here and nowhere else.
	{name: "fuzz-default", slots: 64, mutateRatio: 0.5, packets: true, fixedMaster: true},
	// Two seeded miscompilations: reduction, dedup, the concolic tape
	// and counterexample replay do the work. Three sync rounds: with two,
	// half the commit samples come from each round, so commit_ms.p50
	// falls on the step between the rounds' latencies and flips between
	// runs.
	{name: "defect-hunt", slots: 96, defects: []string{"P4C-S-02", "P4C-S-06"}},
	// validate-only's batch through the fleet layer (lease, transfer,
	// merge) with one worker.
	{name: "fleet-1w", slots: 256, fleet: true},
}

// workloadByName returns a copy of the named workload with its batch
// starting at slot start and its master schedule seed taken from seed
// (nil if there is no such workload).
func workloadByName(name string, start, seed int64) *workload {
	for _, w := range workloads {
		if w.name == name {
			w.start = start
			if !w.fixedMaster {
				w.master = seed
			}
			return &w
		}
	}
	return nil
}

// passes is the v1model reference pipeline, with the workload's defects
// instrumented.
func (w *workload) passes() ([]compiler.Pass, error) {
	ps := append(compiler.DefaultPasses(), bmv2.BackendPasses()...)
	if len(w.defects) == 0 {
		return ps, nil
	}
	bs, err := w.defectBugs()
	if err != nil {
		return nil, err
	}
	return bugs.Instrument(ps, bs), nil
}

func (w *workload) defectBugs() ([]*bugs.Bug, error) {
	reg := bugs.Load()
	var out []*bugs.Bug
	for _, id := range w.defects {
		b := reg.ByID(id)
		if b == nil {
			return nil, fmt.Errorf("bug registry has no %s", id)
		}
		out = append(out, b)
	}
	return out, nil
}

// expectedPasses is the set of passes the workload's defects instrument,
// read from the bug registry rather than from any compiler output.
func (w *workload) expectedPasses() (map[string]bool, error) {
	bs, err := w.defectBugs()
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, b := range bs {
		out[b.Pass] = true
	}
	return out, nil
}

func generate(slot int64) *ast.Program {
	return generator.Generate(generator.DefaultConfig(slot))
}

// engineConfig is the workload's engine configuration for one
// repetition. Each repetition gets a private solver context, so the
// repetitions of a run start from the same state.
func (w *workload) engineConfig() (core.EngineConfig, error) {
	cfg := core.DefaultEngineConfig()
	cfg.StartSeed = w.start
	cfg.Seeds = w.slots
	cfg.Seed = w.master
	cfg.Workers = runtime.NumCPU()
	cfg.Backend = generator.V1Model
	cfg.MutateRatio = w.mutateRatio
	cfg.PacketTests = w.packets
	cfg.Reduce = true
	cfg.Cache = validate.NewCacheIn(smt.NewContext())
	cfg.Generate = generate
	ps, err := w.passes()
	if err != nil {
		return cfg, err
	}
	cfg.Passes = ps
	return cfg, nil
}

func (w *workload) fleetConfig() fleet.CoordinatorConfig {
	return fleet.CoordinatorConfig{
		Run: fleet.RunConfig{
			Seed:          w.master,
			Backend:       "v1model",
			EngineWorkers: runtime.NumCPU(),
			Reduce:        true,
		},
		StartSeed: w.start,
		Seeds:     w.slots,
	}
}

// rep is the outcome of one repetition of a batch.
type rep struct {
	wall     time.Duration
	commitMs []float64
	peakMB   float64
	findings []core.Finding
	// failed counts slots that ended in a tool error or quarantine.
	failed    uint64
	generated uint64
	corpus    corpus.Stats
	stats     core.Stats        // engine workloads
	fleet     fleet.FleetStatus // fleet workload
}

// instruments are the optional hooks of a traced repetition.
type instruments struct {
	reg      *obs.Registry
	wrap     func(i int, p compiler.Pass) compiler.Pass
	genCalls atomic.Int64
	genNs    atomic.Int64
}

// heapSampler tracks the peak live Go heap until stopped.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		h.peak = max(h.peak, sample[0].Value.Uint64())
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// stopMB stops the sampler, waits for it and returns the peak in MiB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// runRep runs one repetition of the batch. ins is nil for untraced runs.
func (w *workload) runRep(ctx context.Context, ins *instruments) (*rep, error) {
	runtime.GC()
	if w.fleet {
		return w.runFleetRep(ctx, ins)
	}
	cfg, err := w.engineConfig()
	if err != nil {
		return nil, err
	}
	base := cfg.StartSeed
	// genAt[i] is when slot base+i was handed to the generator; the fold
	// that commits the slot reads it (the pipeline's channels order the
	// two).
	genAt := make([]atomic.Int64, w.slots)
	cfg.Generate = func(slot int64) *ast.Program {
		t0 := time.Now()
		genAt[slot-base].Store(t0.UnixNano())
		p := generate(slot)
		if ins != nil {
			ins.genCalls.Add(1)
			ins.genNs.Add(int64(time.Since(t0)))
		}
		return p
	}
	r := &rep{}
	committed := base
	cfg.CheckpointPrograms = core.DefaultSyncInterval
	cfg.OnCheckpoint = func(next int64) {
		now := time.Now().UnixNano()
		for s := committed; s < next; s++ {
			if t := genAt[s-base].Load(); t != 0 {
				r.commitMs = append(r.commitMs, float64(now-t)/1e6)
			}
		}
		committed = next
	}
	if ins != nil {
		cfg.Obs = ins.reg
		for i, p := range cfg.Passes {
			cfg.Passes[i] = ins.wrap(i, p)
		}
	}
	heap := startHeapSampler()
	start := time.Now()
	e := core.NewEngine(cfg)
	r.findings = e.Run(ctx)
	r.wall = time.Since(start)
	r.peakMB = heap.stopMB()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := e.Stats()
	r.stats = s
	r.corpus = s.Corpus
	r.generated = s.Generated
	r.failed = s.CompileErrors + s.OracleErrors + s.Quarantined
	return r, nil
}

// leaseClock records, from the worker's progress log, when each lease
// starts running and how many slots it holds, and calls first (if set)
// at the first one.
type leaseClock struct {
	first  func()
	mu     sync.Mutex
	leases []leaseStart
}

type leaseStart struct {
	at    time.Time
	slots int64
}

// logf is a fleet.WorkerConfig.Logf; the lease line's arguments are the
// worker name, lease ID and the lease's slot range [start, end).
func (l *leaseClock) logf(format string, args ...any) {
	if !strings.HasPrefix(format, "fleet: %s running lease") || len(args) != 4 {
		return
	}
	start, _ := args[2].(int64)
	end, _ := args[3].(int64)
	l.mu.Lock()
	l.leases = append(l.leases, leaseStart{at: time.Now(), slots: end - start})
	n := len(l.leases)
	l.mu.Unlock()
	if n == 1 && l.first != nil {
		l.first()
	}
}

func (l *leaseClock) starts() []leaseStart {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.leases)
}

func (w *workload) runFleetRep(ctx context.Context, ins *instruments) (*rep, error) {
	cc := w.fleetConfig()
	if ins != nil {
		cc.Obs = ins.reg
	}
	clock := &leaseClock{}
	heap := startHeapSampler()
	start := time.Now()
	c, err := fleet.NewCoordinator(cc)
	if err != nil {
		return nil, err
	}
	err = fleet.RunLocal(ctx, c, []fleet.WorkerConfig{{Name: "bench", Logf: clock.logf}})
	end := time.Now()
	r := &rep{wall: end.Sub(start), peakMB: heap.stopMB()}
	if err != nil {
		return nil, fmt.Errorf("fleet run: %w", err)
	}
	// A fleet slot commits when its lease is released; with one worker a
	// lease's result arrives just before the worker asks for the next
	// lease, so the time from a lease's start to the next lease's start
	// (or the end of the run) is the work at risk for each of its slots.
	leases := clock.starts()
	for i, l := range leases {
		next := end
		if i+1 < len(leases) {
			next = leases[i+1].at
		}
		ms := float64(next.Sub(l.at).Nanoseconds()) / 1e6
		for range l.slots {
			r.commitMs = append(r.commitMs, ms)
		}
	}
	r.findings = c.Findings()
	r.fleet = c.Status()
	r.corpus = c.Corpus().Stats()
	r.generated = r.fleet.Totals.Generated
	r.failed = r.fleet.Totals.ToolErrors + r.fleet.Totals.Quarantined
	return r, nil
}

// setupTime measures the workload's set-up: from the start of the
// workload to the first slot handed to the generator (engine) or the
// first lease running on the worker (fleet). The run is cancelled there.
func (w *workload) setupTime() (time.Duration, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runtime.GC()
	var first atomic.Int64
	mark := func() {
		first.CompareAndSwap(0, time.Now().UnixNano())
		cancel()
	}
	t0 := time.Now()
	if w.fleet {
		c, err := fleet.NewCoordinator(w.fleetConfig())
		if err != nil {
			return 0, err
		}
		clock := &leaseClock{first: mark}
		_ = fleet.RunLocal(ctx, c, []fleet.WorkerConfig{{Name: "bench", Logf: clock.logf}}) // cancelled by design
	} else {
		cfg, err := w.engineConfig()
		if err != nil {
			return 0, err
		}
		cfg.Generate = func(slot int64) *ast.Program {
			mark()
			return generate(slot)
		}
		core.NewEngine(cfg).Run(ctx)
	}
	if first.Load() == 0 {
		return 0, fmt.Errorf("set-up probe ended before the first slot started")
	}
	return time.Duration(first.Load() - t0.UnixNano()), nil
}

// findingKey is everything about a finding that must repeat exactly:
// kind, failing pass, fingerprint and witness bytes.
func findingKey(f core.Finding) string {
	return fmt.Sprintf("%s|%s|%016x|%s", f.Kind, f.Pass, f.Fingerprint, f.Source)
}

// check verifies one repetition's outputs, and that they equal the first
// repetition's (ref is nil for the first). It returns every violation.
func (w *workload) check(r, ref *rep) []string {
	var bad []string
	if r.generated != uint64(w.slots) {
		bad = append(bad, fmt.Sprintf("%d of %d slots generated", r.generated, w.slots))
	}
	if r.failed != 0 {
		bad = append(bad, fmt.Sprintf("%d slots failed (tool error or quarantine)", r.failed))
	}
	if len(w.defects) == 0 {
		if len(r.findings) != 0 {
			bad = append(bad, fmt.Sprintf("%d findings on the reference pipeline, want 0 (first: %s in %s)",
				len(r.findings), r.findings[0].Kind, r.findings[0].Pass))
		}
	} else {
		want, err := w.expectedPasses()
		if err != nil {
			return append(bad, err.Error())
		}
		if len(r.findings) == 0 {
			bad = append(bad, "no findings with seeded defects instrumented")
		}
		for _, f := range r.findings {
			if f.Kind != core.FindingMiscompilation || !want[f.Pass] {
				bad = append(bad, fmt.Sprintf("finding %s in pass %s is not a seeded-defect miscompilation", f.Kind, f.Pass))
			}
		}
	}
	if w.fleet && r.fleet.LeasesReissued != 0 {
		bad = append(bad, fmt.Sprintf("%d leases re-issued in a fault-free run", r.fleet.LeasesReissued))
	}
	if w.fleet && int64(len(r.commitMs)) != w.slots {
		bad = append(bad, fmt.Sprintf("worker lease log accounts for %d of %d slots", len(r.commitMs), w.slots))
	}
	if ref == nil {
		return bad
	}
	if !slices.Equal(keys(r.findings), keys(ref.findings)) {
		bad = append(bad, "findings (fingerprints or witness bytes) differ between repetitions")
	}
	if r.corpus != ref.corpus {
		bad = append(bad, fmt.Sprintf("corpus differs between repetitions: %+v vs %+v", r.corpus, ref.corpus))
	}
	a, b := r.stats, ref.stats
	if a.Mutated != b.Mutated || a.MutateInvalid != b.MutateInvalid || a.MutateStale != b.MutateStale {
		bad = append(bad, "mutation counts differ between repetitions")
	}
	return bad
}

func keys(fs []core.Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = findingKey(f)
	}
	return out
}
