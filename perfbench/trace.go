package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"gauntlet/internal/compiler"
	"gauntlet/internal/obs"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/eval"
	"gauntlet/internal/p4/printer"
	"gauntlet/internal/reduce"
	"gauntlet/internal/smt/solver"
	"gauntlet/internal/target/device"
	"gauntlet/internal/testgen"
	"gauntlet/internal/validate"
)

// span is one timed call into a layer. Spans of one program share Trace
// (the program's index in the traced batch, -1 when the caller cannot
// know it); Parent is the enclosing span's ID (0 for a root).
type span struct {
	Trace  int64  `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span now and returns its ID.
func (t *tracer) begin(trace int64, parent int, name string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id now and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// add records a finished span that lasted d and ended now.
func (t *tracer) add(trace int64, parent int, name string, d time.Duration) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now - d.Nanoseconds(), End: now})
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanPass wraps a compiler pass and records one span per call. The
// in-engine wrapper (part a) cannot know which program a call belongs
// to; in part (b), at names the current program and its compile span.
type spanPass struct {
	inner compiler.Pass
	tr    *tracer
	at    *spanParent
	// capture, when set, receives a copy of every program the pass sees.
	capture func(*ast.Program)
}

type spanParent struct {
	trace  int64
	parent int
}

func (p *spanPass) Name() string { return p.inner.Name() }

func (p *spanPass) Run(prog *ast.Program) (*ast.Program, error) {
	if p.capture != nil {
		p.capture(ast.CloneProgram(prog))
	}
	at := spanParent{trace: -1}
	if p.at != nil {
		at = *p.at
	}
	id := p.tr.begin(at.trace, at.parent, "pass."+p.Name())
	defer p.tr.end(id)
	return p.inner.Run(prog)
}

// layerRun is what part (b) measured: exact self times of the layer
// functions, called on one goroutine.
type layerRun struct {
	programs        int
	genCalls        int
	genNs           time.Duration
	compileCalls    int
	compileNs       time.Duration
	passNs          map[string]time.Duration
	validateNs      time.Duration
	queryCount      map[string]int
	queryNs         map[string]time.Duration
	cdclMs          []float64
	unknownVerdicts int
	testgenNs       time.Duration
	testgenMs       []float64
	cases           int
	deviceNs        time.Duration
	injections      int
	cache           validate.CacheStats
	internerBytes   uint64
}

var tiers = []string{validate.TierSimplified, validate.TierCacheHit, validate.TierHintReplay, validate.TierConcolic, validate.TierCDCL}

// driveLayers is part (b): it pushes the batch's programs through the
// layer functions one call at a time — generator.Generate (unless progs
// holds programs captured in part a), compiler.Compile,
// validate.SnapshotsContext and, when the workload runs packet tests and
// validation passed, testgen.GenerateContext and device.Inject — exactly
// as the engine's oracle stage orders them.
func (w *workload) driveLayers(ctx context.Context, progs []*ast.Program, tr *tracer) (*layerRun, error) {
	cfg, err := w.engineConfig()
	if err != nil {
		return nil, err
	}
	lr := &layerRun{passNs: map[string]time.Duration{}, queryCount: map[string]int{}, queryNs: map[string]time.Duration{}}
	at := &spanParent{}
	passes := make([]compiler.Pass, len(cfg.Passes))
	for i, p := range cfg.Passes {
		passes[i] = &spanPass{inner: p, tr: tr, at: at}
	}
	comp := compiler.New(passes...)
	cache := cfg.Cache
	n := int(w.slots)
	if progs != nil {
		n = len(progs)
	}
	for i := range n {
		trace := int64(i)
		root := tr.begin(trace, 0, "program")
		var prog *ast.Program
		if progs != nil {
			prog = progs[i]
		} else {
			id := tr.begin(trace, root, "generator.Generate")
			prog = generate(cfg.StartSeed + int64(i))
			lr.genNs += tr.end(id)
			lr.genCalls++
		}
		cid := tr.begin(trace, root, "compiler.Compile")
		*at = spanParent{trace: trace, parent: cid}
		res, err := comp.Compile(prog)
		lr.compileNs += tr.end(cid)
		lr.compileCalls++
		lr.programs++
		if err != nil {
			tr.end(root)
			continue // a crash or invalid transformation: no oracle
		}
		vid := tr.begin(trace, root, "validate.SnapshotsContext")
		opts := validate.Options{
			MaxConflicts: cfg.MaxConflicts,
			Cache:        cache,
			Concolic:     validate.Concolic{Seed: uint64(cfg.Seed)},
			QueryObs: func(tier string, d time.Duration) {
				tr.add(trace, vid, "query."+tier, d)
				lr.queryCount[tier]++
				lr.queryNs[tier] += d
				if tier == validate.TierCDCL {
					lr.cdclMs = append(lr.cdclMs, float64(d.Nanoseconds())/1e6)
				}
			},
		}
		vs, err := validate.SnapshotsContext(ctx, res, opts)
		lr.validateNs += tr.end(vid)
		if err != nil {
			return nil, fmt.Errorf("validate program %d: %w", i, err)
		}
		for _, v := range vs {
			if v.Err == nil && v.Status == solver.Unknown {
				lr.unknownVerdicts++
			}
		}
		if len(validate.Failures(vs)) == 0 && w.packets {
			topts := cfg.TestOpts
			topts.MaxConflicts = cfg.MaxConflicts
			topts.SMT = cache.Context()
			tid := tr.begin(trace, root, "testgen.GenerateContext")
			cases, err := testgen.GenerateContext(ctx, res.Snapshots[0].Prog, topts)
			d := tr.end(tid)
			lr.testgenNs += d
			lr.testgenMs = append(lr.testgenMs, float64(d.Nanoseconds())/1e6)
			if len(cases) == 0 && err != nil {
				return nil, fmt.Errorf("testgen program %d: %w", i, err)
			}
			lr.cases += len(cases)
			did := tr.begin(trace, root, "device.Inject")
			dev := device.New(res.Final, eval.ZeroUndef)
			for _, c := range cases {
				if _, err := dev.Inject(c.Config, c.Packet); err != nil {
					return nil, fmt.Errorf("device program %d: %w", i, err)
				}
				lr.injections++
			}
			lr.deviceNs += tr.end(did)
		}
		tr.end(root)
	}
	tr.mu.Lock()
	for _, s := range tr.spans {
		if name, ok := strings.CutPrefix(s.Name, "pass."); ok && s.Trace >= 0 {
			lr.passNs[name] += time.Duration(s.End - s.Start)
		}
	}
	tr.mu.Unlock()
	lr.cache = cache.Snapshot()
	lr.internerBytes = cache.Context().InternerStats().BytesEstimate
	return lr, nil
}

// traced is the per-layer run. It runs the batch once untraced and once
// with the benchmark's instruments installed (part a: the Generate
// wrapper, a span-recording wrapper around every pass and an obs
// registry), then drives the same programs through the layer functions
// on one goroutine (part b). The difference in programs_per_s between
// the untraced and the instrumented repetition is the tracing overhead.
func (w *workload) traced(ctx context.Context, spansPath string) (*result, error) {
	res := &result{}
	plain, err := w.runRep(ctx, nil)
	if err != nil {
		return nil, err
	}
	res.record(w, plain, nil)

	tr := newTracer()
	var capMu sync.Mutex
	var captured []*ast.Program
	ins := &instruments{reg: obs.NewRegistry()}
	ins.wrap = func(i int, p compiler.Pass) compiler.Pass {
		sp := &spanPass{inner: p, tr: tr}
		if i == 0 && w.mutateRatio > 0 {
			sp.capture = func(prog *ast.Program) {
				capMu.Lock()
				captured = append(captured, prog)
				capMu.Unlock()
			}
		}
		return sp
	}
	gb0, gr0 := solver.GateStats()
	inst, err := w.runRep(ctx, ins)
	if err != nil {
		return nil, err
	}
	gb1, gr1 := solver.GateStats()
	res.record(w, inst, plain)

	// Engine workers compile in nondeterministic order; sort the captured
	// programs so part (b) sees the same sequence every run.
	text := make(map[*ast.Program]string, len(captured))
	for _, p := range captured {
		text[p] = printer.Print(p)
	}
	sort.Slice(captured, func(i, j int) bool { return text[captured[i]] < text[captured[j]] })
	lr, err := w.driveLayers(ctx, captured, tr)
	if err != nil {
		return nil, err
	}
	res.Attempted += uint64(lr.programs)

	m := w.layerMetrics(plain, inst, lr, ins, gb1-gb0, gr1-gr0)
	res.Metrics = m
	printShares(os.Stdout, w.name, m)
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	fmt.Printf("%d spans written to %s\n", len(tr.spans), spansPath)
	return res, nil
}

// layers are the modules whose busy time the share table splits.
var layers = []string{"generator", "mutate", "compiler", "validate", "smt", "solver", "testgen", "device", "dedup", "reduce"}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics assembles every per-layer metric. Part (b) supplies the
// layer self times; part (a) supplies the engine's stage histograms and
// counters. For the fleet workload the worker's engine is out of reach,
// so its validation counters come from part (b)'s cache.
func (w *workload) layerMetrics(plain, inst *rep, lr *layerRun, ins *instruments, gatesBuilt, gatesReused uint64) map[string]metric {
	out := map[string]metric{}
	set := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }

	stage := map[string]time.Duration{}
	var stageSum time.Duration
	for _, s := range []string{"generate", "compile", "oracle", "dedup", "reduce"} {
		snap := ins.reg.Histogram("gauntlet_stage_duration_seconds", "", obs.Labels{"stage": s}).Snapshot()
		stage[s] = time.Duration(snap.SumNs)
		stageSum += stage[s]
		set("core.stage."+s+".busy_ms", "ms", ms(stage[s]))
	}
	wallCPU := inst.wall * time.Duration(runtime.NumCPU())
	idle := 0.0
	if !w.fleet {
		idle = 1 - float64(stageSum)/float64(wallCPU)
	}
	set("core.idle_share", "share", idle)
	s := inst.stats
	set("core.unique_findings", "count", float64(len(inst.findings)))
	set("core.duplicates", "count", float64(s.Duplicates))

	genCalls, genNs := lr.genCalls, lr.genNs
	if lr.genCalls == 0 {
		genCalls, genNs = int(ins.genCalls.Load()), time.Duration(ins.genNs.Load())
	}
	set("generator.calls", "count", float64(genCalls))
	set("generator.busy_ms", "ms", ms(genNs))

	mutateNs := time.Duration(0)
	if w.mutateRatio > 0 {
		mutateNs = max(0, stage["generate"]-time.Duration(ins.genNs.Load()))
	}
	set("mutate.mutated", "count", float64(s.Mutated))
	set("mutate.invalid", "count", float64(s.MutateInvalid))
	set("mutate.stale", "count", float64(s.MutateStale))
	set("corpus.admitted", "count", float64(inst.corpus.Admitted))
	set("corpus.admission_ratio", "ratio", ratio(inst.corpus.Admitted, inst.corpus.Admitted+inst.corpus.Rejected))
	set("corpus.fingerprints", "count", float64(inst.corpus.Fingerprints))

	var passSum time.Duration
	for _, name := range passNames() {
		passSum += lr.passNs[name]
		set("compiler.pass."+name+".busy_ms", "ms", ms(lr.passNs[name]))
	}
	set("compiler.calls", "count", float64(lr.compileCalls))
	set("compiler.busy_ms", "ms", ms(lr.compileNs))
	set("compiler.snapshot_ms", "ms", ms(lr.compileNs-passSum))

	var querySum time.Duration
	for _, t := range tiers {
		querySum += lr.queryNs[t]
		set("validate.query."+t+".count", "count", float64(lr.queryCount[t]))
		set("validate.query."+t+".busy_ms", "ms", ms(lr.queryNs[t]))
	}
	set("validate.busy_ms", "ms", ms(lr.validateNs))
	set("validate.formula_ms", "ms", ms(lr.validateNs-querySum))

	// Engine-wide validation and tape counters: Engine.Stats for engine
	// workloads, part (b)'s cache for the fleet.
	c := lr.cache
	unknown, interner := uint64(lr.unknownVerdicts), lr.internerBytes
	if !w.fleet {
		c = validate.CacheStats{
			BlockHits: s.BlockHits, BlockMisses: s.BlockMisses,
			VerdictHits: s.VerdictHits, VerdictMisses: s.VerdictMisses,
			SimpResolved: s.SimpResolved, TapesCompiled: s.TapesCompiled,
			ConcolicFalsified: s.ConcolicFalsified, ConcolicPackets: s.ConcolicPackets,
		}
		unknown, interner = s.UnknownVerdicts, s.Interner.BytesEstimate
	}
	set("validate.block_hit_ratio", "ratio", ratio(c.BlockHits, c.BlockHits+c.BlockMisses))
	set("validate.verdict_hit_ratio", "ratio", ratio(c.VerdictHits, c.VerdictHits+c.VerdictMisses))
	set("validate.simp_resolved", "count", float64(c.SimpResolved))
	set("validate.unknown_verdicts", "count", float64(unknown))
	set("smt.tapes_compiled", "count", float64(c.TapesCompiled))
	set("smt.concolic_packets", "count", float64(c.ConcolicPackets))
	set("smt.concolic_falsified", "count", float64(c.ConcolicFalsified))
	set("smt.interner_mb", "MB", float64(interner)/(1<<20))

	set("solver.gates_built", "count", float64(gatesBuilt))
	set("solver.gates_reused_ratio", "ratio", ratio(gatesReused, gatesBuilt+gatesReused))
	set("solver.cdcl.p50_ms", "ms", percentile(lr.cdclMs, 50))
	set("solver.cdcl.max_ms", "ms", slices.Max(append([]float64{0}, lr.cdclMs...)))

	set("testgen.busy_ms", "ms", ms(lr.testgenNs))
	set("testgen.cases", "count", float64(lr.cases))
	set("testgen.p50_ms", "ms", percentile(lr.testgenMs, 50))
	set("testgen.max_ms", "ms", slices.Max(append([]float64{0}, lr.testgenMs...)))
	set("device.busy_ms", "ms", ms(lr.deviceNs))
	set("device.injections", "count", float64(lr.injections))

	set("reduce.busy_ms", "ms", ms(stage["reduce"]))
	set("reduce.predicate_calls", "count", float64(s.ReducePredicateCalls))
	set("reduce.serial_calls", "count", float64(s.ReduceSerialCalls))
	set("reduce.probes_launched", "count", float64(s.ReduceProbesLaunched))
	set("reduce.probes_wasted", "count", float64(s.ReduceProbesWasted))
	useful := 0.0
	if s.ReduceProbesLaunched > 0 {
		useful = 1 - ratio(s.ReduceProbesWasted, s.ReduceProbesLaunched)
	}
	set("reduce.useful_ratio", "ratio", useful)
	set("reduce.cex_replay_hits", "count", float64(s.CexReplayHits))
	var nodes float64
	for _, f := range inst.findings {
		nodes += float64(reduce.Size(f.Program))
	}
	if len(inst.findings) > 0 {
		nodes /= float64(len(inst.findings))
	}
	set("reduce.witness_nodes_mean", "nodes", nodes)

	f := inst.fleet
	leaseNs := time.Duration(0)
	fleetIdle := 0.0
	if w.fleet {
		leaseNs = time.Duration(ins.reg.Histogram("gauntlet_fleet_lease_latency_seconds", "", obs.Labels{"worker": "bench"}).Snapshot().SumNs)
		fleetIdle = 1 - float64(leaseNs)/float64(inst.wall)
	}
	set("fleet.leases", "count", float64(f.LeasesTotal))
	set("fleet.leases_reissued", "count", float64(f.LeasesReissued))
	set("fleet.lease_busy_ms", "ms", ms(leaseNs))
	set("fleet.idle_share", "share", fleetIdle)

	plainPPS := float64(w.slots) / plain.wall.Seconds()
	instPPS := float64(w.slots) / inst.wall.Seconds()
	set("trace.programs_per_s", "1/s", instPPS)
	set("trace.overhead_share", "share", 1-instPPS/plainPPS)

	busy := map[string]time.Duration{
		"generator": genNs,
		"mutate":    mutateNs,
		"compiler":  lr.compileNs,
		"validate":  lr.validateNs - querySum + lr.queryNs[validate.TierSimplified] + lr.queryNs[validate.TierCacheHit],
		"smt":       lr.queryNs[validate.TierHintReplay] + lr.queryNs[validate.TierConcolic],
		"solver":    lr.queryNs[validate.TierCDCL],
		"testgen":   lr.testgenNs,
		"device":    lr.deviceNs,
		"dedup":     stage["dedup"],
		"reduce":    stage["reduce"],
	}
	var total time.Duration
	for _, l := range layers {
		total += busy[l]
	}
	for _, l := range layers {
		set("share."+l, "share", float64(busy[l])/float64(total))
	}
	return out
}

// passNames lists the reference pipeline's distinct pass names in
// pipeline order.
func passNames() []string {
	var out []string
	seen := map[string]bool{}
	ps, _ := (&workload{}).passes() // no defects: cannot fail
	for _, p := range ps {
		if !seen[p.Name()] {
			seen[p.Name()] = true
			out = append(out, p.Name())
		}
	}
	return out
}

// printShares prints the layer-share table and names the leading layer.
func printShares(out io.Writer, name string, m map[string]metric) {
	fmt.Fprintf(out, "layer shares of busy time, %s:\n", name)
	lead := ""
	for _, l := range layers {
		v := m["share."+l].Value
		fmt.Fprintf(out, "  %-10s %6.1f%%\n", l, 100*v)
		if lead == "" || v > m["share."+lead].Value {
			lead = l
		}
	}
	fmt.Fprintf(out, "leading layer: %s\n", lead)
	fmt.Fprintf(out, "tracing overhead: %.1f%% of programs_per_s\n", 100*m["trace.overhead_share"].Value)
}
