package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gauntlet/internal/compiler"
	"gauntlet/internal/corpus"
	"gauntlet/internal/coverage"
	"gauntlet/internal/p4/ast"
	"gauntlet/internal/p4/printer"
	"gauntlet/internal/reduce"
)

// unit is a program moving between the generate, compile and oracle
// stages. prof is the AST coverage profile when the generate stage
// already computed one (mutants profile themselves for the novelty
// check); the compile stage fills it in otherwise.
type unit struct {
	seed    int64
	lease   *leaseRun
	prog    *ast.Program
	res     *compiler.Result
	prof    *coverage.Profile
	mutated bool
	// baseID is the corpus seed the program was mutated from (-1 for
	// fresh generation): the dynamic-energy feedback target.
	baseID int
	// prov is the provenance trace under construction: each stage fills
	// its fields in, and whichever stage produces a finding attaches the
	// pointer. A unit produces at most one finding (crash-family XOR
	// oracle), so the pointer is never shared between two findings.
	prov *Provenance
}

// task is one scheduled program slot: fresh grammar generation from the
// slot seed, or mutation of corpus seeds under a slot-derived rand stream.
// Tasks are pure values — a task replayed on any worker produces the same
// program.
type task struct {
	slot        int64
	lease       *leaseRun
	mutate      bool
	base, donor *corpus.Seed
	rngSeed     int64
}

// leaseRun is a lease in flight: its place in the run's round sequence
// and its lease-scoped outcome state.
type leaseRun struct {
	Lease
	round0   int64 // run-wide index of the lease's first round
	start    time.Time
	findings []Finding
	// tally is the stats digest: stage workers bump it with atomic adds,
	// which all happen before the lease's end marker reaches the report.
	tally LeaseStats
}

// record is a slot report flowing to the admission collector. Each
// scheduled slot sends exactly one coverage report (cancellation aside),
// including slots that failed before compiling, which report a nil prof
// that counts the fold but is never admitted. astFP is the profile's
// fingerprint before pass-trace edges were folded in — the novelty key
// the mutation pre-filter tests against.
//
// Each unit the compile stage forwarded also sends one oracle verdict
// report (oracle set), quarantined and errored units included, with a
// nil finding so the collector's one-round-late barrier still counts
// them.
type record struct {
	slot   int64
	lease  *leaseRun
	oracle bool
	prog   *ast.Program
	prof   *coverage.Profile
	astFP  uint64
	// baseID is the mutation base's corpus seed ID (-1 = fresh
	// generation) and crashed whether the program produced a
	// crash/invalid-transform finding at the compile stage — the two
	// deterministic inputs to the energy fold.
	baseID  int
	crashed bool
	// toOracle marks a unit forwarded to the oracle stage: the collector
	// counts these per round so the one-round-late oracle-energy fold
	// knows when a round's oracle verdicts are complete.
	toOracle bool
	// finding carries the slot's candidate, if any. Candidates ride the
	// records instead of a free-running channel so the collector can
	// release them in canonical (round, slot) order — which concrete
	// program represents a deduplicated fingerprint, and hence the
	// reduced witness bytes, must not depend on worker interleaving.
	finding *Finding
}

// Dynamic-energy bump fractions (of a seed's admission energy), folded
// at round boundaries: a mutant earning corpus admission is mild
// evidence its base is productive; a mutant producing a finding —
// compile-stage or oracle-stage — is strong evidence.
const (
	admissionBump = 0.5
	findingBump   = 1.0
)

// mix derives a per-slot rand seed from the master schedule seed
// (splitmix64-style finalizer, so adjacent slots decorrelate).
func mix(seed, slot int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(slot+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// originOf renders a unit's provenance for Finding.Origin.
func originOf(mutated bool) string {
	if mutated {
		return "mutate"
	}
	return "generate"
}

// Run executes the pipeline until the seed range is exhausted or ctx is
// cancelled, and returns the unique findings (deduplicated by fingerprint,
// reduced when enabled). It is the one-lease case of RunLeases: the lease
// is [StartSeed, StartSeed+Seeds) over the engine's corpus. It is safe to
// poll Stats concurrently; Run itself must not be called twice on one
// Engine.
func (e *Engine) Run(ctx context.Context) []Finding {
	taken := false
	return e.RunLeases(ctx, func() (Lease, bool) {
		ok := !taken
		taken = true
		return Lease{Start: e.cfg.StartSeed, Count: e.cfg.Seeds, CampaignStart: e.cfg.StartSeed, Corpus: e.corpus}, ok
	})
}

// pipeline is one RunLeases invocation: its context and the bounded
// channels between stages, which share nothing else. Each stage is a
// method, or a type where its state outlives a unit (collector, reporter).
type pipeline struct {
	e         *Engine
	ctx       context.Context
	roundSize int64
	tasks     chan task    // schedule → generate
	gen       chan unit    // generate → compile
	comp      chan unit    // compile → oracle
	recs      chan record  // generate/compile/oracle → collector
	cands     chan Finding // collector → dedup
	red       chan Finding // dedup → reduce
	out       chan Finding // dedup/reduce → report
	// folds carries "round folded" signals from the collector to the
	// scheduler. At most one signal is ever outstanding (the scheduler
	// consumes fold r before emitting round r+1, and fold r+1 cannot
	// complete before round r+1 is fully emitted), so capacity 1 with a
	// non-blocking send never drops.
	folds chan struct{}
}

// RunLeases executes the pipeline over a stream of leases. The scheduler
// calls next whenever it needs more slots, so lease N+1 generates and
// compiles while lease N's oracle tail and reductions drain. A lease with
// a Done hook reports through it; the unique findings of leases without
// one are returned. RunLeases returns once next reports no further lease
// and every lease taken has completed, or ctx is cancelled. Like Run, it
// must be called at most once per Engine.
func (e *Engine) RunLeases(ctx context.Context, next func() (Lease, bool)) []Finding {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	e.startNano.Store(time.Now().UnixNano())
	// Liveness baseline: a run that has not folded its first round yet is
	// "in progress since start", not wedged.
	e.lastFoldNano.Store(time.Now().UnixNano())
	defer func() { e.endNano.Store(time.Now().UnixNano()) }()

	workers := e.cfg.Workers
	qd := 2 * workers // every inter-stage queue holds two units per worker
	p := &pipeline{
		e: e, ctx: ctx, roundSize: int64(e.cfg.SyncInterval),
		tasks: make(chan task, qd), gen: make(chan unit, qd), comp: make(chan unit, qd),
		recs: make(chan record, qd), cands: make(chan Finding, qd),
		red: make(chan Finding, qd), out: make(chan Finding, qd),
		folds: make(chan struct{}, 1),
	}
	// The first lease is taken before any stage starts; each later one
	// once the current lease's last slot is handed on, so it overlaps the
	// current lease's drain.
	ls, more := next()
	go p.schedule(ls, more, next)
	// Yield once, so the first slot is handed on before the stage
	// workers below spin up.
	runtime.Gosched()
	gen := pool(workers, p.generate)
	closeAfter(p.gen, gen)
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		(&collector{p: p, live: true,
			pending: map[int64][]record{}, pendingOr: map[int64][]record{},
			oracleExpected: map[int64]int{}}).run()
	}()
	comp := pool(workers, p.compile)
	closeAfter(p.comp, comp)
	oracle := pool(workers, p.inspect)
	// All three unit stages send fold records, so the collector's input
	// closes only once every one of them has exited.
	closeAfter(p.recs, gen, comp, oracle)
	dedup := pool(1, func(int) { p.dedup() })
	shrink := pool(workers, p.shrink)
	closeAfter(p.out, dedup, shrink)
	findings := (&reporter{p: p, seen: newFingerprintSet(e.cfg.KnownFindings)}).run()
	// Let the collector fold the final round before RunLeases returns, so
	// the corpus callers see (save, fingerprint sets) is the finished one.
	<-collectorDone
	return findings
}

// pool runs n workers of one stage (each gets its index, the histogram
// shard it observes into); the group completes when all have exited.
func pool(n int, work func(w int)) *sync.WaitGroup {
	wg := new(sync.WaitGroup)
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	return wg
}

// closeAfter closes ch once every group of its senders has exited.
func closeAfter[T any](ch chan T, senders ...*sync.WaitGroup) {
	go func() {
		for _, wg := range senders {
			wg.Wait()
		}
		close(ch)
	}()
}

// send delivers v unless the context is cancelled first.
func send[T any](ctx context.Context, ch chan<- T, v T) bool {
	select {
	case ch <- v:
		return true
	case <-ctx.Done():
		return false
	}
}

// bump counts one event on an engine counter and on the matching field
// of a lease's tally.
func bump(engine *atomic.Uint64, lease *uint64) {
	engine.Add(1)
	atomic.AddUint64(lease, 1)
}

// errQuarantined is the supervised-stage runner's report that the body
// faulted and the unit was quarantined.
var errQuarantined = errors.New("quarantined")

// supervised runs one unit's stage body on stage worker w under the
// fault supervisor, fault hook first, and times it from outside: an
// abandoned stalled body may still be writing, so nothing it touches is
// read on the fault path. It returns the latency and body's error, or
// errQuarantined after a panic or stall — the unit is quarantined and,
// before the reduce stage, its bare record sent to the collector. live
// is false when the run was cancelled and the worker must exit.
func (p *pipeline) supervised(w int, j job, body func() error) (d time.Duration, err error, live bool) {
	e := p.e
	start := time.Now()
	err, fault, cancelled := supervise(p.ctx, e.cfg.StageTimeout, func() error {
		if err := e.injectFault(p.ctx, stageNames[j.stage], j.slot); err != nil {
			return err
		}
		return body()
	})
	if cancelled {
		return 0, nil, false
	}
	d = time.Since(start)
	if m := e.metrics; m != nil {
		m.stageDur[j.stage].ObserveShard(w, d)
	}
	if fault == nil {
		return d, err, true
	}
	e.quarantine(j, fault)
	if j.stage == stageReduce {
		return d, errQuarantined, true
	}
	// The program is lost, but the round-fold barrier counts slots and
	// oracle verdicts: the unit's bare record still goes to the collector.
	return d, errQuarantined, send(p.ctx, p.recs, record{slot: j.slot, lease: j.lease, oracle: j.stage == stageOracle, baseID: -1})
}

// job is u's identity in the given stage.
func (u *unit) job(stage int) job { return job{stage, u.lease, u.seed, originOf(u.mutated), u.prog} }

// candidate builds u's finding candidate: the fields every kind takes
// from the unit that triggered it.
func (e *Engine) candidate(u *unit, kind FindingKind, pass, detail string) *Finding {
	return &Finding{
		Kind: kind, Seed: u.seed, Backend: e.cfg.Backend.String(),
		Pass: pass, Detail: detail, Origin: originOf(u.mutated),
		Program: u.prog, Provenance: u.prov, lease: u.lease,
	}
}

// schedule is stage 1a. A single goroutine decides, slot by slot,
// whether the program comes from fresh grammar generation or from
// mutating corpus seeds, all under the master Seed's rand stream.
// Mutation decisions for a round draw only on the corpus as of the
// previous round's fold (the collector), so the schedule — and with it
// the finding set and the final corpus — is a pure function of the
// configuration, independent of worker count and channel interleaving.
func (p *pipeline) schedule(ls Lease, more bool, next func() (Lease, bool)) {
	defer close(p.tasks)
	cfg := &p.e.cfg
	round := int64(0) // run-wide index of the next round to start
	for ; more; ls, more = next() {
		l := &leaseRun{Lease: ls, round0: round, start: time.Now()}
		// A fresh schedule stream per lease keeps each lease a pure
		// function of the configuration and its own slots (only mutation
		// draws from it).
		var sched *rand.Rand
		if cfg.MutateRatio > 0 {
			sched = rand.New(rand.NewSource(cfg.Seed))
		}
		for i := int64(0); l.Count <= 0 || i < l.Count; i++ {
			if i%p.roundSize == 0 {
				if round > 0 && cfg.MutateRatio > 0 {
					select {
					case <-p.folds:
					case <-p.ctx.Done():
						return
					}
				}
				round++
			}
			slot := l.Start + i
			t := task{slot: slot, lease: l, rngSeed: mix(cfg.Seed, slot)}
			if cfg.MutateRatio > 0 && sched.Float64() < cfg.MutateRatio {
				t.base = l.Corpus.Select(sched)
				t.donor = l.Corpus.Select(sched)
				t.mutate = t.base != nil
			}
			if !send(p.ctx, p.tasks, t) {
				return
			}
			if i == 0 && l.Started != nil {
				l.Started()
			}
		}
	}
}

// generate is stage 1b: workers materialize tasks — grammar generation
// or corpus mutation plus the cheap type-check gate — in parallel; each
// task is a pure value, so parallelism cannot perturb the schedule.
func (p *pipeline) generate(w int) {
	e := p.e
	for t := range p.tasks {
		if p.ctx.Err() != nil {
			return // draining: start no new program
		}
		u := unit{seed: t.slot, lease: t.lease, baseID: -1}
		var names []string
		d, err, live := p.supervised(w, job{stageGenerate, t.lease, t.slot, originOf(t.mutate), nil}, func() error {
			u.prog, u.prof, names, u.mutated = e.materialize(t)
			return nil
		})
		if !live {
			return
		}
		e.generated.Add(1)
		switch {
		case err == errQuarantined:
		case err != nil:
			// Injected/stage error: a tool limitation, not a bug. The
			// program is lost; its bare record still counts the fold.
			e.toolError(t.lease, &e.compileErrors, t.slot, err)
			if !send(p.ctx, p.recs, record{slot: t.slot, lease: t.lease, baseID: -1}) {
				return
			}
		default:
			if u.mutated {
				e.mutated.Add(1)
				u.baseID = t.base.ID
			}
			u.prov = &Provenance{
				Slot:       t.slot,
				Round:      (t.slot - t.lease.CampaignStart) / p.roundSize,
				Origin:     originOf(u.mutated),
				Mutations:  names,
				GenerateNs: d.Nanoseconds(),
			}
			if !send(p.ctx, p.gen, u) {
				return
			}
		}
	}
}

// compile is stage 2. Every unit reports its coverage profile — AST
// features plus the pass trace, or a crash/invalid edge — to the
// collector, and crash-family candidates ride that record; clean
// compilations flow on to the oracle stage.
func (p *pipeline) compile(w int) {
	e := p.e
	for u := range p.gen {
		var out Outcome
		var prof *coverage.Profile
		var astFP uint64
		d, err, live := p.supervised(w, u.job(stageCompile), func() error {
			out = e.oracle.Compile(u.prog)
			prof = u.prof
			if prof == nil {
				prof = coverage.OfProgram(u.prog)
			}
			astFP = prof.Fingerprint()
			switch {
			case out.Crash != nil:
				prof.AddPassCrash(out.Crash.Pass)
			case out.Invalid != nil:
				prof.AddPassInvalid(out.Invalid.Pass)
			case out.Err == nil:
				prof.AddTrace(out.Result.Trace)
			}
			return out.Err
		})
		if !live {
			return
		}
		if err == errQuarantined {
			continue
		}
		u.prov.CompileNs = d.Nanoseconds()
		if err != nil {
			// The body returns out.Err, so this only rewrites it when the
			// error was injected before compilation produced one.
			out.Err = err
		}
		rec := record{
			slot: u.seed, lease: u.lease, prog: u.prog, prof: prof, astFP: astFP,
			baseID:   u.baseID,
			crashed:  out.Crash != nil || out.Invalid != nil,
			toOracle: out.Err == nil && out.Crash == nil && out.Invalid == nil,
		}
		switch {
		case out.Crash != nil:
			bump(&e.crashes, &u.lease.tally.Crashes)
			rec.finding = e.candidate(&u, FindingCrash, out.Crash.Pass,
				fmt.Sprintf("crash in %s: %s", out.Crash.Pass, out.Crash.Msg))
			rec.finding.crashMsg = out.Crash.Msg
		case out.Invalid != nil:
			bump(&e.invalids, &u.lease.tally.InvalidTransforms)
			rec.finding = e.candidate(&u, FindingInvalidTransform, out.Invalid.Pass, out.Invalid.Error())
			rec.finding.crashMsg = rec.finding.Detail
		}
		if !send(p.ctx, p.recs, rec) {
			return
		}
		switch {
		case out.Err != nil:
			e.toolError(u.lease, &e.compileErrors, u.seed, out.Err)
		case rec.finding != nil:
			// The candidate travelled with the record above.
		default:
			e.compiled.Add(1)
			u.res = out.Result
			if !send(p.ctx, p.comp, u) {
				return
			}
		}
	}
}

// inspect is stage 3, the oracle: translation validation plus packet
// tests. Every unit sends exactly one oracle record — finding or not,
// quarantined or not — which the collector's one-round-late barrier
// counts; a candidate rides it.
func (p *pipeline) inspect(w int) {
	e := p.e
	for u := range p.comp {
		out := Outcome{Result: u.res}
		// Per-unit oracle copy (InspectLadder copies again for its ladder
		// rungs anyway): the QueryObs hook accumulates this unit's
		// resolution-tier counts for provenance. The tiers map is
		// goroutine-private — queries run sequentially inside one
		// inspection — and is read only on the success path.
		oc := *e.oracle
		var tiers map[string]uint64
		oc.QueryObs = func(tier string, d time.Duration) {
			if tiers == nil {
				tiers = make(map[string]uint64, 4)
			}
			tiers[tier]++
			if m := e.metrics; m != nil {
				m.observeQuery(tier, d)
			}
		}
		d, err, live := p.supervised(w, u.job(stageOracle), func() error {
			oc.InspectLadder(p.ctx, &out)
			return nil
		})
		if !live {
			return
		}
		if err == errQuarantined {
			continue
		}
		if err != nil {
			out = Outcome{Result: u.res, Err: err}
		}
		u.prov.OracleNs = d.Nanoseconds()
		u.prov.QueryTiers = tiers
		if out.Unknowns > 0 {
			e.unknownVerdicts.Add(uint64(out.Unknowns))
		}
		if out.Retried {
			e.oracleRetries.Add(1)
		}
		var cand *Finding
		switch {
		case out.TimedOut:
			// The escalation ladder (full verdict → doubled-budget retry →
			// Unknown) bottomed out: an explicit weakened verdict,
			// quarantined for offline triage.
			e.timeouts.Add(1)
			e.quarantine(u.job(stageOracle), &stageFault{kind: "timeout", symptom: fmt.Sprintf(
				"oracle exceeded %v wall-clock budget twice (retry at 2x included)", e.oracle.Timeout)})
		case out.Err != nil:
			if p.ctx.Err() != nil {
				return
			}
			e.toolError(u.lease, &e.oracleErrors, u.seed, out.Err)
		case len(out.Failures) > 0:
			bump(&e.miscompiles, &u.lease.tally.Miscompilations)
			f := out.Failures[0]
			cand = e.candidate(&u, FindingMiscompilation, f.PassB, f.String())
			cand.cex = f.Counterexample
		case len(out.Mismatches) > 0:
			bump(&e.mismatches, &u.lease.tally.Mismatches)
			cand = e.candidate(&u, FindingMismatch, "", out.Mismatches[0])
			if len(out.MismatchCases) > 0 {
				mc := out.MismatchCases[0]
				cand.replay = &mc
			}
		default:
			e.clean.Add(1)
		}
		if !send(p.ctx, p.recs, record{slot: u.seed, lease: u.lease, oracle: true, baseID: u.baseID, finding: cand}) {
			return
		}
	}
}

// collector is stage 1c and the only owner of round state. Records
// buffer per round (pending) and fold in canonical slot order once the
// round is complete, so corpus admission — which is order-sensitive (a
// program is admitted only if it still adds coverage) — is identical on
// any worker count. It is also the sole producer of finding candidates,
// released to dedup in canonical (round, slot) order at fold boundaries,
// so which concrete program represents each deduplicated fingerprint is a
// pure function of the schedule. Epoch rotation and checkpoints fire
// only here.
//
// Oracle findings surface after their own round has folded, so their
// candidates and energy fold one round late: round r's fold waits until
// round r-1's oracle verdicts (oracleExpected[r-1], counted at r-1's own
// fold) are all in pendingOr, and releases them — slot-sorted — before
// r's admissions. A lease's last round has no following fold in the
// lease, so its oracle energy is dropped; that too is a pure function of
// the schedule.
type collector struct {
	p              *pipeline
	live           bool // false once a release was cancelled: keep folding, stop releasing
	pending        map[int64][]record
	pendingOr      map[int64][]record
	oracleExpected map[int64]int
	next           int64     // run-wide index of the next round to fold
	closing        *leaseRun // last round folded, end marker not yet released
	lastCheckpoint uint64    // programs folded at the last checkpoint
}

func (c *collector) run() {
	defer close(c.p.cands)
	for rec := range c.p.recs {
		round := rec.lease.round0 + (rec.slot-rec.lease.Start)/c.p.roundSize
		if rec.oracle {
			c.pendingOr[round] = append(c.pendingOr[round], rec)
		} else {
			c.pending[round] = append(c.pending[round], rec)
		}
		for c.advance() {
		}
	}
	// Tail release, reached by cancelled runs only: the oracle candidates
	// that did arrive for folded rounds still surface, in (round, slot)
	// order. An unfolded round sits above the checkpoint watermark and is
	// reprocessed on resume, so dropping its partial candidates keeps
	// bounded runs deterministic.
	for _, round := range slices.Sorted(maps.Keys(c.pendingOr)) {
		if round < c.next {
			c.releaseOracle(round, false)
		}
	}
	// Shutdown checkpoint: the record stream is closed, so every fold
	// that will happen has happened and the watermark is final. A
	// graceful drain thus resumes exactly where it stopped; only a hard
	// kill falls back to the last periodic checkpoint and reprocesses the
	// gap (at-least-once, deduplicated by the journal).
	if e := c.p.e; e.cfg.OnCheckpoint != nil {
		if folded := e.programsFolded.Load(); folded > c.lastCheckpoint {
			e.cfg.OnCheckpoint(e.cfg.StartSeed + int64(folded))
		}
	}
}

// advance closes a finished lease or folds the next round, if either is
// complete, and reports whether it did.
func (c *collector) advance() bool {
	if c.closing != nil {
		if !c.oracleIn(c.next - 1) {
			return false // the lease's last oracle verdicts still in flight
		}
		// The lease is complete: its last candidates, then its end
		// marker, ahead of anything from the next lease.
		c.releaseOracle(c.next-1, false)
		c.release(&Finding{lease: c.closing, end: true})
		c.closing = nil
	}
	recs := c.pending[c.next]
	if len(recs) == 0 {
		return false
	}
	l := recs[0].lease
	exp, last := l.Count-(c.next-l.round0)*c.p.roundSize, true
	if l.Count <= 0 || exp > c.p.roundSize {
		exp, last = c.p.roundSize, false
	}
	if int64(len(recs)) < exp {
		return false
	}
	if c.next > l.round0 {
		if !c.oracleIn(c.next - 1) {
			return false // previous round's oracle verdicts still in flight
		}
		c.releaseOracle(c.next-1, true)
	}
	delete(c.pending, c.next)
	c.oracleExpected[c.next] = c.fold(l, recs)
	if last {
		c.closing = l
	}
	c.next++
	c.boundary()
	return true
}

// fold admits one complete round's programs to its lease's corpus in
// slot order and releases its compile-stage candidates; it returns how
// many of the round's units went on to the oracle.
func (c *collector) fold(l *leaseRun, recs []record) (toOracle int) {
	e := c.p.e
	sort.Slice(recs, func(i, j int) bool { return recs[i].slot < recs[j].slot })
	for _, rc := range recs {
		if rc.toOracle {
			toOracle++
		}
		c.release(rc.finding)
		if rc.prof == nil {
			// Quarantined or errored before profiling: the record exists
			// only to count the fold.
			continue
		}
		l.Corpus.RecordProgram(rc.astFP)
		admitted := l.Corpus.Add(rc.prog, rc.prof)
		// Dynamic energy: reward the mutation base whose mutant earned
		// admission or found a compile-stage bug — folded here, in
		// canonical slot order, so scheduling stays replayable under
		// cfg.Seed.
		if rc.baseID >= 0 {
			bump := 0.0
			if admitted {
				bump += admissionBump
			}
			if rc.crashed {
				bump += findingBump
			}
			l.Corpus.BumpEnergy(rc.baseID, bump)
		}
	}
	e.programsFolded.Add(uint64(len(recs)))
	// Liveness heartbeat: wall-clock only, feeds Health, never a
	// scheduling decision.
	e.lastFoldNano.Store(time.Now().UnixNano())
	return toOracle
}

// boundary runs the fold-boundary hooks after a round folds: epoch
// rotation, checkpoints and the scheduler's go-ahead.
func (c *collector) boundary() {
	e := c.p.e
	// Epoch rotation shares the admission fold's determinism: it fires at
	// the first fold boundary at or past EpochPrograms, a pure function of
	// the schedule.
	if e.cfg.EpochPrograms > 0 {
		if e.programsFolded.Load()-e.epoch.Load().startPrograms >= uint64(e.cfg.EpochPrograms) {
			e.rotateEpoch()
		}
	}
	// Checkpoints fire only here, from the sole corpus-mutating goroutine:
	// the snapshot is a consistent (corpus, watermark) pair — every slot
	// below the watermark folded, none above it.
	if e.cfg.OnCheckpoint != nil {
		folded := e.programsFolded.Load()
		fire := e.checkpointReq.Swap(false)
		if e.cfg.CheckpointPrograms > 0 && folded-c.lastCheckpoint >= uint64(e.cfg.CheckpointPrograms) {
			fire = true
		}
		if fire {
			c.lastCheckpoint = folded
			e.cfg.OnCheckpoint(e.cfg.StartSeed + int64(folded))
		}
	}
	if e.cfg.MutateRatio > 0 {
		select {
		case c.p.folds <- struct{}{}:
		default:
		}
	}
}

// oracleIn reports whether every oracle verdict of a folded round has
// arrived.
func (c *collector) oracleIn(round int64) bool {
	exp, folded := c.oracleExpected[round]
	return folded && len(c.pendingOr[round]) >= exp
}

// releaseOracle releases a round's oracle candidates in slot order,
// folding their finding energy first when bump is set.
func (c *collector) releaseOracle(round int64, bump bool) {
	ors := c.pendingOr[round]
	delete(c.pendingOr, round)
	delete(c.oracleExpected, round)
	sort.Slice(ors, func(i, j int) bool { return ors[i].slot < ors[j].slot })
	for _, o := range ors {
		if bump && o.finding != nil && o.baseID >= 0 {
			o.lease.Corpus.BumpEnergy(o.baseID, findingBump)
		}
		c.release(o.finding)
	}
}

// release hands a candidate to dedup.
func (c *collector) release(f *Finding) {
	if f == nil || !c.live {
		return
	}
	if !send(c.p.ctx, c.p.cands, *f) {
		c.live = false // cancelled: stop releasing, keep folding
	}
}

// fingerprintSet is a lease-scoped dedup set: each lease starts from the
// fingerprints an earlier incarnation already reported
// (EngineConfig.KnownFindings, the resume path).
type fingerprintSet struct{ known, seen map[uint64]bool }

func newFingerprintSet(known []uint64) *fingerprintSet {
	s := &fingerprintSet{known: make(map[uint64]bool, len(known))}
	for _, fp := range known {
		s.known[fp] = true
	}
	s.reset()
	return s
}

// reset starts the next lease's set.
func (s *fingerprintSet) reset() { s.seen = maps.Clone(s.known) }

// add records fp and reports whether it was new.
func (s *fingerprintSet) add(fp uint64) bool {
	fresh := !s.seen[fp]
	s.seen[fp] = true
	return fresh
}

// dedup is stage 4, fingerprint/dedup. Crash-family findings have stable
// fingerprints before reduction, so duplicates are dropped here and
// never reach the (expensive) reducer. Semantic findings are
// fingerprinted by their *reduced* witness, so they dedup in the report
// stage instead — capped per (kind, pass) so one hot defect firing on
// most seeds cannot turn the pipeline into a reducer farm. Candidates
// arrive in canonical (round, slot) order, so the program that wins each
// fingerprint — the one that gets reduced and printed — is
// deterministic; each survivor is stamped with its position so the
// reporter can re-sequence findings after parallel reduction scrambles
// completion order.
func (p *pipeline) dedup() {
	defer close(p.red)
	e := p.e
	seen, perPass := newFingerprintSet(e.cfg.KnownFindings), map[string]int{}
	order := int64(0)
	for f := range p.cands {
		if f.end {
			// Lease boundary: crash dedup and the per-pass reduction caps
			// are lease-scoped. The marker skips the reducers; its stamp
			// alone sequences it behind its lease's findings.
			seen.reset()
			clear(perPass)
			f.order = order
			order++
			if !send(p.ctx, p.out, f) {
				return
			}
			continue
		}
		start := time.Now()
		dup := false
		if f.Kind == FindingCrash || f.Kind == FindingInvalidTransform {
			f.Fingerprint = crashFingerprint(f.Kind, f.Pass, f.crashMsg)
			dup = !seen.add(f.Fingerprint)
		} else {
			key := fmt.Sprintf("%d\x00%s", f.Kind, f.Pass)
			if dup = perPass[key] >= e.cfg.MaxReducePerPass; !dup {
				perPass[key]++
			}
		}
		if m := e.metrics; m != nil {
			// Classification only; the (blocking) handoff to the reducer is
			// backpressure, not dedup latency.
			m.stageDur[stageDedup].Observe(time.Since(start))
		}
		if dup {
			bump(&e.duplicates, &f.lease.tally.Duplicates)
			continue
		}
		f.order = order
		order++
		if !send(p.ctx, p.red, f) {
			return
		}
	}
}

// shrink is stage 5, auto-reduce: each unique finding is shrunk with a
// predicate that re-runs the oracle on every candidate.
func (p *pipeline) shrink(w int) {
	e := p.e
	for f := range p.red {
		var got Finding
		_, err, live := p.supervised(w, job{stageReduce, f.lease, f.Seed, f.Origin, f.Program}, func() error {
			got = e.reduceFinding(p.ctx, f)
			return nil
		})
		if !live {
			return
		}
		out := got
		if err != nil {
			// The finding is real — only its shrink failed. Emit the
			// unreduced witness (ReduceContext never mutates its input, so
			// f.Program is intact even after an abandoned stall); a fault
			// is already quarantined.
			if err != errQuarantined {
				e.toolError(f.lease, &e.oracleErrors, f.Seed, err)
			}
			out = f
			if f.Program != nil {
				out.SizeBefore = reduce.Size(f.Program)
				out.SizeAfter = out.SizeBefore
			}
		}
		if !send(p.ctx, p.out, out) {
			return
		}
	}
}

// reporter is stage 6: final fingerprints (semantic findings key on the
// reduced witness), final dedup, streaming callback. Reduced findings
// complete in whatever order their reductions finish; re-sequencing by
// the dedup stamp makes the final dedup — and the report/journal order —
// deterministic again. The buffer is bounded by the number of findings
// in flight through the reducer pool. A lease's end marker arrives in
// sequence after its last finding: the lease is complete.
type reporter struct {
	p        *pipeline
	seen     *fingerprintSet
	findings []Finding // of leases without a Done hook: RunLeases' result
}

func (r *reporter) run() []Finding {
	reorder := map[int64]Finding{}
	next := int64(0)
	for f := range r.p.out {
		reorder[f.order] = f
		for g, ok := reorder[next]; ok; g, ok = reorder[next] {
			delete(reorder, next)
			next++
			r.report(g)
		}
	}
	// A cancelled reducer leaves a gap in the sequence; findings past it
	// stay buffered and are dropped here — the run is aborting anyway.
	return r.findings
}

func (r *reporter) report(f Finding) {
	e, l := r.p.e, f.lease
	if f.end {
		if l.Done != nil && r.p.ctx.Err() == nil {
			st := l.tally
			st.Generated = uint64(l.Count) // every slot of a completed lease
			st.ElapsedNs = time.Since(l.start).Nanoseconds()
			l.Done(l.findings, st)
		}
		r.seen.reset()
		return
	}
	if f.Kind == FindingMiscompilation || f.Kind == FindingMismatch {
		f.Fingerprint = semanticFingerprint(f.Kind, f.Pass, f.Program)
	}
	if !r.seen.add(f.Fingerprint) {
		bump(&e.duplicates, &l.tally.Duplicates)
		return
	}
	e.unique.Add(1)
	if f.Program != nil {
		f.Source = printer.Print(f.Program)
	}
	if e.cfg.OnFinding != nil {
		e.cfg.OnFinding(f)
	}
	if l.Done != nil {
		l.findings = append(l.findings, f)
	} else {
		r.findings = append(r.findings, f)
	}
}

// toolError counts one tool limitation (a compile- or oracle-stage error,
// not a bug) in the engine and lease tallies and reports it.
func (e *Engine) toolError(l *leaseRun, counter *atomic.Uint64, seed int64, err error) {
	bump(counter, &l.tally.ToolErrors)
	if e.cfg.OnOracleError != nil {
		e.cfg.OnOracleError(seed, err)
	}
}
