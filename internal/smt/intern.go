package smt

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Interner hash-conses terms: every smart constructor routes its result
// through an interning table, so structurally equal terms are represented
// by the same *Term. This gives the whole solver stack O(1) structural
// equality and hashing — the Blaster's pointer-keyed memo tables, the
// constructors' pointer-equality folds (Eq(x,x) → true, Ite collapse) and
// the validator's formula caches all become structural automatically.
//
// The interner is sharded and safe for concurrent use: parallel bug hunts
// build terms from many goroutines and share every common subterm (packet
// bit variables, standard-metadata leaves, architecture constraints).
//
// Every Context owns one interner; term IDs come from a single
// process-wide counter, so IDs are unique across contexts and ID-keyed
// caches can never confuse terms from different epochs.
type Interner struct {
	shards [internShards]internShard
}

// termIDSeq issues process-unique term IDs across all interners: a term
// ID identifies one term in one context for the process lifetime, which
// is what makes ID-keyed memo tables (simplify, verdict caches) safe
// even while contexts rotate.
var termIDSeq atomic.Uint64

const internShards = 64

type internShard struct {
	mu    sync.Mutex
	table map[uint64][]*Term
	hits  uint64
	// count and bytes track the shard's entries and estimated heap at
	// insertion time, so snapshots never walk the buckets: Info() runs
	// while solver workers construct terms, and an O(terms) walk under
	// the shard locks would stall the hot path.
	count uint64
	bytes uint64
}

// NewInterner creates an empty interning table. Most callers go through
// a Context (which owns one); free-standing interners exist only for
// measurement. Shard tables are allocated on first insert, so a fresh
// context is cheap.
func NewInterner() *Interner { return &Interner{} }

// Stats reports the default context's interner size (distinct live
// terms) and cumulative hit count (constructions answered by an existing
// term).
func Stats() (size, hits uint64) {
	return defaultCtx.in.Size(), defaultCtx.in.Hits()
}

// InternerInfo is a point-in-time snapshot of an interning table. Interner
// growth is unbounded for the process lifetime (terms are never evicted),
// so long-running services watch these numbers to know when eviction will
// be needed.
type InternerInfo struct {
	// Entries is the number of distinct interned terms.
	Entries uint64
	// Hits is the cumulative count of constructions answered by an
	// existing term.
	Hits uint64
	// BytesEstimate approximates the heap held by the table: term
	// structs, their name strings and child slices, plus bucket slots.
	BytesEstimate uint64
	// Shards is the fixed shard count; OccupiedShards of them hold at
	// least one term (a rough skew indicator together with
	// MaxShardEntries, the largest single shard).
	Shards          int
	OccupiedShards  int
	MaxShardEntries uint64
}

// InternerStats snapshots the default context's interner (the one behind
// the package-level constructors).
func InternerStats() InternerInfo { return defaultCtx.in.Info() }

// Info snapshots one interner in O(shards): the per-shard counters are
// maintained at intern time, so no bucket is ever walked. It takes each
// shard lock in turn — totals are per-shard consistent rather than a
// global atomic cut, which is fine for the monitoring it exists for.
func (in *Interner) Info() InternerInfo {
	info := InternerInfo{Shards: internShards}
	for i := range in.shards {
		s := &in.shards[i]
		s.mu.Lock()
		n, bytes, hits := s.count, s.bytes, s.hits
		s.mu.Unlock()
		info.Entries += n
		info.BytesEstimate += bytes
		info.Hits += hits
		if n > 0 {
			info.OccupiedShards++
		}
		if n > info.MaxShardEntries {
			info.MaxShardEntries = n
		}
	}
	return info
}

// termBytes estimates the heap one interned term holds: the struct, the
// out-of-line name bytes, the child pointer slice, and its bucket slot
// plus amortized map overhead.
func termBytes(t *Term) uint64 {
	const termSize = uint64(unsafe.Sizeof(Term{}))
	return termSize + uint64(len(t.Name)) + uint64(len(t.Args))*8 + 8 + 16
}

// Size returns the number of distinct interned terms.
func (in *Interner) Size() uint64 {
	var n uint64
	for i := range in.shards {
		s := &in.shards[i]
		s.mu.Lock()
		n += s.count
		s.mu.Unlock()
	}
	return n
}

// Hits returns the cumulative count of constructions that found an
// existing term.
func (in *Interner) Hits() uint64 {
	var n uint64
	for i := range in.shards {
		s := &in.shards[i]
		s.mu.Lock()
		n += s.hits
		s.mu.Unlock()
	}
	return n
}

// hashTerm computes the structural hash of a candidate term from its
// shallow fields and its (already interned) children's IDs.
func hashTerm(t *Term) uint64 {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211 // FNV-64 prime
		h ^= h >> 29
	}
	mix(uint64(t.Op))
	mix(uint64(t.W))
	mix(t.Val)
	mix(uint64(t.Hi)<<32 | uint64(uint32(t.Lo)))
	for i := 0; i < len(t.Name); i++ {
		mix(uint64(t.Name[i]))
	}
	mix(uint64(len(t.Name)))
	for _, a := range t.Args {
		mix(a.id)
	}
	mix(uint64(len(t.Args)))
	return h
}

// sameShape reports shallow structural equality assuming both terms'
// children are interned (pointer comparison suffices for Args).
func sameShape(a, b *Term) bool {
	if a.Op != b.Op || a.W != b.W || a.Val != b.Val ||
		a.Name != b.Name || a.Hi != b.Hi || a.Lo != b.Lo ||
		len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// Intern returns the canonical term for t, registering t if it is new.
// t's Args must already be interned; t must not be mutated afterwards.
func (in *Interner) Intern(t *Term) *Term {
	h := hashTerm(t)
	s := &in.shards[h%internShards]
	s.mu.Lock()
	for _, c := range s.table[h] {
		if sameShape(c, t) {
			s.hits++
			s.mu.Unlock()
			return c
		}
	}
	s.mu.Unlock()
	// Allocate the ID outside the shard lock, then re-check under it: a
	// racing goroutine may have interned the same shape meanwhile.
	t.id = termIDSeq.Add(1)
	t.hash = h
	s.mu.Lock()
	for _, c := range s.table[h] {
		if sameShape(c, t) {
			s.hits++
			s.mu.Unlock()
			return c
		}
	}
	if s.table == nil {
		s.table = map[uint64][]*Term{}
	}
	s.table[h] = append(s.table[h], t)
	s.count++
	s.bytes += termBytes(t)
	s.mu.Unlock()
	return t
}
