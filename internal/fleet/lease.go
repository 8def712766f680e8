package fleet

import (
	"sync"
	"time"
)

// leaseStatus is one lease's lifecycle position.
type leaseStatus int

const (
	leasePending  leaseStatus = iota // waiting to be issued (or re-issued)
	leaseIssued                      // held by a worker, expiry clock running
	leaseDone                        // a result arrived (first one wins)
	leaseReleased                    // result released past the watermark
)

// leaseTable owns the campaign's slot partition: every lease's bounds,
// status and issue time, plus the completed-prefix watermark. It is the
// single synchronization point between connection handlers (acquire /
// complete / fail), the expiry janitor and the release path; the
// determinism argument needs exactly one property from it — results
// release strictly in lease-ID order — which releasable() enforces by
// construction.
type leaseTable struct {
	mu   sync.Mutex
	cond *sync.Cond

	leases  []Lease
	status  []leaseStatus
	issued  []time.Time // issue timestamp, per lease (valid when leaseIssued)
	holder  []string    // issuing worker name (observability only)
	results []*Result   // first result, per lease (valid from leaseDone on)

	released int64 // first lease ID not yet released (== the watermark lease)
	reissued uint64
	closed   bool
	gone     map[string]bool // failed holders, refused any further lease
}

// newLeaseTable partitions [start, start+seeds) into leases of leaseSlots
// (the final lease takes the remainder) and marks every lease wholly
// below resumeWatermark as already released — those slots were folded and
// journaled by a previous coordinator incarnation. A watermark inside a
// lease rounds down: the partial lease re-runs whole (at-least-once), and
// the journal-seeded dedup absorbs the replay.
func newLeaseTable(start, seeds, leaseSlots, resumeWatermark int64) *leaseTable {
	t := &leaseTable{gone: map[string]bool{}}
	t.cond = sync.NewCond(&t.mu)
	for id, slot := int64(0), start; slot < start+seeds; id, slot = id+1, slot+leaseSlots {
		count := leaseSlots
		if rem := start + seeds - slot; rem < count {
			count = rem
		}
		t.leases = append(t.leases, Lease{ID: id, Start: slot, Count: count, CampaignStart: start})
		t.status = append(t.status, leasePending)
		t.issued = append(t.issued, time.Time{})
		t.holder = append(t.holder, "")
		t.results = append(t.results, nil)
	}
	for t.released < int64(len(t.leases)) &&
		t.leases[t.released].Start+t.leases[t.released].Count <= resumeWatermark {
		t.status[t.released] = leaseReleased
		t.released++
	}
	return t
}

// total returns the lease count.
func (t *leaseTable) total() int64 { return int64(len(t.leases)) }

// acquire blocks until a pending lease is available (returning the
// lowest-ID one, so re-issues and watermark progress come first) or the
// campaign is finished or closed, or worker has failed (ok = false).
// worker is the lease holder key. With block false it never waits,
// reporting waiting = true instead.
func (t *leaseTable) acquire(worker string, block bool) (lease Lease, ok, waiting bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.closed || t.released >= t.total() || t.gone[worker] {
			return Lease{}, false, false
		}
		for id := t.released; id < t.total(); id++ {
			if t.status[id] == leasePending {
				t.status[id] = leaseIssued
				t.issued[id] = time.Now()
				t.holder[id] = worker
				return t.leases[id], true, false
			}
		}
		if !block {
			return Lease{}, false, true
		}
		t.cond.Wait()
	}
}

// complete records a lease result. The first result wins; a duplicate —
// an expired-and-re-issued lease finishing twice — is dropped, which is
// safe because lease results are deterministic: both copies carry
// identical bytes. Returns the lease's latest issue time and whether the
// result was accepted.
func (t *leaseTable) complete(res *Result) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := res.LeaseID
	if id < 0 || id >= t.total() || t.status[id] == leaseDone || t.status[id] == leaseReleased {
		return time.Time{}, false
	}
	t.status[id] = leaseDone
	t.results[id] = res
	t.cond.Broadcast()
	return t.issued[id], true
}

// releasable pops the contiguous run of completed leases at the
// watermark, advancing it. The caller (the coordinator's release path)
// processes them in the returned order — lease-ID order — which is the
// whole determinism contract.
func (t *leaseTable) releasable() []*Result {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*Result
	for t.released < t.total() && t.status[t.released] == leaseDone {
		out = append(out, t.results[t.released])
		t.status[t.released] = leaseReleased
		t.results[t.released] = nil // release the findings' memory
		t.released++
	}
	if t.released >= t.total() {
		t.cond.Broadcast() // wake acquirers so they see the drain
	}
	return out
}

// watermark returns the first unreleased lease ID.
func (t *leaseTable) watermark() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.released
}

// expire returns every issued lease older than deadline to the pending
// state (a dead, hung or killed worker's lease re-issues to the next
// acquirer) and reports how many moved.
func (t *leaseTable) expire(deadline time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for id := t.released; id < t.total(); id++ {
		if t.status[id] == leaseIssued && t.issued[id].Before(deadline) {
			t.status[id] = leasePending
			t.holder[id] = ""
			t.reissued++
			n++
		}
	}
	if n > 0 {
		t.cond.Broadcast()
	}
	return n
}

// fail returns every lease issued to worker to the pending state — the
// connection-loss path, which beats the expiry clock when the TCP layer
// notices first — and wakes the worker's own blocked acquire, if any,
// with ok = false.
func (t *leaseTable) fail(worker string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gone[worker] = true
	t.cond.Broadcast()
	n := 0
	for id := t.released; id < t.total(); id++ {
		if t.status[id] == leaseIssued && t.holder[id] == worker {
			t.status[id] = leasePending
			t.holder[id] = ""
			t.reissued++
			n++
		}
	}
	return n
}

// close wakes every blocked acquirer with ok = false (coordinator
// shutdown / context cancellation).
func (t *leaseTable) close() {
	t.mu.Lock()
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
}

// snapshot reports the counts /statusz shows.
func (t *leaseTable) snapshot() (total, released, inflight int64, reissued uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id := t.released; id < t.total(); id++ {
		if t.status[id] == leaseIssued {
			inflight++
		}
	}
	return t.total(), t.released, inflight, t.reissued
}
