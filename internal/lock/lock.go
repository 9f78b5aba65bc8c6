// Package lock implements a strict two-phase locking manager with shared
// and exclusive modes, page or record granularity, lock upgrades and
// waits-for deadlock detection.
//
// The paper assumes conventional locking underneath both granularities it
// analyzes — page locking for the page logging algorithms (Section 5.2,
// footnote 9: "the use of page locking along with UNDO logging implies
// that the sets of pages modified by concurrent transactions are
// disjoint") and record locking for the record logging algorithms
// (Section 5.3, where concurrent transactions may share pages, the
// appendix's s_u analysis).  RDA recovery itself "does not affect the
// degree of concurrency or interfere with the locking policy used in the
// system" (Section 4.1), which this package preserves: it knows nothing
// about parity groups.
package lock

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/page"
)

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	// Shared permits concurrent readers.
	Shared Mode = iota
	// Exclusive permits a single writer.
	Exclusive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// Resource names a lockable object: a whole page (Slot == PageGranule) or
// one record within a page.
type Resource struct {
	Page page.PageID
	Slot int32
}

// PageGranule is the Slot value that addresses the whole page.
const PageGranule int32 = -1

// PageResource returns the page-granularity resource for p.
func PageResource(p page.PageID) Resource { return Resource{Page: p, Slot: PageGranule} }

// RecordResource returns the record-granularity resource for (p, slot).
func RecordResource(p page.PageID, slot int) Resource {
	return Resource{Page: p, Slot: int32(slot)}
}

// String implements fmt.Stringer.
func (r Resource) String() string {
	if r.Slot == PageGranule {
		return fmt.Sprintf("page %d", r.Page)
	}
	return fmt.Sprintf("record %d.%d", r.Page, r.Slot)
}

// ErrDeadlock is returned to a requester chosen as deadlock victim.  The
// engine reacts by aborting the transaction, which the paper's model
// folds into the abort probability p_b.
var ErrDeadlock = errors.New("lock: deadlock detected")

// ErrClosed is returned when the manager has been shut down (system
// crash); waiters must abandon their requests.
var ErrClosed = errors.New("lock: manager closed")

type lockState struct {
	holders map[page.TxID]Mode
	// waiters in FIFO order.
	queue []*waiter
}

type waiter struct {
	tx   page.TxID
	mode Mode
	res  Resource
	// granted or aborted is signalled through ch.
	ch chan error
}

// Manager is the lock manager.  It is safe for concurrent use.
type Manager struct {
	mu    sync.Mutex
	locks map[Resource]*lockState
	// waiting[tx] is tx's queued request; Acquire blocks, so a
	// transaction waits on at most one resource at a time.
	waiting map[page.TxID]*waiter
	closed  bool
}

// New creates an empty lock manager.
func New() *Manager {
	return &Manager{
		locks:   make(map[Resource]*lockState),
		waiting: make(map[page.TxID]*waiter),
	}
}

// conflicts reports whether locks of modes a and b cannot be held
// together.
func conflicts(a, b Mode) bool { return a == Exclusive || b == Exclusive }

// compatible reports whether a new request of mode m by tx can be granted
// given the current holders.
func compatible(st *lockState, tx page.TxID, m Mode) bool {
	for holder, hm := range st.holders {
		if holder != tx && conflicts(m, hm) { // own lock: upgrade handled by caller
			return false
		}
	}
	return true
}

// Acquire blocks until tx holds res in at least the requested mode.  A
// Shared request by a transaction already holding Exclusive is a no-op; a
// request for a mode already held is a no-op; Exclusive over an own
// Shared lock is an upgrade.  Returns ErrDeadlock if granting would be
// deadlock-prone and tx is chosen as the victim, or ErrClosed if the
// manager shuts down while waiting.
func (m *Manager) Acquire(tx page.TxID, res Resource, mode Mode) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	st := m.locks[res]
	if st == nil {
		st = &lockState{holders: make(map[page.TxID]Mode)}
		m.locks[res] = st
	}
	if held, ok := st.holders[tx]; ok && (held == Exclusive || held == mode) {
		m.mu.Unlock()
		return nil
	}
	// Grant immediately when compatible and no earlier waiter would be
	// starved by a conflicting grant (upgrades jump the queue, as usual).
	_, upgrading := st.holders[tx]
	if compatible(st, tx, mode) && (upgrading || len(st.queue) == 0) {
		st.holders[tx] = mode
		m.mu.Unlock()
		return nil
	}
	// Must wait: queue the request, then refuse it if it closes a cycle.
	w := &waiter{tx: tx, mode: mode, res: res, ch: make(chan error, 1)}
	st.queue = append(st.queue, w)
	m.waiting[tx] = w
	if m.deadlocked(w) {
		st.queue = st.queue[:len(st.queue)-1]
		delete(m.waiting, tx)
		m.mu.Unlock()
		return fmt.Errorf("%w: txn %d on %s", ErrDeadlock, tx, res)
	}
	m.mu.Unlock()
	return <-w.ch
}

// blockers returns the transactions queued request w waits for, read off
// the live table: the holders of its resource whose locks conflict with
// the request, and the earlier waiters in the resource's queue whose
// requests do (FIFO wake grants none past them).
func (m *Manager) blockers(w *waiter) []page.TxID {
	st := m.locks[w.res]
	var out []page.TxID
	for holder, hm := range st.holders {
		if holder != w.tx && conflicts(w.mode, hm) {
			out = append(out, holder)
		}
	}
	for _, qw := range st.queue {
		if qw == w {
			break
		}
		if qw.tx != w.tx && conflicts(w.mode, qw.mode) {
			out = append(out, qw.tx)
		}
	}
	return out
}

// deadlocked reports whether queued request w closes a cycle in the
// waits-for graph.  The edges are derived from the live table at check
// time, so a grant or release since any transaction enqueued can never
// leave a stale edge behind.
func (m *Manager) deadlocked(w *waiter) bool {
	seen := make(map[page.TxID]bool)
	stack := m.blockers(w)
	for len(stack) > 0 {
		tx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if tx == w.tx {
			return true
		}
		if seen[tx] {
			continue
		}
		seen[tx] = true
		if next := m.waiting[tx]; next != nil {
			stack = append(stack, m.blockers(next)...)
		}
	}
	return false
}

// ReleaseAll releases every lock held or requested by tx and wakes any
// waiters that become grantable.  Strict 2PL: the engine calls this only
// at EOT (commit or completed abort).
func (m *Manager) ReleaseAll(tx page.TxID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for res, st := range m.locks {
		delete(st.holders, tx)
		for i := 0; i < len(st.queue); {
			if st.queue[i].tx == tx {
				w := st.queue[i]
				st.queue = append(st.queue[:i], st.queue[i+1:]...)
				delete(m.waiting, tx)
				w.ch <- ErrClosed // cancelled; the txn is going away anyway
				continue
			}
			i++
		}
		m.wake(res, st)
		if len(st.holders) == 0 && len(st.queue) == 0 {
			delete(m.locks, res)
		}
	}
}

// wake grants queued requests in FIFO order while they remain compatible.
func (m *Manager) wake(res Resource, st *lockState) {
	for len(st.queue) > 0 {
		w := st.queue[0]
		if !compatible(st, w.tx, w.mode) {
			return
		}
		st.queue = st.queue[1:]
		st.holders[w.tx] = w.mode
		delete(m.waiting, w.tx)
		w.ch <- nil
	}
}

// Close shuts the manager down (system crash): all waiters receive
// ErrClosed and all state is dropped.
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	for _, st := range m.locks {
		for _, w := range st.queue {
			w.ch <- ErrClosed
		}
		st.queue = nil
	}
	m.locks = make(map[Resource]*lockState)
	m.waiting = make(map[page.TxID]*waiter)
}

// Holds reports whether tx currently holds res in at least the given
// mode.
func (m *Manager) Holds(tx page.TxID, res Resource, mode Mode) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.locks[res]
	if st == nil {
		return false
	}
	held, ok := st.holders[tx]
	if !ok {
		return false
	}
	return held == Exclusive || held == mode
}

// HeldResources returns every resource tx holds (unspecified order);
// testing and debugging aid.
func (m *Manager) HeldResources(tx page.TxID) []Resource {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Resource
	for res, st := range m.locks {
		if _, ok := st.holders[tx]; ok {
			out = append(out, res)
		}
	}
	return out
}
