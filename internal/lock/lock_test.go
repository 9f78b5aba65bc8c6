package lock

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/page"
)

func TestSharedCompatibility(t *testing.T) {
	m := New()
	res := PageResource(1)
	if err := m.Acquire(1, res, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, res, Shared); err != nil {
		t.Fatal(err)
	}
	if !m.Holds(1, res, Shared) || !m.Holds(2, res, Shared) {
		t.Fatalf("both readers should hold the lock")
	}
}

func TestExclusiveBlocksAndWakes(t *testing.T) {
	m := New()
	res := PageResource(1)
	if err := m.Acquire(1, res, Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(2, res, Exclusive) }()
	select {
	case <-done:
		t.Fatalf("conflicting X request must block")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("woken waiter got error: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatalf("waiter never woke up")
	}
	if !m.Holds(2, res, Exclusive) {
		t.Fatalf("txn 2 should now hold X")
	}
}

func TestReacquireIsNoop(t *testing.T) {
	m := New()
	res := PageResource(3)
	for i := 0; i < 3; i++ {
		if err := m.Acquire(1, res, Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	// Shared request under an own X lock is also a no-op.
	if err := m.Acquire(1, res, Shared); err != nil {
		t.Fatal(err)
	}
	if !m.Holds(1, res, Exclusive) {
		t.Fatalf("X lock lost")
	}
}

func TestUpgrade(t *testing.T) {
	m := New()
	res := PageResource(4)
	if err := m.Acquire(1, res, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, res, Exclusive); err != nil {
		t.Fatal(err)
	}
	if !m.Holds(1, res, Exclusive) {
		t.Fatalf("upgrade failed")
	}
}

func TestUpgradeDeadlockDetected(t *testing.T) {
	// The classic upgrade deadlock: two readers both request X.  One of
	// them must be told ErrDeadlock rather than waiting forever.
	m := New()
	res := PageResource(5)
	if err := m.Acquire(1, res, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, res, Shared); err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() { first <- m.Acquire(1, res, Exclusive) }()
	time.Sleep(20 * time.Millisecond) // let txn 1 enqueue
	err := m.Acquire(2, res, Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("second upgrader: err = %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(2)
	if err := <-first; err != nil {
		t.Fatalf("surviving upgrader got %v", err)
	}
}

func TestTwoResourceDeadlock(t *testing.T) {
	m := New()
	a, b := PageResource(10), PageResource(11)
	if err := m.Acquire(1, a, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, b, Exclusive); err != nil {
		t.Fatal(err)
	}
	block := make(chan error, 1)
	go func() { block <- m.Acquire(1, b, Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	err := m.Acquire(2, a, Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	// Victim aborts; survivor proceeds.
	m.ReleaseAll(2)
	if err := <-block; err != nil {
		t.Fatalf("survivor got %v", err)
	}
}

func TestRecordGranularityIndependent(t *testing.T) {
	m := New()
	// Two records of the same page lock independently.
	if err := m.Acquire(1, RecordResource(7, 0), Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, RecordResource(7, 1), Exclusive); err != nil {
		t.Fatal(err)
	}
	// But the same record conflicts.
	done := make(chan error, 1)
	go func() { done <- m.Acquire(2, RecordResource(7, 0), Shared) }()
	select {
	case <-done:
		t.Fatalf("conflicting record lock must block")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestFIFONoStarvation(t *testing.T) {
	// A shared request arriving after a queued exclusive request must not
	// jump the queue.
	m := New()
	res := PageResource(20)
	if err := m.Acquire(1, res, Shared); err != nil {
		t.Fatal(err)
	}
	xDone := make(chan error, 1)
	go func() { xDone <- m.Acquire(2, res, Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	sDone := make(chan error, 1)
	go func() { sDone <- m.Acquire(3, res, Shared) }()
	select {
	case <-sDone:
		t.Fatalf("late shared request must queue behind the exclusive waiter")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-xDone; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if err := <-sDone; err != nil {
		t.Fatal(err)
	}
}

func TestCloseWakesWaiters(t *testing.T) {
	m := New()
	res := PageResource(30)
	if err := m.Acquire(1, res, Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(2, res, Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	m.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := m.Acquire(3, res, Shared); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after close: err = %v, want ErrClosed", err)
	}
}

func TestHeldResources(t *testing.T) {
	m := New()
	if err := m.Acquire(1, PageResource(1), Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, RecordResource(2, 3), Exclusive); err != nil {
		t.Fatal(err)
	}
	if got := len(m.HeldResources(1)); got != 2 {
		t.Fatalf("held %d resources, want 2", got)
	}
	m.ReleaseAll(1)
	if got := len(m.HeldResources(1)); got != 0 {
		t.Fatalf("held %d resources after release, want 0", got)
	}
}

func TestConcurrentStress(t *testing.T) {
	// Many goroutines acquire two random page locks in order (no
	// deadlock possible) and release; everything must terminate.
	m := New()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tx := page.TxID(g + 1)
			for i := 0; i < 50; i++ {
				a := page.PageID((g + i) % 5)
				b := a + 1
				if err := m.Acquire(tx, PageResource(a), Shared); err != nil {
					t.Error(err)
					return
				}
				if err := m.Acquire(tx, PageResource(b), Exclusive); err != nil && !errors.Is(err, ErrDeadlock) {
					t.Error(err)
					return
				}
				m.ReleaseAll(tx)
			}
		}(g)
	}
	wg.Wait()
}

// request is one lock request in a table snapshot.
type request struct {
	tx   page.TxID
	mode Mode
}

// tableSnapshot copies the manager's live lock table: each resource's
// holders and its FIFO queue.
func tableSnapshot(m *Manager) (map[Resource]map[page.TxID]Mode, map[Resource][]request) {
	m.mu.Lock()
	defer m.mu.Unlock()
	holders := make(map[Resource]map[page.TxID]Mode)
	queues := make(map[Resource][]request)
	for res, st := range m.locks {
		holders[res] = make(map[page.TxID]Mode)
		for tx, mode := range st.holders {
			holders[res][tx] = mode
		}
		for _, w := range st.queue {
			queues[res] = append(queues[res], request{w.tx, w.mode})
		}
	}
	return holders, queues
}

// grantable reports whether the refused request (tx, res, mode), queued
// behind the snapshot's waiters, is granted in SOME future of the table:
// it plays the most optimistic one by brute force — every transaction
// not waiting commits and releases everything, waiters are granted in
// FIFO order while compatible (the manager's wake rule, upgrades
// included) and then commit too, until nothing changes.  A request
// still queued at the fixpoint can never be granted: the deadlock is
// real.
func grantable(holders map[Resource]map[page.TxID]Mode, queues map[Resource][]request, tx page.TxID, res Resource, mode Mode) bool {
	if holders[res] == nil {
		holders[res] = make(map[page.TxID]Mode)
	}
	queues[res] = append(queues[res], request{tx, mode})
	for changed := true; changed; {
		changed = false
		waiting := make(map[page.TxID]bool)
		for _, q := range queues {
			for _, r := range q {
				waiting[r.tx] = true
			}
		}
		for _, hs := range holders {
			for h := range hs {
				if !waiting[h] {
					delete(hs, h)
					changed = true
				}
			}
		}
		for r, q := range queues {
			for len(q) > 0 {
				head := q[0]
				ok := true
				for h, hm := range holders[r] {
					if h != head.tx && conflicts(head.mode, hm) {
						ok = false
					}
				}
				if !ok {
					break
				}
				if head.tx == tx {
					return true
				}
				holders[r][head.tx] = head.mode
				q = q[1:]
				changed = true
			}
			queues[r] = q
		}
	}
	return false
}

// TestDeadlockOracle drives transactions that lock random resources in
// random order and modes — so real deadlocks do occur — and checks every
// ErrDeadlock against a snapshot of the live table taken before the
// victim releases anything: the refused request must be ungrantable in
// every future of that table.  A real cycle is frozen at that moment
// (each member other than the victim is blocked, and the victim still
// holds its locks), so a grantable request means the detector acted on
// an edge that was no longer there.
func TestDeadlockOracle(t *testing.T) {
	m := New()
	var (
		wg      sync.WaitGroup
		victims atomic.Int64
	)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			// Transaction ids are reused across iterations, as in
			// TestConcurrentStress: an edge cached from an id's previous
			// life is exactly the staleness that fakes a cycle.
			tx := page.TxID(g + 1)
			for i := 0; i < 5000 && victims.Load() < 500; i++ {
				// Mostly TestConcurrentStress's ordered shape (Shared on
				// a, Exclusive on a+1), which can never deadlock; one
				// transaction in four goes out of order so real cycles
				// arise too.
				a := page.PageID((g + i) % 5)
				reqs := []struct {
					res  Resource
					mode Mode
				}{{PageResource(a), Shared}, {PageResource(a + 1), Exclusive}}
				if rng.Intn(4) == 0 {
					reqs[0], reqs[1] = reqs[1], reqs[0]
				}
				for _, r := range reqs {
					err := m.Acquire(tx, r.res, r.mode)
					if err == nil {
						runtime.Gosched() // let the others interleave
						continue
					}
					if !errors.Is(err, ErrDeadlock) {
						t.Error(err)
						return
					}
					holders, queues := tableSnapshot(m)
					if grantable(holders, queues, tx, r.res, r.mode) {
						t.Errorf("phantom deadlock: txn %d refused %v on %s with no cycle in the live table", tx, r.mode, r.res)
					}
					victims.Add(1)
					break
				}
				m.ReleaseAll(tx)
			}
		}(g)
	}
	wg.Wait()
	if victims.Load() == 0 {
		t.Fatalf("no deadlock arose; the oracle checked nothing")
	}
	t.Logf("%d deadlock victim(s), each confirmed against the live table", victims.Load())
}
