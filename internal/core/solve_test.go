package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/diskarray"
	"repro/internal/erasure"
	"repro/internal/page"
	"repro/internal/txn"
	"repro/internal/wal"
)

// newSolveStore builds a store of the given organization and fills every
// page with random contents through the committed write path.
func newSolveStore(t *testing.T, kind diskarray.Kind, q bool) *Store {
	t.Helper()
	arr, err := diskarray.New(diskarray.Config{
		Kind: kind, DataDisks: 4, NumPages: 16, PageSize: page.MinSize, QParity: q,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(arr, wal.New(wal.DefaultConfig()), txn.NewManager())
	rng := rand.New(rand.NewSource(7))
	for p := 0; p < arr.NumPages(); p++ {
		buf := page.NewBuf(arr.PageSize())
		rng.Read(buf)
		if err := s.WriteCommitted(page.PageID(p), buf, nil); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestSolveGroupTable drives the group solver on single-parity,
// twin-parity and P+Q stores.  At every set of up to one more member
// positions than the index has equations, each unknown member is either
// forced (Solve.Unknown, its platter readable) or down (the store's
// serving view), and the solve must either return every member's
// platter contents — spending exactly one read per member: the known
// data members first, then one equation per unknown — or, past the
// equations, fail with ErrUnrecoverableCorruption.
func TestSolveGroupTable(t *testing.T) {
	for _, st := range []struct {
		name string
		kind diskarray.Kind
		q    bool
	}{
		{"single", diskarray.RAID5, false},
		{"twin", diskarray.RAID5Twin, false},
		{"pq", diskarray.RAID5Twin, true},
	} {
		t.Run(st.name, func(t *testing.T) {
			s := newSolveStore(t, st.kind, st.q)
			equations := 1
			if st.q {
				equations = 2
			}
			g := page.GroupID(1)
			twin := s.currentTwin(g)
			members := s.Arr.GroupPages(g)
			n := len(members)
			var subsets [][]int
			var grow func(from int, cur []int)
			grow = func(from int, cur []int) {
				subsets = append(subsets, append([]int(nil), cur...))
				if len(cur) == equations+1 {
					return
				}
				for i := from; i < n; i++ {
					grow(i+1, append(cur, i))
				}
			}
			grow(0, nil)
			cases := 0
			for _, set := range subsets {
				for mask := 0; mask < 1<<len(set); mask++ {
					var forced []page.PageID
					var down []int
					desc := ""
					for k, i := range set {
						if mask&(1<<k) != 0 {
							down = append(down, s.Arr.DataLoc(members[i]).Disk)
							desc += fmt.Sprintf(" down[%d]", i)
						} else {
							forced = append(forced, members[i])
							desc += fmt.Sprintf(" forced[%d]", i)
						}
					}
					cases++
					if len(down) > 0 {
						s.EnterDegraded(down...)
					}
					s.Arr.ResetStats()
					sol, err := s.SolveGroup(g, twin, Solve{Unknown: forced})
					reads := s.Arr.Stats().Reads
					s.LeaveDegraded()
					if len(set) > equations {
						if !errors.Is(err, ErrUnrecoverableCorruption) {
							t.Fatalf("%s: %d unknowns against %d equations: err %v, want ErrUnrecoverableCorruption", desc, len(set), equations, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", desc, err)
					}
					if reads != int64(n) {
						t.Errorf("%s: %d reads, want %d (known members, then one equation per unknown)", desc, reads, n)
					}
					for i, p := range members {
						want, err := s.Arr.PeekData(p)
						if err != nil {
							t.Fatal(err)
						}
						if !sol.Vals[i].Equal(want) || !sol.Val(p).Equal(want) {
							t.Fatalf("%s: member %d solved wrong", desc, i)
						}
					}
				}
			}
			t.Logf("%d unknown patterns over %d members", cases, n)

			// Solve.Down replaces the serving view: with a member's and the
			// index's P drive gone, only the Q equation is left.
			pDisk := s.Arr.ParityLoc(g, twin).Disk
			for i, p := range members {
				sol, err := s.SolveGroup(g, twin, Solve{Down: []int{s.Arr.DataLoc(p).Disk, pDisk}})
				if !st.q {
					if !errors.Is(err, ErrUnrecoverableCorruption) {
						t.Fatalf("member %d and P down on a single-equation index: err %v", i, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("member %d and P down: %v", i, err)
				}
				want, _ := s.Arr.PeekData(p)
				if !sol.Val(p).Equal(want) {
					t.Fatalf("member %d solved wrong through Q", i)
				}
			}

			// A substituted member is taken as given, not read: the solved
			// unknown is whatever the index describes under that value,
			// D_j = P ⊕ (others, member i at its substitute).
			rng := rand.New(rand.NewSource(11))
			for i := range members {
				j := (i + 1) % n
				sub := page.NewBuf(s.Arr.PageSize())
				rng.Read(sub)
				s.Arr.ResetStats()
				sol, err := s.SolveGroup(g, twin, Solve{Unknown: []page.PageID{members[j]}, Sub: members[i], SubVal: sub})
				if err != nil {
					t.Fatalf("sub %d, unknown %d: %v", i, j, err)
				}
				if reads := s.Arr.Stats().Reads; reads != int64(n-1) {
					t.Errorf("sub %d, unknown %d: %d reads, want %d", i, j, reads, n-1)
				}
				di, _ := s.Arr.PeekData(members[i])
				dj, _ := s.Arr.PeekData(members[j])
				want := erasure.ComputeP(s.Arr.PageSize(), dj, di, sub)
				if !sol.Val(members[j]).Equal(want) || !sol.Val(members[i]).Equal(sub) {
					t.Fatalf("sub %d, unknown %d: solved wrong", i, j)
				}
			}
		})
	}
}
