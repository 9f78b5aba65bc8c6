package core

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/disk"
	"repro/internal/erasure"
	"repro/internal/page"
)

// ScrubReport summarizes a parity scrub pass.
type ScrubReport struct {
	// GroupsScanned is the number of parity groups examined.
	GroupsScanned int
	// GroupsSkipped is the number of groups left for a later pass because
	// they were dirty or degraded at the time (online scrubbing only).
	GroupsSkipped int
	// LatentErrors is the number of blocks whose stored contents no
	// longer passed verification (checksum, location stamp or write
	// ledger) — latent silent corruption.
	LatentErrors int
	// Repaired is the number of blocks rebuilt from group redundancy.
	Repaired int
	// ParityRewritten counts parity pages recomputed because they no
	// longer matched their group's data.
	ParityRewritten int
	// RepairedPages lists the data pages whose platter contents were
	// rewritten, so callers can invalidate exactly the buffer frames that
	// went stale (parity rewrites are invisible to the buffer pool).
	RepairedPages []page.PageID
}

// GroupScrub is the outcome of scrubbing a single parity group.
type GroupScrub struct {
	// Skipped reports that the group was not verified: it was dirty (a
	// no-log steal is in flight and the twin views are in motion) or
	// degraded beyond what its spare redundancy can still check.  A
	// degraded group on a QParity array is NOT skipped wholesale — its
	// spare equation can still repair latent corruption on the readable
	// members (ScrubGroup).  The online scrubber retries skipped
	// groups on the next cycle.
	Skipped bool
	// LatentErrors, Repaired and ParityRewritten are as in ScrubReport.
	LatentErrors    int
	Repaired        int
	ParityRewritten int
	// RepairedPages lists data pages rewritten on the platter.
	RepairedPages []page.PageID
}

// Scrub walks every parity group, verifying that each valid parity page
// equals the XOR of its data pages and that every block still passes
// end-to-end verification.  Latent silent corruption — checksum rot,
// misdirected writes, lost writes — is repaired from the group's
// surviving redundancy; mismatched parity is recomputed.
//
// Scrub requires a quiesced store: no parity group may be dirty
// (scrubbing would not know which twin view to repair toward).  Online,
// incremental scrubbing of a live store goes through ScrubGroup, which
// skips in-motion groups instead.  This is the paper's "background
// process that runs during the idle periods of the system" (Section 4.2)
// extended from bitmap reconstruction to full redundancy verification.
func (s *Store) Scrub() (*ScrubReport, error) {
	if s.Dirty != nil && s.Dirty.Len() > 0 {
		return nil, fmt.Errorf("core: scrub requires a quiesced store (%d dirty groups)", s.Dirty.Len())
	}
	rep := &ScrubReport{}
	for g := 0; g < s.Arr.NumGroups(); g++ {
		res, err := s.ScrubGroup(page.GroupID(g))
		rep.merge(res)
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// merge folds one group's scrub outcome into the pass report.
func (rep *ScrubReport) merge(res GroupScrub) {
	if res.Skipped {
		rep.GroupsSkipped++
		return
	}
	rep.GroupsScanned++
	rep.LatentErrors += res.LatentErrors
	rep.Repaired += res.Repaired
	rep.ParityRewritten += res.ParityRewritten
	rep.RepairedPages = append(rep.RepairedPages, res.RepairedPages...)
}

// ScrubGroup verifies and repairs one parity group, the unit of work of
// the online scrubber.  A dirty group is skipped (not an error — it is
// retried on the next scrub cycle); so is a degraded group on a
// single-redundancy array, whose only equation is already consumed by
// the dead disk.  Everything else is read through the current index's
// equations (repairGroup): silently corrupt blocks are rewritten from
// the solved values, and corrupt blocks beyond what the equations can
// solve return ErrUnrecoverableCorruption.  A degraded group on a
// QParity array is repaired the same way — its spare equation still
// covers latent corruption on the readable members, the repair that
// turns a would-be ErrUnrecoverableCorruption read into a served one —
// but no consistency verification is attempted beyond what the solve
// itself proves: with members missing, a surviving equation cannot be
// checked against the data without consuming the other one.  A healthy
// group's equations are then verified against the data, stale ones
// rewritten, and the obsolete twins checked for latent errors.
func (s *Store) ScrubGroup(g page.GroupID) (GroupScrub, error) {
	var res GroupScrub
	degraded := s.GroupDegraded(g)
	if degraded && !s.Arr.HasQ() {
		res.Skipped = true
		return res, nil
	}
	if s.Dirty != nil {
		if _, dirty := s.Dirty.Lookup(g); dirty {
			res.Skipped = true
			return res, nil
		}
	}
	twin := s.currentTwin(g)
	sol, err := s.repairGroup(g, twin, true)
	if err != nil {
		return res, fmt.Errorf("core: scrub group %d: %w", g, err)
	}
	res.LatentErrors = sol.faults()
	res.Repaired = res.LatentErrors
	for _, i := range sol.Corrupt {
		res.RepairedPages = append(res.RepairedPages, sol.Pages[i])
	}
	s.deg.scrubRepairs.Add(uint64(res.Repaired))
	if degraded {
		if res.Repaired > 0 {
			s.deg.scrubbedGroups.Add(1)
		}
		return res, nil
	}

	// Verify the current index against the data and rewrite it if stale.
	raw := make([][]byte, len(sol.Vals))
	for i, b := range sol.Vals {
		raw[i] = b
	}
	if !bytes.Equal(erasure.ComputeP(s.Arr.PageSize(), raw...), sol.P) {
		if _, err := s.recomputeParityFrom(g, twin, sol.Vals, sol.PMeta); err != nil {
			return res, err
		}
		res.ParityRewritten++
	}
	if sol.Q != nil && !erasure.VerifyQ(sol.Q, raw...) {
		if err := s.recomputeQFrom(g, twin, sol.Vals, sol.PMeta); err != nil {
			return res, err
		}
		res.ParityRewritten++
	}

	// The obsolete twin of a twinned array is also checked for latent
	// errors; its contents are free to rewrite (it is obsolete).
	if s.Twins != nil {
		other := 1 - twin
		if _, _, err := s.Arr.ReadParity(g, other); disk.IsCorrupt(err) {
			res.LatentErrors++
			s.deg.corruptDetected.Add(1)
			meta := disk.Meta{State: disk.StateObsolete, Timestamp: 0}
			if _, err := s.recomputeParityFrom(g, other, sol.Vals, meta); err != nil {
				return res, err
			}
			res.Repaired++
			s.deg.scrubRepairs.Add(1)
		}
		if other < s.Arr.QParityPages() {
			if _, _, err := s.Arr.ReadQ(g, other); disk.IsCorrupt(err) {
				res.LatentErrors++
				s.deg.corruptDetected.Add(1)
				meta := disk.Meta{State: disk.StateObsolete, Timestamp: 0}
				if err := s.recomputeQFrom(g, other, sol.Vals, meta); err != nil {
					return res, err
				}
				res.Repaired++
				s.deg.scrubRepairs.Add(1)
			}
		}
	}
	s.deg.scrubbedGroups.Add(1)
	return res, nil
}

// repairGroup solves group g under redundancy index `twin` and rewrites,
// from the solved values, every block that failed verification: the
// corrupt data members, and the index's corrupt P and Q pages.  The
// alive P slot is always read (and with withQ the alive Q slot), even
// when the solve did not need it, so its corruption is caught too.  A
// rewritten data page named by the index's pairing header gets the echo
// back.  A rewritten equation takes the index's header as it should
// stand: the persisted one when only the payload rotted (a checksum
// failure keeps the block's own header; a misdirected or lost write
// leaves a foreign or stale one), else the intact partner's lockstep
// mirror, else a fresh committed header.  On return sol.P (with its
// header) holds what the alive P slot carries, and sol.faults() counts
// the blocks rewritten.
func (s *Store) repairGroup(g page.GroupID, twin int, withQ bool) (*Solution, error) {
	sol, err := s.SolveGroup(g, twin, Solve{})
	if err != nil {
		return nil, err
	}
	probe := func(buf *page.Buf, meta *disk.Meta, perr *error, read func(page.GroupID, int) (page.Buf, disk.Meta, error)) error {
		b, m, err := read(g, twin)
		switch {
		case err == nil:
			*buf, *meta = b, m
		case disk.IsCorrupt(err):
			s.deg.corruptDetected.Add(1)
			*perr = err
		default:
			return err
		}
		return nil
	}
	if sol.P == nil && sol.PErr == nil && s.ParitySlotAlive(g, twin) {
		if err := probe(&sol.P, &sol.PMeta, &sol.PErr, s.Arr.ReadParity); err != nil {
			return nil, fmt.Errorf("parity: %w", err)
		}
	}
	if withQ && sol.Q == nil && sol.QErr == nil && s.QSlotAlive(g, twin) {
		if err := probe(&sol.Q, &sol.QMeta, &sol.QErr, s.Arr.ReadQ); err != nil {
			return nil, fmt.Errorf("Q: %w", err)
		}
	}
	if sol.faults() == 0 {
		return sol, nil
	}
	hdr := s.indexHeader(g, twin, sol)
	for _, i := range sol.Corrupt {
		p := sol.Pages[i]
		meta := disk.Meta{}
		if hdr.PairedSet && hdr.DirtyPage == p {
			meta = disk.Meta{Timestamp: hdr.Timestamp}
		}
		if err := s.Arr.WriteData(p, sol.Vals[i], meta); err != nil {
			return nil, fmt.Errorf("repair page %d: %w", p, err)
		}
	}
	if sol.PErr != nil {
		p, err := s.recomputeParityFrom(g, twin, sol.Vals, hdr)
		if err != nil {
			return nil, err
		}
		sol.P, sol.PMeta = p, hdr
	}
	if sol.QErr != nil {
		if err := s.recomputeQFrom(g, twin, sol.Vals, hdr); err != nil {
			return nil, err
		}
	}
	return sol, nil
}

// faults counts the blocks the solve (and repairGroup's probes) found
// failing verification: corrupt data members and equations.
func (sol *Solution) faults() int {
	n := len(sol.Corrupt)
	for _, err := range []error{sol.PErr, sol.QErr} {
		if err != nil {
			n++
		}
	}
	return n
}

// indexHeader returns the header index `twin` of group g should carry,
// judged from what the solve read: the intact P page's, else the P
// page's own header when a checksum failure left it intact, else the
// intact Q mirror's, else the Q page's own under a checksum failure,
// else a fresh committed one.
func (s *Store) indexHeader(g page.GroupID, twin int, sol *Solution) disk.Meta {
	if sol.P != nil {
		return sol.PMeta
	}
	if errors.Is(sol.PErr, disk.ErrChecksum) {
		if m, err := s.Arr.PeekParityMeta(g, twin); err == nil {
			return m
		}
	}
	if sol.Q != nil {
		return sol.QMeta
	}
	if errors.Is(sol.QErr, disk.ErrChecksum) {
		if m, err := s.Arr.PeekQMeta(g, twin); err == nil {
			return m
		}
	}
	return disk.Meta{State: disk.StateCommitted, Timestamp: s.TM.NextTimestamp()}
}

// recomputeParityFrom rewrites parity twin `twin` of group g as the XOR
// of the given data values under the given header, returning the payload
// written.
func (s *Store) recomputeParityFrom(g page.GroupID, twin int, data []page.Buf, meta disk.Meta) (page.Buf, error) {
	raw := make([][]byte, len(data))
	for i, b := range data {
		raw[i] = b
	}
	parity := page.Buf(erasure.ComputeP(s.Arr.PageSize(), raw...))
	if err := s.Arr.WriteParity(g, twin, parity, meta); err != nil {
		return nil, fmt.Errorf("core: rewrite parity of group %d: %w", g, err)
	}
	return parity, nil
}

// recomputeQFrom rewrites Q page `twin` of group g over the given data
// values under the given header (normally the P partner's — lockstep).
func (s *Store) recomputeQFrom(g page.GroupID, twin int, data []page.Buf, meta disk.Meta) error {
	raw := make([][]byte, len(data))
	for i, b := range data {
		raw[i] = b
	}
	q := erasure.ComputeQ(s.Arr.PageSize(), raw...)
	if err := s.Arr.WriteQ(g, twin, q, meta); err != nil {
		return fmt.Errorf("core: rewrite Q of group %d: %w", g, err)
	}
	return nil
}
