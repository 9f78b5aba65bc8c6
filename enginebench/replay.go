package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"repro/internal/record"
	"repro/internal/workload"
	"repro/rda"
	"repro/rda/trace"
)

// bench is one workload's engine plus its replay state.  One goroutine
// drives it: trace ops run in trace order, one open transaction per
// stream, so the interleaving — and every count the engine keeps — is a
// pure function of the trace.
type bench struct {
	w    *workloadDef
	db   *rda.DB
	body []trace.Op // the trace after the banking prologue
	bank *workload.Banking

	pageSize int
	payload  []byte // reused write-payload buffer

	open    []*rda.Tx
	txOps   [][]int32       // body op indexes issued by each stream's open transaction
	txTime  []time.Duration // engine time of each stream's current attempt
	txSpan  []int32         // each stream's open transaction span (traced passes)
	pending [][]pageWrite   // uncommitted page writes per stream (page mode)

	// shadow is the last committed payload argument of every page
	// (page mode), shadowSet whether it was ever written.
	shadow    []uint64
	shadowSet []bool

	rng *rand.Rand // drive-pair picks for the pq cycles

	// Schedule state, reset at each pass; counts are of ended
	// transactions (commits and scripted aborts).
	passNo       int
	sinceRestart int
	cycleEOTs    int
	cycleNo      int // pq cycles begun in this pass
	restartAt    int // the current pq cycle's restart point
	lastCkpt     int64

	acc   *accum   // measurement sink of the current pass
	seg   counters // start of the current transaction-path segment
	spans *spanLog
	// cal, when set, runs a calibration burst after every restart and
	// quiesced rebuild.
	cal *calibration
}

type pageWrite struct {
	page uint32
	arg  uint64
}

// accum collects one pass's (or several passes') measurements.
type accum struct {
	attempted, committed, aborted, failed int64

	engine  time.Duration // inside Begin/Read*/Write*/Commit/Abort/Checkpoint
	other   time.Duration // restarts, FailDisk, RebuildStep
	untimed time.Duration // verification, and waits for a collection to end before restarts and rebuilds
	txLat   []int64       // service time per committed transaction, ns
	recover []int64       // Crash+Recover per restart, ns
	rebuild []int64       // summed RebuildStep time per rebuild, ns

	restarts, rebuilds, rebuildSteps    int64
	losers, undoParity, undoLog, redone int64
	restartXfer, rebuildXfer            int64
	rebuiltGroups                       int64
	checkpoints                         int64
	ckpt                                []int64 // checkpoint durations, ns

	path pathCounts // engine counters over the transaction path only
}

func (a *accum) add(o *accum) {
	a.attempted += o.attempted
	a.committed += o.committed
	a.aborted += o.aborted
	a.failed += o.failed
	a.engine += o.engine
	a.other += o.other
	a.untimed += o.untimed
	a.txLat = append(a.txLat, o.txLat...)
	a.recover = append(a.recover, o.recover...)
	a.rebuild = append(a.rebuild, o.rebuild...)
	a.restarts += o.restarts
	a.rebuilds += o.rebuilds
	a.rebuildSteps += o.rebuildSteps
	a.losers += o.losers
	a.undoParity += o.undoParity
	a.undoLog += o.undoLog
	a.redone += o.redone
	a.restartXfer += o.restartXfer
	a.rebuildXfer += o.rebuildXfer
	a.rebuiltGroups += o.rebuiltGroups
	a.checkpoints += o.checkpoints
	a.ckpt = append(a.ckpt, o.ckpt...)
	a.path.add(&o.path)
}

// counters is a snapshot of the engine's counters, per-drive transfers
// and process CPU time.
type counters struct {
	st    rda.Stats
	drive []int64
	cpu   time.Duration
}

func (b *bench) snap() counters {
	return counters{st: b.db.Stats(), drive: b.db.DiskTransfers(), cpu: cpuTime()}
}

// pathCounts sums counter deltas over transaction-path segments: the
// stretches between restarts, drive failures and rebuild steps.  The
// buffer pool is replaced at every restart, so its counters are only
// meaningful as such per-segment deltas.
type pathCounts struct {
	reads, writes, logWrites, logReads int64
	logRecords, logBytes               int64
	hits, misses, steals               int64
	degReads, degWrites                int64
	readRepairs, corrupt               int64
	drive                              []int64
	cpu                                time.Duration
}

func (p *pathCounts) addDelta(from, to counters) {
	a, b := from.st, to.st
	p.reads += b.DiskReads - a.DiskReads
	p.writes += b.DiskWrites - a.DiskWrites
	p.logWrites += b.LogWriteTransfers - a.LogWriteTransfers
	p.logReads += b.LogReadTransfers - a.LogReadTransfers
	p.logRecords += b.LogRecords - a.LogRecords
	p.logBytes += b.LogBytes - a.LogBytes
	p.hits += b.BufferHits - a.BufferHits
	p.misses += b.BufferMisses - a.BufferMisses
	p.steals += b.Steals - a.Steals
	p.degReads += b.DegradedReads - a.DegradedReads
	p.degWrites += b.DegradedWrites - a.DegradedWrites
	p.readRepairs += b.ReadRepairs - a.ReadRepairs
	p.corrupt += b.CorruptBlocksDetected - a.CorruptBlocksDetected
	if p.drive == nil {
		p.drive = make([]int64, len(to.drive))
	}
	for i := range to.drive {
		p.drive[i] += to.drive[i] - from.drive[i]
	}
	p.cpu += to.cpu - from.cpu
}

func (p *pathCounts) add(o *pathCounts) {
	p.reads += o.reads
	p.writes += o.writes
	p.logWrites += o.logWrites
	p.logReads += o.logReads
	p.logRecords += o.logRecords
	p.logBytes += o.logBytes
	p.hits += o.hits
	p.misses += o.misses
	p.steals += o.steals
	p.degReads += o.degReads
	p.degWrites += o.degWrites
	p.readRepairs += o.readRepairs
	p.corrupt += o.corrupt
	if p.drive == nil {
		p.drive = make([]int64, len(o.drive))
	}
	for i := range o.drive {
		p.drive[i] += o.drive[i]
	}
	p.cpu += o.cpu
}

func (p *pathCounts) transfers() int64 { return p.reads + p.writes + p.logWrites + p.logReads }

// leavePath closes the current transaction-path segment before a
// restart, drive failure or rebuild step, returning the snapshot the
// event's own cost is measured from; enterPath opens the next segment.
func (b *bench) leavePath() counters {
	c := b.snap()
	b.acc.path.addDelta(b.seg, c)
	return c
}

func (b *bench) enterPath() counters {
	b.seg = b.snap()
	return b.seg
}

// holdGC waits for a collection in progress to end and keeps the next
// one from starting until releaseGC, so a restart or rebuild timed in
// between never shares the machine with the collector.  No collection
// is forced: they run when the replay's allocation calls for them, and
// their CPU — the wait's included, which stays in the current
// transaction-path segment — counts in cpu_us_per_tx.
func (b *bench) holdGC() {
	t0 := time.Now()
	debug.SetGCPercent(-1)
	b.acc.untimed += time.Since(t0)
}

func releaseGC() { debug.SetGCPercent(gcPercent) }

// setup generates the trace, opens the engine, runs the banking
// prologue and one untimed warm-up pass that fills the buffer pool.
func setup(w *workloadDef, seed int64) (*bench, error) {
	prof := w.prof
	prof.Seed = seed
	prof, pl, err := workload.FromSpec(w.spec, prof)
	if err != nil {
		return nil, err
	}
	tr, err := workload.Generate(prof, pl)
	if err != nil {
		return nil, err
	}
	cfg := tr.Config(w.cfg)
	db, err := rda.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	if err := trace.Compatible(db, tr); err != nil {
		return nil, err
	}
	b := &bench{
		w:        w,
		db:       db,
		body:     tr.Ops,
		pageSize: cfg.PageSize,
		rng:      rand.New(rand.NewSource(seed)),
	}
	streams := int(tr.Header.Streams)
	b.open = make([]*rda.Tx, streams)
	b.txOps = make([][]int32, streams)
	b.txTime = make([]time.Duration, streams)
	b.txSpan = make([]int32, streams)
	b.pending = make([][]pageWrite, streams)
	if tr.Header.Mode == trace.ModeRecord {
		b.payload = make([]byte, cfg.RecordSize)
	} else {
		b.payload = make([]byte, cfg.PageSize)
		b.shadow = make([]uint64, cfg.NumPages)
		b.shadowSet = make([]bool, cfg.NumPages)
	}
	if bank, ok := pl.(*workload.Banking); ok {
		b.bank = bank
		// The funding transaction runs once, here; passes replay the
		// transfers only, which leave the book's final balances behind
		// after every whole pass.
		end := 0
		for end < len(tr.Ops) && !tr.Ops[end].Kind.IsEOT() {
			end++
		}
		if err := b.runOps(tr.Ops[:end+1], &accum{}); err != nil {
			return nil, fmt.Errorf("prologue: %w", err)
		}
		b.body = tr.Ops[end+1:]
	}
	if err := b.pass(&accum{}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

// runOps replays ops with no schedule (the banking prologue).
func (b *bench) runOps(ops []trace.Op, acc *accum) error {
	b.acc = acc
	b.enterPath()
	for i := range ops {
		if err := b.apply(&ops[i], -1); err != nil {
			return err
		}
	}
	return nil
}

// pass replays the whole trace body once, with the workload's restarts,
// checkpoints and drive-failure cycles at their scheduled commits.
func (b *bench) pass(acc *accum) error {
	b.acc = acc
	b.cycleEOTs = 0
	// Each pass shifts its restarts by a different offset, so the
	// restarts of a run sample many crash points of the trace rather
	// than the same few, and none falls on the drained end of the trace.
	b.passNo++
	if re := b.w.restartEvery; re > 0 {
		b.sinceRestart = 1 + (b.passNo*137)%(re/2)
	}
	b.cycleNo = 0
	b.setRestartAt()
	b.lastCkpt = b.enterPath().st.TotalTransfers()
	for i := range b.body {
		op := &b.body[i]
		if err := b.apply(op, int32(i)); err != nil {
			return err
		}
		if op.Kind.IsEOT() {
			if err := b.afterEOT(); err != nil {
				return err
			}
		}
	}
	b.leavePath()
	return nil
}

// afterEOT runs the schedule: checkpoints, restarts, and the pq cycle's
// drive failures and rebuild steps.
func (b *bench) afterEOT() error {
	w := b.w
	if w.checkpointEvery > 0 && b.transfers()-b.lastCkpt >= w.checkpointEvery {
		sp := b.spans.begin(spanCheckpoint, -1)
		t0 := time.Now()
		err := b.db.Checkpoint()
		d := time.Since(t0)
		b.spans.end(sp)
		b.acc.engine += d
		b.acc.ckpt = append(b.acc.ckpt, int64(d))
		b.acc.checkpoints++
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		b.lastCkpt = b.transfers()
	}
	b.sinceRestart++
	if w.restartEvery > 0 && b.sinceRestart >= w.restartEvery {
		b.sinceRestart = 0
		if err := b.restart(); err != nil {
			return err
		}
	}
	if w.pq == nil {
		return nil
	}
	var err error
	switch b.cycleEOTs {
	case 0:
		err = b.failDrives(2)
	case w.pq.rebuildAt:
		err = b.rebuild()
	case b.restartAt:
		err = b.restart()
	}
	if err != nil {
		return err
	}
	b.cycleEOTs++
	if b.cycleEOTs >= w.pq.length {
		b.cycleEOTs = 0
		b.cycleNo++
		b.setRestartAt()
	}
	return nil
}

// setRestartAt places the current pq cycle's restart.
func (b *bench) setRestartAt() {
	if pq := b.w.pq; pq != nil {
		b.restartAt = pq.restartFrom + (b.cycleNo*37)%(pq.length-pq.restartFrom)
	}
}

func (b *bench) transfers() int64 { return b.db.Stats().TotalTransfers() }

// expand writes trace.Payload(arg, len(b.payload)) into the reused
// buffer, so payload generation stays outside the timed call.
func (b *bench) expand(arg uint64) []byte {
	buf := b.payload
	var le [8]byte
	binary.LittleEndian.PutUint64(le[:], arg)
	copy(buf, le[:])
	state := arg
	for i := 8; i < len(buf); i += 8 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		binary.LittleEndian.PutUint64(le[:], z)
		copy(buf[i:], le[:])
	}
	return buf
}

// apply executes one trace op on its stream, timing only the engine
// call.  idx is the op's body index (-1 for ops that are never
// re-issued, and for re-issues themselves).
func (b *bench) apply(op *trace.Op, idx int32) error {
	s := int(op.Stream)
	tx := b.open[s]
	if op.Kind != trace.OpBegin && tx == nil {
		return fmt.Errorf("op %d (%s) on stream %d with no transaction open", idx, op.Kind, s)
	}
	var (
		err  error
		data []byte
		kind = spanOf(op.Kind)
	)
	switch op.Kind {
	case trace.OpWritePage, trace.OpWriteRecord:
		data = b.expand(op.Arg)
	case trace.OpBegin:
		b.acc.attempted++
		b.txOps[s] = b.txOps[s][:0]
		b.txTime[s] = 0
		b.pending[s] = b.pending[s][:0]
		b.txSpan[s] = b.spans.begin(spanTx, -1)
	}
	sp := b.spans.begin(kind, b.txSpan[s])
	t0 := time.Now()
	switch op.Kind {
	case trace.OpBegin:
		tx, err = b.db.Begin()
	case trace.OpCommit:
		err = tx.Commit()
	case trace.OpAbort:
		err = tx.Abort()
	case trace.OpReadPage:
		_, err = tx.ReadPage(rda.PageID(op.Page))
	case trace.OpWritePage:
		err = tx.WritePage(rda.PageID(op.Page), data)
	case trace.OpReadRecord:
		_, err = tx.ReadRecord(rda.PageID(op.Page), int(op.Slot))
		if errors.Is(err, record.ErrEmptySlot) {
			err = nil // reading a never-written slot is benign
		}
	case trace.OpWriteRecord:
		err = tx.WriteRecord(rda.PageID(op.Page), int(op.Slot), data)
	default:
		err = fmt.Errorf("unknown op kind %d", op.Kind)
	}
	d := time.Since(t0)
	b.spans.end(sp)
	b.acc.engine += d
	b.txTime[s] += d
	if err != nil {
		return fmt.Errorf("op %d (%s stream %d page %d): %w", idx, op.Kind, s, op.Page, err)
	}
	if b.spans != nil {
		if op.Kind == trace.OpBegin {
			b.spans.setTx(b.txSpan[s], tx.ID())
		}
		b.spans.setTx(sp, tx.ID())
	}
	switch op.Kind {
	case trace.OpBegin:
		b.open[s] = tx
	case trace.OpCommit, trace.OpAbort:
		b.spans.end(b.txSpan[s])
		b.open[s] = nil
		if op.Kind == trace.OpCommit {
			b.acc.committed++
			b.acc.txLat = append(b.acc.txLat, int64(b.txTime[s]))
			for _, pw := range b.pending[s] {
				b.shadow[pw.page] = pw.arg
				b.shadowSet[pw.page] = true
			}
		} else {
			b.acc.aborted++
		}
	default:
		if op.Kind == trace.OpWritePage {
			b.pending[s] = append(b.pending[s], pageWrite{op.Page, op.Arg})
		}
		if idx >= 0 {
			b.txOps[s] = append(b.txOps[s], idx)
		}
	}
	return nil
}

// restart crashes the engine and recovers it, checks the recovered
// state, then re-issues every transaction the crash lost (client retry)
// so the rest of the trace — and the oracle — see every planned commit.
func (b *bench) restart() error {
	b.holdGC()
	c0 := b.leavePath()
	parent := b.spans.begin(spanRestart, -1)
	sp := b.spans.begin(spanCrash, parent)
	t0 := time.Now()
	b.db.Crash()
	t1 := time.Now()
	b.spans.end(sp)
	sp = b.spans.begin(spanRecover, parent)
	t2 := time.Now()
	rep, err := b.db.Recover()
	d := t1.Sub(t0) + time.Since(t2)
	b.spans.end(sp)
	b.spans.end(parent)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	b.acc.other += d
	b.acc.recover = append(b.acc.recover, int64(d))
	b.acc.restarts++
	b.acc.losers += int64(rep.Losers)
	b.acc.undoParity += int64(rep.UndoneViaParity)
	b.acc.undoLog += int64(rep.UndoneViaLog)
	b.acc.redone += int64(rep.Redone)
	c1 := b.snap()
	b.acc.restartXfer += c1.st.TotalTransfers() - c0.st.TotalTransfers()
	if len(rep.LostPages) > 0 {
		b.acc.failed++
		return fmt.Errorf("recovery lost pages %v", rep.LostPages)
	}
	t3 := time.Now()
	err = b.db.VerifyRecovered()
	if b.cal != nil {
		b.cal.burst(calEventBurst)
	}
	b.acc.untimed += time.Since(t3)
	releaseGC()
	if err != nil {
		b.acc.failed++
		return fmt.Errorf("after restart %d: %w", b.acc.restarts, err)
	}
	b.lastCkpt = b.enterPath().st.TotalTransfers()
	for s, tx := range b.open {
		if tx == nil {
			continue
		}
		b.open[s] = nil
		b.spans.end(b.txSpan[s])
		// The lost attempt does not count: the retry is the same planned
		// transaction, and its service time starts afresh.
		b.acc.attempted--
		ops := append([]int32(nil), b.txOps[s]...)
		if err := b.apply(&trace.Op{Kind: trace.OpBegin, Stream: uint8(s)}, -1); err != nil {
			return fmt.Errorf("retry: %w", err)
		}
		for _, i := range ops {
			if err := b.apply(&b.body[i], i); err != nil {
				return fmt.Errorf("retry: %w", err)
			}
		}
	}
	return nil
}

// failDrives fails n distinct drives picked by the seeded source.
func (b *bench) failDrives(n int) error {
	b.leavePath()
	t0 := time.Now()
	perm := b.rng.Perm(b.db.NumDisks())
	for _, d := range perm[:n] {
		if err := b.db.FailDisk(d); err != nil {
			return fmt.Errorf("fail disk %d: %w", d, err)
		}
	}
	b.acc.other += time.Since(t0)
	b.enterPath()
	return nil
}

// rebuild restores full redundancy with back-to-back RebuildStep
// calls; rebuild_ms samples their summed time.
func (b *bench) rebuild() error {
	b.holdGC()
	defer releaseGC()
	var total time.Duration
	for done := false; !done; {
		c0 := b.leavePath()
		sp := b.spans.begin(spanRebuildStep, -1)
		t0 := time.Now()
		var err error
		done, err = b.db.RebuildStep(b.w.rebuildStep)
		d := time.Since(t0)
		b.spans.end(sp)
		if err != nil {
			return fmt.Errorf("rebuild step: %w", err)
		}
		c1 := b.enterPath()
		st0, st1 := c0.st, c1.st
		b.acc.other += d
		total += d
		b.acc.rebuildSteps++
		b.acc.rebuildXfer += st1.TotalTransfers() - st0.TotalTransfers()
		// RebuiltGroups restarts from zero when a rebuild begins afresh.
		if st1.RebuiltGroups >= st0.RebuiltGroups {
			b.acc.rebuiltGroups += st1.RebuiltGroups - st0.RebuiltGroups
		} else {
			b.acc.rebuiltGroups += st1.RebuiltGroups
		}
	}
	b.acc.rebuilds++
	b.acc.rebuild = append(b.acc.rebuild, int64(total))
	return nil
}

// quiescedRebuild runs the between-pass fail-and-rebuild cycle of the
// single-parity workloads: one drive fails with no transaction open and
// RebuildStep calls restore it back to back.
func (b *bench) quiescedRebuild(acc *accum) error {
	b.acc = acc
	b.enterPath()
	if err := b.failDrives(1); err != nil {
		return err
	}
	if err := b.rebuild(); err != nil {
		return err
	}
	if b.cal != nil {
		b.holdGC()
		b.cal.burst(calEventBurst)
		releaseGC()
	}
	b.leavePath()
	return nil
}
