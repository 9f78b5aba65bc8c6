package main

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/erasure"
	"repro/internal/latch"
	"repro/internal/lock"
	"repro/internal/page"
	"repro/internal/record"
	"repro/internal/wal"
	"repro/rda"
)

// probe times op, a closure performing one operation on index i, in
// batches sized to about probeBatch of wall time but at most maxN
// operations (when maxN > 0), and returns the median ns/op over
// probeReps batches plus the allocations per op.  Each batch's set-up
// (reset) runs untimed.
func probe(maxN int, reset func(), op func(i int)) (nsPerOp, allocsPerOp float64) {
	const (
		probeBatch = 20 * time.Millisecond
		probeReps  = 7
	)
	n := 64
	for {
		reset()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		if d := time.Since(t0); d >= probeBatch/4 || n >= 1<<24 {
			n = int(float64(n) * float64(probeBatch) / float64(d+1))
			break
		}
		n *= 4
	}
	if n < 1 {
		n = 1
	}
	if maxN > 0 && n > maxN {
		n = maxN
	}
	var ms0, ms1 runtime.MemStats
	times := make([]float64, probeReps)
	for r := range times {
		reset()
		if r == 0 {
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		times[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
		if r == 0 {
			runtime.ReadMemStats(&ms1)
			allocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
		}
	}
	sort.Float64s(times)
	return times[len(times)/2], allocsPerOp
}

// probeMetrics times direct calls into each layer's exported functions
// at the workload's page size, record size, group width and lock-set
// size.
func probeMetrics(res *result, b *bench) {
	cfg := b.db.Config()
	ps := cfg.PageSize
	width := cfg.DataDisks
	set := func(name string, ns, allocs float64) {
		res.set(name+"_ns", "ns", ns)
		res.set(name+"_allocs", "allocs/op", allocs)
	}
	nop := func() {}

	// buffer: a resident-page Get plus Unpin on a full pool.
	frames := cfg.BufferFrames
	pool := buffer.New(frames, ps, func(page.PageID) (page.Buf, error) { return page.NewBuf(ps), nil },
		func(*buffer.Frame) error { return nil })
	for p := 0; p < frames; p++ {
		if _, err := pool.Get(page.PageID(p), nil); err == nil {
			pool.Unpin(page.PageID(p))
		}
	}
	ns, al := probe(0, nop, func(i int) {
		p := page.PageID(i % frames)
		if _, err := pool.Get(p, nil); err == nil {
			pool.Unpin(p)
		}
	})
	set("buffer.get_hit", ns, al)

	// lock: one transaction's lock set, then ReleaseAll.
	n := b.w.prof.PagesPerTx
	if cfg.Logging == rda.RecordLogging {
		n = 2 // a transfer locks its two account records
	}
	lockSet := make([]lock.Resource, n)
	for i := range lockSet {
		if cfg.Logging == rda.RecordLogging {
			lockSet[i] = lock.RecordResource(page.PageID(i*7), i)
		} else {
			lockSet[i] = lock.PageResource(page.PageID(i * 7))
		}
	}
	lm := lock.New()
	ns, al = probe(0, nop, func(i int) {
		tx := page.TxID(i + 1)
		for _, r := range lockSet {
			_ = lm.Acquire(tx, r, lock.Exclusive) // uncontended: cannot fail
		}
		lm.ReleaseAll(tx)
	})
	set("lock.acquire_release", ns, al)

	// latch: one group latched and released.
	groups := b.db.NumGroups()
	lt := latch.New(groups)
	held := lt.NewHeld()
	ns, al = probe(0, nop, func(i int) {
		held.Acquire(page.GroupID(i % groups))
		held.ReleaseAll()
	})
	set("latch.acquire_release", ns, al)

	// wal: an unforced after-image append, and a forced one, into a
	// fresh log of walBatch records per batch: the growth of a log from
	// empty, as after a restart or truncation.
	const walBatch = 512
	image := make([]byte, ps)
	slot := int32(wal.NoSlot)
	if cfg.Logging == rda.RecordLogging {
		image = make([]byte, cfg.RecordSize+8)
		slot = 0
	}
	walCfg := wal.Config{LogPageSize: cfg.LogPageSize, WriteCost: cfg.LogWriteCost, Packed: cfg.PackedLog}
	var lg *wal.Log
	rec := func(i int) wal.Record {
		return wal.Record{Type: wal.TypeAfterImage, Txn: page.TxID(i + 1), Page: page.PageID(i % 64), Slot: slot, Image: image}
	}
	ns, al = probe(walBatch, func() { lg = wal.New(walCfg) }, func(i int) { lg.AppendUnforced(rec(i)) })
	set("wal.append", ns, al)
	ns, al = probe(walBatch, func() { lg = wal.New(walCfg) }, func(i int) { lg.Append(rec(i)) })
	set("wal.force", ns, al)

	// record: one slot write into a formatted page.
	rs := cfg.RecordSize
	rbuf := page.NewBuf(ps)
	_ = record.Format(rbuf, rs) // the geometry is valid for every workload
	rp, _ := record.View(rbuf)
	rdata := make([]byte, rs)
	slots := rp.Slots()
	ns, al = probe(0, nop, func(i int) { _ = rp.Write(i%slots, rdata) })
	set("record.write", ns, al)

	// erasure: XOR and GF(2^8) multiply-add throughput, Q over one group,
	// and a two-erasure solve.
	dst, src := make([]byte, ps), make([]byte, ps)
	for i := range src {
		src[i] = byte(i*31 + 7)
	}
	ns, al = probe(0, nop, func(int) { erasure.AddInto(dst, src) })
	res.set("erasure.add_gbps", "GB/s", float64(ps)/ns)
	ns, al = probe(0, nop, func(int) { erasure.MulAddInto(dst, src, 0x53) })
	res.set("erasure.muladd_gbps", "GB/s", float64(ps)/ns)
	blocks := make([][]byte, width)
	for i := range blocks {
		blocks[i] = make([]byte, ps)
		for j := range blocks[i] {
			blocks[i][j] = byte(i*j + i)
		}
	}
	ns, al = probe(0, nop, func(int) { erasure.ComputeQ(ps, blocks...) })
	res.set("erasure.compute_q_us", "us", ns/1e3)
	res.set("erasure.compute_q_allocs", "allocs/op", al)
	pBlock := erasure.ComputeP(ps, blocks...)
	qBlock := erasure.ComputeQ(ps, blocks...)
	lost := append([][]byte(nil), blocks...)
	lost[0], lost[width-1] = nil, nil
	ns, al = probe(0, nop, func(int) { erasure.ReconstructTwo(pBlock, qBlock, lost, 0, width-1) })
	res.set("erasure.solve_two_us", "us", ns/1e3)
	res.set("erasure.solve_two_allocs", "allocs/op", al)

	// page: the CRC-32C every disk read verifies.
	ns, _ = probe(0, nop, func(int) { _ = page.Buf(src).Checksum() })
	res.set("page.checksum_gbps", "GB/s", float64(ps)/ns)

	// disk: one verified block read and one block write.
	const blocksOnDisk = 256
	d := disk.New(0, blocksOnDisk, ps)
	for i := 0; i < blocksOnDisk; i++ {
		_ = d.Write(i, src, disk.Meta{}) // in range and full size: cannot fail
	}
	ns, al = probe(0, nop, func(i int) { _, _, _ = d.Read(i % blocksOnDisk) })
	set("disk.read", ns, al)
	ns, al = probe(0, nop, func(i int) { _ = d.Write(i%blocksOnDisk, src, disk.Meta{}) })
	set("disk.write", ns, al)
}
