package main

import (
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// calibration is a machine-speed probe.  It times a fixed chunk of work
// that runs no engine code and allocates nothing — CRC-32C and a copy
// of one 4 KiB page from a 1 MiB region, then calLookups probes of an
// 8 MiB open-addressing hash table, the engine's two kinds of work — so
// its time changes only when the machine's does: other tenants on the
// core, its caches or memory, frequency, steal time.
//
// Chunks run in bursts: before and after the replay, after each
// set-up, and in every measured pass after each restart (untimed, once
// the recovered state is verified, with the collector held off) and
// after each quiesced rebuild, so a pass's calibration samples the
// seconds the pass ran in.  The buffers are larger than a core's
// private cache and far smaller than the shared one, and a burst first
// reads every cache line of both, so the chunks find them in the shared
// cache whatever the engine left there: the probe does not move when
// the engine's own cache footprint does.  A probe that fit the private
// cache barely moved with the engine's slowdowns, and one that streamed
// pages from 32 MiB moved half to two thirds as much as the engine.
//
// The median chunk time of a pass scales the pass's timings to a
// machine whose chunk takes calRef ns.  The buffers are mapped outside
// the Go heap (offHeap).
type calibration struct {
	pages []byte   // calPages 4 KiB pages
	table []uint64 // calSlots (key, count) pairs, calKeys keys set
	dst   []byte
	samp  []float64 // chunk times since the last take, ns
	n     int       // samples in samp
	next  int       // page cursor
	x     uint64    // xorshift state of the lookups
	tab   *crc32.Table
	sink  uint32
	mem   [3][]byte // the mappings, unmapped by free
}

const (
	calPages    = 256 // 4 KiB pages in the page region (1 MiB)
	calStride   = 37  // odd, so the cursor visits every page
	calSlotBits = 19  // 2^19 slots of 16 B: 8 MiB
	calSlots    = 1 << calSlotBits
	calKeys     = calSlots / 2
	calLookups  = 32      // table probes per chunk
	calMaxSamp  = 1 << 16 // samples kept between takes
	// calBurst is the number of chunks timed before and after the
	// replay and after each set-up; calEventBurst after each restart and
	// quiesced rebuild of a pass.
	calBurst      = 2000
	calEventBurst = 500
	// calRef is the chunk time every timing is scaled to: a timing
	// taken when the chunk's median was c ns is reported as
	// timing*calRef/c, a rate as rate*c/calRef.
	calRef = 1000.0
	// calDriftLimit flags a run whose calibration moved by more than
	// the tightest timing bound in BENCHMARK.json.
	calDriftLimit = 0.25
)

func newCalibration() (*calibration, error) {
	c := &calibration{tab: crc32.MakeTable(crc32.Castagnoli), x: 88172645463325252}
	for i, n := range []int{calPages * 4096, calSlots * 16, calMaxSamp * 8} {
		m, err := offHeap(n)
		if err != nil {
			c.free()
			return nil, fmt.Errorf("calibration: %w", err)
		}
		c.mem[i] = m
	}
	c.pages = c.mem[0]
	c.table = unsafe.Slice((*uint64)(unsafe.Pointer(&c.mem[1][0])), 2*calSlots)
	c.samp = unsafe.Slice((*float64)(unsafe.Pointer(&c.mem[2][0])), calMaxSamp)
	c.dst = make([]byte, 4096)
	for i := range c.pages {
		c.pages[i] = byte(i * 7)
	}
	for k := uint64(1); k <= calKeys; k++ {
		h := calSlot(k)
		for c.table[2*h] != 0 {
			h = (h + 1) & (calSlots - 1)
		}
		c.table[2*h] = k
	}
	return c, nil
}

func (c *calibration) free() {
	for _, m := range c.mem {
		if m != nil {
			syscall.Munmap(m)
		}
	}
}

func calSlot(k uint64) uint64 { return (k * 0x9e3779b97f4a7c15) >> (64 - calSlotBits) }

// chunk runs and times one chunk of calibration work.
func (c *calibration) chunk() {
	t0 := time.Now()
	c.next = (c.next + calStride) % calPages
	pg := c.pages[c.next*4096 : (c.next+1)*4096]
	c.sink += crc32.Checksum(pg, c.tab)
	copy(c.dst, pg)
	for i := 0; i < calLookups; i++ {
		c.x ^= c.x << 13
		c.x ^= c.x >> 7
		c.x ^= c.x << 17
		k := c.x%calKeys + 1
		h := calSlot(k)
		for c.table[2*h] != k {
			h = (h + 1) & (calSlots - 1)
		}
		c.table[2*h+1]++
	}
	if c.n < calMaxSamp {
		c.samp[c.n] = float64(time.Since(t0).Nanoseconds())
		c.n++
	}
}

// burst brings the buffers into the cache, then runs n timed chunks
// back to back.
func (c *calibration) burst(n int) {
	for i := 0; i < len(c.pages); i += 64 {
		c.sink += uint32(c.pages[i])
	}
	for i := 0; i < len(c.table); i += 8 {
		c.sink += uint32(c.table[i])
	}
	for i := 0; i < n; i++ {
		c.chunk()
	}
}

// measure runs a burst of calBurst chunks with the collector held off
// and returns their median time, ns.
func (c *calibration) measure() float64 {
	debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	c.burst(calBurst)
	return c.take()
}

// take returns the median chunk time, ns, since the last take and
// starts a new sample.
func (c *calibration) take() float64 {
	s := c.samp[:c.n]
	c.n = 0
	if len(s) == 0 {
		return calRef
	}
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// reportCalibration prints the calibration before and after the replay
// and over its passes.  The passes' median is the figure to compare
// across runs: a run whose median is well above other runs' ran on a
// slowed machine.  The run is flagged when the medians of the first and
// the second half of its passes differ by more than calDriftLimit: the
// machine's speed changed while it ran.
func reportCalibration(log io.Writer, before, after float64, perPass []float64) {
	h := len(perPass) / 2
	first, second := median(perPass[:h]), median(perPass[h:])
	drift := 0.0
	if first > 0 {
		drift = math.Max(first, second)/math.Min(first, second) - 1
	}
	fmt.Fprintf(log, "# calibration (CRC-32C + copy of a 4 KiB page from 1 MiB, %d probes of an 8 MiB hash table; ns/chunk): passes median %.1f (halves %.1f, %.1f: drift %.1f%%), before %.1f, after %.1f; timings scaled to %.0f\n",
		calLookups, median(perPass), first, second, 100*drift, before, after, calRef)
	if drift > calDriftLimit {
		fmt.Fprintf(log, "# WARNING: calibration drifted %.0f%% (limit %.0f%%): the machine's speed changed during this run\n",
			100*drift, 100*calDriftLimit)
	}
}
