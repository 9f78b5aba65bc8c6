package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
	"unsafe"

	"repro/rda/trace"
)

// spanKind names a traced call into the engine's public API.
type spanKind uint8

const (
	spanTx spanKind = iota // one transaction, Begin through its EOT
	spanBegin
	spanRead
	spanWrite
	spanCommit
	spanAbort
	spanCheckpoint
	spanRestart // parent of one crash and one recover
	spanCrash
	spanRecover
	spanRebuildStep
	spanKinds
)

var spanNames = [spanKinds]string{
	"tx", "begin", "read", "write", "commit", "abort", "checkpoint",
	"restart", "crash", "recover", "rebuild_step",
}

func spanOf(k trace.Kind) spanKind {
	switch k {
	case trace.OpBegin:
		return spanBegin
	case trace.OpCommit:
		return spanCommit
	case trace.OpAbort:
		return spanAbort
	case trace.OpReadPage, trace.OpReadRecord:
		return spanRead
	default:
		return spanWrite
	}
}

// span is one timed call.  Times are nanoseconds since the log's epoch;
// parent is the index of the enclosing span, -1 at top level.
type span struct {
	start, end int64
	tx         uint64
	parent     int32
	kind       spanKind
}

// maxSpans bounds a span log: 512 MiB of address space, of which only
// the spans recorded become resident.
const maxSpans = 1 << 24

// spanLog records spans in memory during traced passes; a nil log
// records nothing, which is how untraced passes run.  The spans live
// off the Go heap (see offHeap), so a traced run collects the engine's
// garbage as often as an untraced one.
type spanLog struct {
	epoch   time.Time
	mem     []byte
	spans   []span // over mem, capacity maxSpans
	dropped int64  // spans not recorded because the log was full
}

func newSpanLog() (*spanLog, error) {
	mem, err := offHeap(maxSpans * int(unsafe.Sizeof(span{})))
	if err != nil {
		return nil, fmt.Errorf("span log: %w", err)
	}
	spans := unsafe.Slice((*span)(unsafe.Pointer(unsafe.SliceData(mem))), maxSpans)[:0]
	return &spanLog{epoch: time.Now(), mem: mem, spans: spans}, nil
}

// free unmaps the log's memory; the log must not be used afterwards.
func (l *spanLog) free() {
	if l != nil {
		l.spans = nil
		syscall.Munmap(l.mem)
	}
}

// begin opens a span and returns its index; setTx names its
// transaction once the engine has assigned one.
func (l *spanLog) begin(k spanKind, parent int32) int32 {
	if l == nil {
		return -1
	}
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{start: int64(time.Since(l.epoch)), parent: parent, kind: k})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) end(i int32) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].end = int64(time.Since(l.epoch))
}

func (l *spanLog) setTx(i int32, tx uint64) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].tx = tx
}

// durations returns the self time, in nanoseconds, of every span of one
// kind of engine call.  Spans are recorded only at the API boundary, so
// a call span has no children and its self time is its duration (only
// the tx and restart spans are parents).
func (l *spanLog) durations(k spanKind) []int64 {
	var out []int64
	for _, s := range l.spans {
		if s.kind == k && s.end >= s.start {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// write dumps the spans as tab-separated lines: id, name, parent, tx,
// start and end in nanoseconds since the run's first traced pass.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tname\tparent\ttx\tstart_ns\tend_ns")
	for i, s := range l.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, spanNames[s.kind], s.parent, s.tx, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
