package main

import (
	"fmt"

	"repro/internal/record"
	"repro/internal/workload"
	"repro/rda"
	"repro/rda/trace"
)

// workloadDef is one benchmark workload: the engine configuration, the
// generator that plans its trace, and the driver-side schedule of
// restarts, checkpoints and drive failures.  Every schedule decision is
// keyed to the count of transactions ended in the current pass (or, for
// checkpoints, to the transfer count), never to the clock, so a seed
// fixes the whole run.
type workloadDef struct {
	name string
	cfg  rda.Config
	// spec and prof are handed to workload.FromSpec; prof.Seed is set
	// from the command line.
	spec string
	prof workload.Profile

	// restartEvery crashes and recovers the engine every this many ended
	// transactions (0: only the pq cycle schedules restarts).
	restartEvery int
	// checkpointEvery takes a checkpoint once this many page transfers
	// have elapsed since the last one (¬FORCE only).
	checkpointEvery int64

	// pq, when set, runs degraded cycles: fail two drives, serve double
	// degraded, rebuild, crash and recover.
	pq *pqCycle
	// quiescedRebuild, for workloads without online rebuild cycles,
	// fails one drive after every pass, when no transaction is open, and
	// rebuilds it.
	quiescedRebuild bool
	// rebuildStep is the maxGroups argument of every RebuildStep call.
	rebuildStep int
}

// pqCycle is the pq-degraded schedule, in transactions ended since the
// cycle began: two drives fail at 0 and the array serves double
// degraded, with transactions in flight throughout; at rebuildAt the
// two-drive rebuild runs, RebuildStep after RebuildStep, while the open
// transactions wait; at restartAt, with the array healthy again, the
// engine crashes and recovers; at length the next pair fails.
// restartAt moves by a different offset in each cycle of a pass,
// within [restartFrom, length), so the restarts sample many crash
// points of the trace rather than the same few; every pass uses the
// same offsets, so each ends in the same state.
//
// The restart is not taken while the drives are down, and the rebuild
// steps are not interleaved with transactions, because on the current
// engine each of those fails the oracle (README.md, "Known engine
// defects"); degraded recovery and interleaved rebuild are therefore
// not measured.
type pqCycle struct {
	length, rebuildAt, restartFrom int
}

// minSamples is the least number of restarts and rebuilds a run reports
// its recover_ms and rebuild_ms medians over.
const minSamples = 20

func workloads() []*workloadDef {
	return []*workloadDef{stealUniform(), bankNoForce(), pqDegraded()}
}

func findWorkload(name string) (*workloadDef, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// engineConfig is the deterministic engine shape every workload shares:
// one worker, synchronous drives, no simulated service time and no
// group-commit window, so no engine goroutine runs and nothing sleeps.
func engineConfig() rda.Config {
	cfg := rda.DefaultConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	cfg.IODelay = 0
	cfg.GroupCommitWindow = 0
	return cfg
}

// stealUniform is the paper's mechanism on a database larger than the
// buffer: RAID-5, twin parity, page logging, FORCE/TOC.
func stealUniform() *workloadDef {
	cfg := engineConfig()
	cfg.DataDisks = 10
	cfg.NumPages = 5000
	cfg.PageSize = 4096
	cfg.BufferFrames = 300
	cfg.Layout = rda.DataStriping
	cfg.Logging = rda.PageLogging
	cfg.EOT = rda.Force
	cfg.RDA = true
	return &workloadDef{
		name: "steal-uniform",
		cfg:  cfg,
		spec: "uniform",
		prof: workload.Profile{
			Mode:           trace.ModePage,
			Streams:        48,
			Transactions:   1600,
			PagesPerTx:     10,
			UpdateFraction: 0.8,
			UpdateProb:     0.9,
			AbortProb:      0.01,
			Hot:            0.5,
			Window:         cfg.BufferFrames,
			NumPages:       cfg.NumPages,
			PageSize:       cfg.PageSize,
		},
		restartEvery:    400,
		quiescedRebuild: true,
		rebuildStep:     64,
	}
}

// bankAccounts is the bank-noforce account count.
const bankAccounts = 4000

// bankNoForce is TPC-B-style transfers on a cache-resident database:
// parity striping, record logging with a packed log, ¬FORCE/ACC.
func bankNoForce() *workloadDef {
	cfg := engineConfig()
	cfg.DataDisks = 10
	cfg.PageSize = 2048
	cfg.RecordSize = 100
	perPage := record.Capacity(cfg.PageSize, cfg.RecordSize)
	pages := (bankAccounts + perPage - 1) / perPage
	cfg.NumPages = (pages + cfg.DataDisks - 1) / cfg.DataDisks * cfg.DataDisks
	cfg.BufferFrames = 300
	cfg.Layout = rda.ParityStriping
	cfg.Logging = rda.RecordLogging
	cfg.PackedLog = true
	cfg.EOT = rda.NoForce
	cfg.RDA = true
	return &workloadDef{
		name: "bank-noforce",
		cfg:  cfg,
		spec: fmt.Sprintf("banking:accounts=%d", bankAccounts),
		prof: workload.Profile{
			Mode:         trace.ModeRecord,
			Streams:      6,
			Transactions: 8000,
			AbortProb:    0.01,
			Window:       cfg.BufferFrames,
			NumPages:     cfg.NumPages,
			PageSize:     cfg.PageSize,
			RecordSize:   cfg.RecordSize,
		},
		restartEvery:    2000,
		checkpointEvery: 400,
		quiescedRebuild: true,
		rebuildStep:     8,
	}
}

// pqDegraded runs P+Q over RAID-5 through repeated double-failure
// cycles with zipfian skew.
func pqDegraded() *workloadDef {
	cfg := engineConfig()
	cfg.DataDisks = 10
	cfg.NumPages = 1000
	cfg.PageSize = 4096
	cfg.BufferFrames = 300
	cfg.Layout = rda.DataStriping
	cfg.Logging = rda.PageLogging
	cfg.EOT = rda.Force
	cfg.RDA = true
	cfg.QParity = true
	return &workloadDef{
		name: "pq-degraded",
		cfg:  cfg,
		spec: "zipfian:theta=0.9",
		prof: workload.Profile{
			Mode:           trace.ModePage,
			Streams:        6,
			Transactions:   3600,
			PagesPerTx:     10,
			UpdateFraction: 0.5,
			UpdateProb:     0.5,
			Window:         cfg.BufferFrames,
			NumPages:       cfg.NumPages,
			PageSize:       cfg.PageSize,
		},
		pq:          &pqCycle{length: 150, rebuildAt: 50, restartFrom: 60},
		rebuildStep: 5,
	}
}
