package main

import (
	"bytes"
	"fmt"
	"io"

	"repro/rda"
	"repro/rda/trace"
)

// oracle checks the engine's state at the end of the run, untimed, and
// returns every violation found.  Page workloads compare each page's
// on-disk image with the last committed payload the driver saw; the
// banking workload checks the conserved total and every balance against
// the generator's book.  Every workload then checks the parity
// invariant and that the integrity plane never saw a corrupt block.
func (b *bench) oracle(log io.Writer) ([]string, error) {
	var v []string
	if b.bank != nil {
		total, err := b.bank.TotalIn(b.db)
		if err != nil {
			return nil, fmt.Errorf("oracle: reading balances: %w", err)
		}
		if want := b.bank.ExpectedTotal(); total != want {
			v = append(v, fmt.Sprintf("bank total %d, want %d", total, want))
		}
		tx, err := b.db.Begin()
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		for a, want := range b.bank.Balances() {
			got, err := b.bank.BalanceIn(tx, a)
			if err != nil {
				return nil, fmt.Errorf("oracle: account %d: %w", a, err)
			}
			if got != want {
				v = append(v, fmt.Sprintf("account %d balance %d, book %d", a, got, want))
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	} else {
		zero := make([]byte, b.pageSize)
		for p := range b.shadow {
			img, err := b.db.PeekPage(rda.PageID(p))
			if err != nil {
				return nil, fmt.Errorf("oracle: page %d: %w", p, err)
			}
			want := zero
			if b.shadowSet[p] {
				want = trace.Payload(b.shadow[p], b.pageSize)
			}
			if !bytes.Equal(img, want) {
				v = append(v, fmt.Sprintf("page %d differs from its last committed payload", p))
			}
		}
	}
	if err := b.db.VerifyParity(); err != nil {
		v = append(v, fmt.Sprintf("parity: %v", err))
	}
	st := b.db.Stats()
	if st.CorruptBlocksDetected != 0 || st.UnrecoverableCorruption != 0 {
		v = append(v, fmt.Sprintf("integrity plane saw %d corrupt and %d unrecoverable blocks",
			st.CorruptBlocksDetected, st.UnrecoverableCorruption))
	}
	for i, s := range v {
		if i == 10 {
			fmt.Fprintf(log, "# oracle: ... %d more\n", len(v)-i)
			break
		}
		fmt.Fprintln(log, "# oracle violation:", s)
	}
	if len(v) == 0 {
		fmt.Fprintln(log, "# oracle: ok")
	}
	return v, nil
}
