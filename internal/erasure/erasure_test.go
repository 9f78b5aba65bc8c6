package erasure_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/erasure"
)

// TestFieldAxioms spot-checks the ring structure the reconstruction
// algebra relies on: commutativity, associativity and distributivity
// over XOR addition.
func TestFieldAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 10000; n++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if erasure.Mul(a, b) != erasure.Mul(b, a) {
			t.Fatalf("ab != ba for %#x %#x", a, b)
		}
		if erasure.Mul(erasure.Mul(a, b), c) != erasure.Mul(a, erasure.Mul(b, c)) {
			t.Fatalf("(ab)c != a(bc) for %#x %#x %#x", a, b, c)
		}
		if erasure.Mul(a, b^c) != erasure.Mul(a, b)^erasure.Mul(a, c) {
			t.Fatalf("a(b+c) != ab+ac for %#x %#x %#x", a, b, c)
		}
	}
}

// randStripe builds k random data blocks of the given size.
func randStripe(rng *rand.Rand, k, size int) [][]byte {
	blocks := make([][]byte, k)
	for i := range blocks {
		blocks[i] = make([]byte, size)
		rng.Read(blocks[i])
	}
	return blocks
}

// plainXor is the byte-at-a-time XOR of the given equal-length blocks —
// the reference every P-equation identity below is checked against.
func plainXor(size int, blocks ...[]byte) []byte {
	out := make([]byte, size)
	for _, b := range blocks {
		for i := range out {
			out[i] ^= b[i]
		}
	}
	return out
}

// TestXorPathByteIdentical pins the P equation of the erasure code to
// plain XOR parity, byte for byte, and checks the three identities the
// paper's recovery actions rest on — the small-write update
// P_new = P ⊕ D_old ⊕ D_new (Section 3.1), the twin undo
// D_old = (P ⊕ P′) ⊕ D_new (Figure 6) and media reconstruction (a lost
// block is the XOR of its group's survivors) — as the engine computes
// them through ComputeP and AddInto.
func TestXorPathByteIdentical(t *testing.T) {
	t.Run("ComputeP", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		for trial := 0; trial < 200; trial++ {
			k := 1 + rng.Intn(12)
			size := 16 + rng.Intn(64)
			blocks := randStripe(rng, k, size)
			if got := erasure.ComputeP(size, blocks...); !bytes.Equal(got, plainXor(size, blocks...)) {
				t.Fatalf("ComputeP diverges from plain XOR")
			}
			acc := make([]byte, size)
			for _, b := range blocks {
				erasure.AddInto(acc, b)
			}
			if !bytes.Equal(acc, plainXor(size, blocks...)) {
				t.Fatalf("AddInto accumulation diverges from plain XOR")
			}
			// Nil blocks are holes that count as zero pages, wherever
			// they sit (a group with erased members).
			holes := append([][]byte(nil), blocks...)
			var present [][]byte
			for i := range holes {
				if rng.Intn(3) == 0 {
					holes[i] = nil
				} else {
					present = append(present, holes[i])
				}
			}
			if got := erasure.ComputeP(size, holes...); !bytes.Equal(got, plainXor(size, present...)) {
				t.Fatalf("ComputeP over a group with holes diverges from plain XOR")
			}
		}
	})
	t.Run("ComputeEmpty", func(t *testing.T) {
		if !bytes.Equal(erasure.ComputeP(16), make([]byte, 16)) {
			t.Fatalf("parity of no blocks must be zero")
		}
	})
	t.Run("SmallWriteMatchesRecompute", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		const size, n = 256, 5
		group := randStripe(rng, n, size)
		parity := erasure.ComputeP(size, group...)
		for step := 0; step < 50; step++ {
			i := rng.Intn(n)
			dNew := randStripe(rng, 1, size)[0]
			parity = erasure.ComputeP(size, parity, group[i], dNew) // P ⊕ D_old ⊕ D_new
			group[i] = dNew
			if !bytes.Equal(parity, plainXor(size, group...)) {
				t.Fatalf("step %d: small-write parity diverged from full recompute", step)
			}
		}
	})
	t.Run("UndoTwinRecoversBeforeImage", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		const size, n = 128, 4
		group := randStripe(rng, n, size)
		committed := erasure.ComputeP(size, group...)
		dOld := group[2]
		dNew := randStripe(rng, 1, size)[0]
		working := erasure.ComputeP(size, committed, dOld, dNew)
		if got := erasure.ComputeP(size, committed, working, dNew); !bytes.Equal(got, dOld) {
			t.Fatalf("twin undo did not recover the before-image")
		}
		if got := erasure.ComputeP(size, working, committed, dNew); !bytes.Equal(got, dOld) {
			t.Fatalf("twin undo must be symmetric in its parity arguments")
		}
	})
	t.Run("QuickSmallWriteUndoRoundTrip", func(t *testing.T) {
		// For any group state and any overwrite, (P ⊕ P′) ⊕ D_new == D_old.
		f := func(a, b, c, dOld, dNew [48]byte) bool {
			committed := erasure.ComputeP(48, a[:], b[:], c[:], dOld[:])
			working := erasure.ComputeP(48, committed, dOld[:], dNew[:])
			return bytes.Equal(erasure.ComputeP(48, committed, working, dNew[:]), dOld[:])
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("ReconstructLostBlock", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		const size, n = 64, 7
		group := randStripe(rng, n, size)
		parity := erasure.ComputeP(size, group...)
		for lost := 0; lost < n; lost++ {
			survivors := [][]byte{parity}
			for i, b := range group {
				if i != lost {
					survivors = append(survivors, b)
				}
			}
			if got := erasure.ComputeP(size, survivors...); !bytes.Equal(got, group[lost]) {
				t.Fatalf("failed to reconstruct data block %d", lost)
			}
		}
		if got := erasure.ComputeP(size, group...); !bytes.Equal(got, parity) {
			t.Fatalf("failed to reconstruct the parity block")
		}
	})
	t.Run("XorProperties", func(t *testing.T) {
		type blocks struct{ A, B, C [32]byte }
		xor := func(a, b []byte) []byte { return erasure.ComputeP(len(a), a, b) }
		for name, f := range map[string]func(blocks) bool{
			"selfInverse": func(in blocks) bool {
				return bytes.Equal(xor(xor(in.A[:], in.B[:]), in.B[:]), in.A[:])
			},
			"commutative": func(in blocks) bool {
				return bytes.Equal(xor(in.A[:], in.B[:]), xor(in.B[:], in.A[:]))
			},
			"associative": func(in blocks) bool {
				return bytes.Equal(xor(xor(in.A[:], in.B[:]), in.C[:]), xor(in.A[:], xor(in.B[:], in.C[:])))
			},
		} {
			if err := quick.Check(f, nil); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	})
	t.Run("AddIntoPanicsOnMismatch", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatalf("expected panic on length mismatch")
			}
		}()
		erasure.AddInto(make([]byte, 4), make([]byte, 5))
	})
}

// TestQSmallWriteMatchesRecompute checks the incremental Q update against
// a full recomputation for every group index.
func TestQSmallWriteMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		k := 2 + rng.Intn(10)
		size := 32
		blocks := randStripe(rng, k, size)
		q := erasure.ComputeQ(size, blocks...)
		idx := rng.Intn(k)
		dNew := make([]byte, size)
		rng.Read(dNew)
		got := erasure.QSmallWrite(q, blocks[idx], dNew, idx)
		blocks[idx] = dNew
		want := erasure.ComputeQ(size, blocks...)
		if !bytes.Equal(got, want) {
			t.Fatalf("erasure.QSmallWrite(idx=%d, k=%d) diverges from recompute", idx, k)
		}
		if !erasure.VerifyQ(got, blocks...) {
			t.Fatalf("VerifyQ rejects recomputed Q")
		}
	}
}

// TestAnyTwoErasures fuzzes the central claim: for random stripes, ANY
// two missing data blocks are recovered exactly from P and Q, and any
// single missing block is recovered from Q alone.
func TestAnyTwoErasures(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		k := 2 + rng.Intn(14)
		size := 16 + rng.Intn(48)
		blocks := randStripe(rng, k, size)
		p := erasure.ComputeP(size, blocks...)
		q := erasure.ComputeQ(size, blocks...)
		i := rng.Intn(k)
		j := rng.Intn(k)
		for j == i {
			j = rng.Intn(k)
		}
		holed := make([][]byte, k)
		copy(holed, blocks)
		holed[i], holed[j] = nil, nil
		di, dj := erasure.ReconstructTwo(p, q, holed, i, j)
		if !bytes.Equal(di, blocks[i]) || !bytes.Equal(dj, blocks[j]) {
			t.Fatalf("two-erasure recovery wrong for (i=%d, j=%d, k=%d)", i, j, k)
		}
		holed[j] = blocks[j]
		if got := erasure.ReconstructOneQ(q, holed, i); !bytes.Equal(got, blocks[i]) {
			t.Fatalf("one-erasure-from-Q recovery wrong for (i=%d, k=%d)", i, k)
		}
	}
}

// TestAllErasurePairsExhaustive walks every (i, j) pair of one stripe so
// no coefficient pair is left to sampling luck.
func TestAllErasurePairsExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const k, size = 12, 32
	blocks := randStripe(rng, k, size)
	p := erasure.ComputeP(size, blocks...)
	q := erasure.ComputeQ(size, blocks...)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			holed := make([][]byte, k)
			copy(holed, blocks)
			holed[i], holed[j] = nil, nil
			di, dj := erasure.ReconstructTwo(p, q, holed, i, j)
			if !bytes.Equal(di, blocks[i]) || !bytes.Equal(dj, blocks[j]) {
				t.Fatalf("pair (%d,%d) not recovered", i, j)
			}
		}
	}
}

// FuzzTwoErasure is the CI smoke fuzz target: derive a stripe from the
// fuzzed bytes, knock out two blocks, demand exact recovery.
func FuzzTwoErasure(f *testing.F) {
	f.Add([]byte("seed corpus stripe material, long enough to slice"), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, a, b uint8) {
		const size = 8
		k := 2 + int(a%14)
		if len(raw) < k*size {
			return
		}
		blocks := make([][]byte, k)
		for i := range blocks {
			blocks[i] = raw[i*size : (i+1)*size]
		}
		i := int(a) % k
		j := int(b) % k
		if i == j {
			j = (j + 1) % k
		}
		p := erasure.ComputeP(size, blocks...)
		q := erasure.ComputeQ(size, blocks...)
		holed := make([][]byte, k)
		copy(holed, blocks)
		holed[i], holed[j] = nil, nil
		di, dj := erasure.ReconstructTwo(p, q, holed, i, j)
		if !bytes.Equal(di, blocks[i]) || !bytes.Equal(dj, blocks[j]) {
			t.Fatalf("two-erasure recovery wrong for (i=%d, j=%d, k=%d)", i, j, k)
		}
	})
}
