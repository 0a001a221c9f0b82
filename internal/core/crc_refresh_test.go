package core

import (
	"bytes"
	"testing"

	"milr/internal/faults"
	"milr/internal/nn"
)

// TestPartialHealRefreshesCRCToEncode checks the CRC refresh after a
// partial-mode conv heal, which recomputes only the CRC groups holding a
// suspect cell: every re-solved partial-mode conv's codes must equal a
// fresh convEncodeCRC of its weights, byte for byte. Chained 1024-flip
// heals cover CRC-localized suspects; a final round hides one corrupted
// weight from the CRC (its codes re-encoded over the corruption, as a
// CRC collision would), so the heal takes the all-taps fallback, whose
// cells the refresh must cover too.
func TestPartialHealRefreshesCRCToEncode(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() (*nn.Model, error)
	}{
		{"cifar-small", nn.NewCIFARSmallNet},
		{"mnist", nn.NewMNISTNet},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			m.InitWeights(42)
			pr, err := NewProtector(m, Options{Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			clean := m.Snapshot()
			checked := 0
			heal := func(round int) *RecoveryReport {
				_, rec, err := pr.SelfHeal()
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for _, res := range rec.Results {
					lp := pr.plan.layers[res.Layer]
					if lp.role != roleConv || !lp.partialMode || res.Status == Failed {
						continue
					}
					want, err := convEncodeCRC(lp.conv)
					if err != nil {
						t.Fatal(err)
					}
					for pos, code := range lp.crcs {
						_, _, _, gotRow, gotCol := code.Export()
						_, _, _, wantRow, wantCol := want[pos].Export()
						if !bytes.Equal(gotRow, wantRow) || !bytes.Equal(gotCol, wantCol) {
							t.Fatalf("round %d: layer %d (%s) pos %d: refreshed codes differ from a fresh encode", round, lp.idx, res.Name, pos)
						}
					}
					checked++
				}
				return rec
			}
			for round := 0; round < 4; round++ {
				faults.New(uint64(700+round)).FlipExactBits(m, 1024)
				heal(round)
			}
			if checked == 0 {
				t.Fatal("no partial-mode conv was re-solved; the check is vacuous")
			}

			// A CRC false negative: restore, corrupt one weight of the
			// first partial-mode conv, and re-encode its codes over it.
			if err := m.Restore(clean); err != nil {
				t.Fatal(err)
			}
			pr.ResetCRC()
			var lp *layerPlan
			for _, l := range pr.plan.layers {
				if l.role == roleConv && l.partialMode {
					lp = l
					break
				}
			}
			if lp == nil {
				t.Fatal("no partial-mode conv layer")
			}
			taps := lp.conv.FilterSize() * lp.conv.FilterSize() * lp.conv.InChannels()
			y := lp.conv.Filters()
			const k = 3
			lp.conv.Params().Data()[(taps/2)*y+k] += 0.75
			if lp.crcs, err = convEncodeCRC(lp.conv); err != nil {
				t.Fatal(err)
			}
			rec := heal(4)
			fallback := false
			for _, res := range rec.Results {
				if res.Layer == lp.idx && res.Solved == taps {
					fallback = true
				}
			}
			if !fallback {
				t.Fatalf("layer %d: want filter %d re-solved through the all-taps fallback, got %+v", lp.idx, k, rec.Results)
			}
		})
	}
}
