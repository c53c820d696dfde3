package ledger

import (
	"fmt"
	"runtime"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/txn"
)

// TestUTXORecordBytes pins what the UTXO set retains per output,
// counted off the heap rather than timed: over 64 k outputs, the live
// heap after a GC before and after building their records, then before
// and after spending them — four outputs to a spend, as a fan-in
// TRANSFER spends them, and one to a spend. An unspent record is one
// map group of the log's own values; a spend leaves one three-key
// marker shared by every output it consumes. The copy-on-spend
// reference (copyonspend_test.go), nine keys copied on every spend, is
// weighed beside it and must not fit the ceilings: if it did, they
// would no longer tell the two layouts apart.
func TestUTXORecordBytes(t *testing.T) {
	if raceEnabled || tripwireEnabled {
		t.Skip("heap sizes are not the program's own under the race detector or the tripwire")
	}
	const outputs = 64 << 10
	owner := keys.DeterministicKeyPair(90).PublicBase58()
	// The ledger reads a transaction's document, not its signatures:
	// unsigned CREATEs of four outputs each, their documents built.
	creates := make([]*txn.Transaction, outputs/4)
	for i := range creates {
		c := txn.NewCreate(owner, map[string]any{"seq": i}, 4, nil)
		c.Outputs = make([]*txn.Output, 4)
		for j := range c.Outputs {
			c.Outputs[j] = &txn.Output{PublicKeys: []string{owner}, Amount: 1}
		}
		c.ID = fmt.Sprintf("%064x", i)
		c.SharedDoc()
		creates[i] = c
	}
	spenders := make([]string, outputs)
	for i := range spenders {
		spenders[i] = fmt.Sprintf("%064x", outputs+i)
	}
	noUTXO := func(string) (map[string]any, bool) { return nil, false }

	for _, layout := range []struct {
		name  string
		build func(*txn.Transaction) ([]stagedOp, error)
		// spend is what a spend stores in place of record; prev is what
		// the spend before it in the same transaction stored.
		spend func(prev, record map[string]any, spender string) map[string]any
		// fits reports whether a reading is within its ceiling.
		fits bool
	}{
		{"marker", func(c *txn.Transaction) ([]stagedOp, error) { return homeOps(c, nil, noUTXO) },
			func(prev, record map[string]any, spender string) map[string]any {
				return spendMarker(prev, spender, record["asset_id"])
			}, true},
		{"copy-on-spend", func(c *txn.Transaction) ([]stagedOp, error) { return copyOnSpendHomeOps(c, nil, noUTXO) },
			func(_, record map[string]any, spender string) map[string]any {
				return copyOnSpend(record, spender)
			}, false},
	} {
		t.Run(layout.name, func(t *testing.T) {
			records := make([]map[string]any, 0, outputs)
			fanIn, single := make([]map[string]any, outputs), make([]map[string]any, outputs)
			before := liveHeap()
			for _, c := range creates {
				ops, err := layout.build(c)
				if err != nil {
					t.Fatal(err)
				}
				for _, op := range ops {
					if op.kind == opInsertUTXO {
						records = append(records, op.doc)
					}
				}
			}
			perRecord := float64(liveHeap()-before) / outputs

			before = liveHeap()
			for i := 0; i < outputs; i += 4 {
				var prev map[string]any
				for j := i; j < i+4; j++ {
					fanIn[j] = layout.spend(prev, records[j], spenders[i])
					prev = fanIn[j]
				}
			}
			perFanInSpent := float64(liveHeap()-before) / outputs

			before = liveHeap()
			for i := range single {
				single[i] = layout.spend(nil, records[i], spenders[i])
			}
			perSingleSpent := float64(liveHeap()-before) / outputs
			runtime.KeepAlive(records)
			runtime.KeepAlive(fanIn)
			runtime.KeepAlive(single)

			t.Logf("%s: %.0f B per unspent record, %.0f B per output a 4-input spend consumed, %.0f B per output a 1-input spend consumed",
				layout.name, perRecord, perFanInSpent, perSingleSpent)
			for _, c := range []struct {
				what    string
				got     float64
				ceiling float64
			}{
				{"an unspent record", perRecord, 352},
				{"an output spent by a 4-input spend", perFanInSpent, 100},
				{"an output spent by a 1-input spend", perSingleSpent, 368},
			} {
				if fits := c.got <= c.ceiling; fits != layout.fits {
					t.Errorf("%s: %s retains %.0f B, ceiling %.0f (want within it: %v)", layout.name, c.what, c.got, c.ceiling, layout.fits)
				}
			}
		})
	}
}

func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
