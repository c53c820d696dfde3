package ledger

import (
	"encoding/json"
	"reflect"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/storage"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// preparedShares stages, against a committed state, the cross-shard
// shares the workload generators' transactions make: a fan-in
// TRANSFER's home share owning every input, half of them and none, and
// its participant share; a CREATE's and an ACCEPT_BID's home shares.
func preparedShares(tb testing.TB) []*Prepared {
	s := NewStateWith(storage.NewMemory())
	tb.Cleanup(func() { s.Close() })
	gen := workload.NewGenerator(11, keys.DeterministicKeyPair(600))
	grp := gen.NewAuctionGroup(0, workload.AuctionGroupSpec{BiddersPerAuction: 2, PayloadBytes: 16})
	owner := keys.DeterministicKeyPair(601)
	fund, fanIn := workload.FanIn(owner, keys.DeterministicKeyPair(602).PublicBase58(), 1, 4)
	for _, block := range [][]*txn.Transaction{append([]*txn.Transaction{grp.Request, fund}, grp.Creates...), grp.Bids} {
		if committed, skipped := s.CommitBlock(block); len(committed) != len(block) {
			tb.Fatal(skipped)
		}
	}
	half := func(i int) bool { return i >= 2 }
	all := func(int) bool { return true }
	none := func(int) bool { return false }
	var shares []*Prepared
	for _, c := range []struct {
		t    *txn.Transaction
		home bool
		owns func(int) bool
	}{
		{fanIn, true, all}, {fanIn, true, half}, {fanIn, true, none}, {fanIn, false, half},
		{gen.Create(owner, []string{"cnc"}, 64), true, none},
		{grp.Accept, true, all},
	} {
		p, err := s.StageOwned(c.t, c.home, c.owns)
		if err != nil {
			tb.Fatal(err)
		}
		shares = append(shares, p)
	}
	return shares
}

// recordKeys and recordValue are what an edit of FuzzDecodePrepared
// writes: every key a PREPARE record or one of its ops holds, and a
// value of every shape a JSON decode can hand back (recordValue builds
// a fresh one per call: an edit may later write into it).
var recordKeys = []string{"kind", "tx", "ops", "key", "doc", "spender", "outcome"}

func recordValue(i int) any {
	switch i % 20 {
	case 0:
		return nil
	case 1:
		return ""
	case 2:
		return "prepare"
	case 3:
		return "x"
	case 4:
		return 0.0
	case 5:
		return 1.0
	case 6:
		return 2.0
	case 7:
		return 3.0
	case 8:
		return 4.0
	case 9:
		return -1.0
	case 10:
		return 1.5
	case 11:
		return 1e300
	case 12:
		return true
	case 13:
		return []any{}
	case 14:
		return []any{nil}
	case 15:
		return []any{map[string]any{"kind": 1.0, "key": "k"}}
	case 16:
		return map[string]any{}
	case 17:
		return map[string]any{"kind": 1.0}
	case 18:
		return -0.5
	}
	return deleteKey{}
}

type deleteKey struct{}

// editRecord applies an edit program to a record: each three bytes
// pick a target — the record, or one of its ops — a key and a value,
// and write (or delete) it. Every byte string is a program.
func editRecord(doc map[string]any, edits []byte) {
	for ; len(edits) >= 3; edits = edits[3:] {
		ops, _ := doc["ops"].([]any)
		target, which := doc, int(edits[0])%(len(ops)+1)
		key, val := recordKeys[int(edits[1])%len(recordKeys)], recordValue(int(edits[2]))
		if which > 0 {
			m, isMap := ops[which-1].(map[string]any)
			if !isMap {
				if _, del := val.(deleteKey); !del {
					ops[which-1] = val
				}
				continue
			}
			target = m
		}
		if _, del := val.(deleteKey); del {
			delete(target, key)
		} else {
			target[key] = val
		}
	}
}

// TestDecodePreparedRefusesIncompleteOps: a record whose ops the seal
// could not apply as written is refused, not patched. A fractional kind
// used to decode as the kind below it, a write without its document or
// a spend without its spender went through, and ops that were not a
// list decoded as an empty share.
func TestDecodePreparedRefusesIncompleteOps(t *testing.T) {
	shares := preparedShares(t)
	home := shares[0].Doc() // tx, four spends, one output
	op := func(i int) map[string]any { return home["ops"].([]any)[i].(map[string]any) }
	if _, err := DecodePrepared(home); err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(){
		"no kind":            func() { delete(op(0), "kind") },
		"fractional kind":    func() { op(2)["kind"] = 1.5 },
		"write, no document": func() { delete(op(5), "doc") },
		"spend, no spender":  func() { delete(op(1), "spender") },
		"ops not a list":     func() { home["ops"] = map[string]any{} },
	} {
		home = shares[0].Doc()
		edit()
		if p, err := DecodePrepared(home); err == nil {
			t.Errorf("%s: accepted, %d ops", name, len(p.ops))
		}
	}
}

// FuzzDecodePrepared: a PREPARE record read back from a data
// directory's 2PC log is bytes off disk, decoded as JSON by storage,
// and DecodePrepared turns it into the ops a participant seals. On any
// record it must not panic, and every record it accepts must render
// (Doc) and decode again to the same ops, each carrying what its seal
// needs. An input is a record's JSON — seeded with the home and
// participant shares of the workload generators' transactions — and an
// edit program (editRecord) that rewrites fields of the decoded record
// and of its ops, so a mutation keeps a record's structure and changes
// a detail.
func FuzzDecodePrepared(f *testing.F) {
	for _, p := range preparedShares(f) {
		b, err := json.Marshal(p.Doc())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, []byte(nil))
		f.Add(b, []byte{1, 0, 10, 2, 5, 0, 0, 2, 19})
	}
	f.Fuzz(func(t *testing.T, record, edits []byte) {
		var doc map[string]any
		if json.Unmarshal(record, &doc) != nil || doc == nil {
			doc = map[string]any{}
		}
		editRecord(doc, edits)
		p, err := DecodePrepared(doc)
		if err != nil {
			return
		}
		for i, op := range p.ops {
			if op.kind == opMarkSpent && op.spender == "" || op.kind != opMarkSpent && op.doc == nil {
				t.Fatalf("accepted op %d without what its seal needs: %+v", i, op)
			}
		}
		back, err := DecodePrepared(p.Doc())
		if err != nil {
			t.Fatalf("accepted %v, then refused its own rendering: %v", doc, err)
		}
		if back.TxID != p.TxID || !reflect.DeepEqual(back.ops, p.ops) {
			t.Fatalf("round trip changed the share:\n decoded %s %+v\n again   %s %+v", p.TxID, p.ops, back.TxID, back.ops)
		}
	})
}
