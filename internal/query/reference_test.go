package query

import (
	"reflect"
	"slices"
	"testing"

	"smartchaindb/internal/ledger"
	"smartchaindb/internal/txn"
)

// The two walks as they read the chain before a transaction's fields
// were read in place: every hop decoded whole (StateView.GetTx).
// TestWalksMatchReference pins AssetProvenance and AuctionOutcome to
// them.

func refAssetProvenance(v *ledger.StateView, assetID string) []ProvenanceStep {
	var steps []ProvenanceStep
	cur := assetID
	seen := make(map[string]bool)
	for !seen[cur] {
		seen[cur] = true
		t, err := v.GetTx(cur)
		if err != nil {
			break
		}
		owners := []string{}
		for _, o := range t.Outputs {
			owners = append(owners, o.PublicKeys...)
		}
		slices.Sort(owners)
		steps = append(steps, ProvenanceStep{TxID: t.ID, Operation: t.Operation, Owners: slices.Compact(owners)})
		f, ok := v.Output(txn.OutputRef{TxID: t.ID, Index: 0})
		if !ok || f.SpentBy == "" {
			break
		}
		cur = f.SpentBy
	}
	return steps
}

func refAuctionOutcome(v *ledger.StateView, rfqID string) (*Outcome, bool) {
	accept, ok := v.AcceptForRFQ(rfqID)
	if !ok {
		return nil, false
	}
	out := &Outcome{RFQID: rfqID, AcceptID: accept.ID, WinningBid: accept.AssetID()}
	if win, err := v.GetTx(accept.AssetID()); err == nil && len(win.Outputs) > 0 && len(win.Outputs[0].PrevOwners) > 0 {
		out.Winner = win.Outputs[0].PrevOwners[0]
	}
	for i, o := range accept.Outputs {
		if i == 0 || len(o.PrevOwners) == 0 {
			continue
		}
		out.Losers = append(out.Losers, o.PrevOwners[0])
	}
	if rec, err := v.RecoveryFor(accept.ID); err == nil {
		out.Settled = rec.Status == ledger.RecoveryComplete
	}
	return out, true
}

// TestWalksMatchReference walks from every committed transaction of
// the marketplace (a settled auction with its children, an open one,
// a lone REQUEST) and of a 16-hop ownership chain, and asks the outcome
// of every REQUEST and of a transaction that is none: the in-place
// walks and the decoding ones answer alike.
func TestWalksMatchReference(t *testing.T) {
	m := newMarketplace(t)
	chain, _ := provenanceState(t, 64)
	for _, s := range []*ledger.State{m.node.State(), chain} {
		e, v := New(s), s.View()
		var ids []string
		for _, doc := range v.Collection(ledger.ColTransactions).BorrowFind(nil) {
			ids = append(ids, doc["id"].(string))
		}
		walked := 0
		for _, id := range append(ids, "missing") {
			got, want := e.AssetProvenance(id), refAssetProvenance(v, id)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("AssetProvenance(%.8s)\n got %+v\nwant %+v", id, got, want)
			}
			walked += len(got)
			gotOut, gotOK := e.AuctionOutcome(id)
			wantOut, wantOK := refAuctionOutcome(v, id)
			if gotOK != wantOK || !reflect.DeepEqual(gotOut, wantOut) {
				t.Errorf("AuctionOutcome(%.8s) = %+v, %v; want %+v, %v", id, gotOut, gotOK, wantOut, wantOK)
			}
		}
		if walked <= len(ids) {
			t.Errorf("%d walks took %d steps: no walk went past its first hop", len(ids), walked)
		}
	}
	if _, ok := New(m.node.State()).AuctionOutcome(m.settled.Request.ID); !ok {
		t.Error("the settled auction has no outcome")
	}
}
