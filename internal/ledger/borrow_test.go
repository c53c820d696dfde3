package ledger

import (
	"reflect"
	"testing"

	"smartchaindb/internal/txn"
)

// TestStoredReadsMatchCopyingDecode: every read behind
// txtype.ChainState decodes through txn.FromStoredDoc, which borrows
// the stored free-form maps; txn.FromDoc, which copies them, is the
// reference. At every retained height of the ownership stream — each
// generator's shapes, nested children, a cross-shard apply — on both
// backends and again after a disk reopen, each stored transaction
// decodes to the same value both ways, GetTx, AcceptForRFQ and
// TxsByOperation return exactly the copying decode of the documents
// they read, and LockedBidsForRFQ names BIDs of the REQUEST.
func TestStoredReadsMatchCopyingDecode(t *testing.T) {
	// check returns how many locked bids and accepts it compared.
	check := func(t *testing.T, s *State) (bids, accepts int) {
		t.Helper()
		lo, hi := s.store.Backend().Floor(), s.store.Backend().Visible()
		for h := lo; h <= hi; h++ {
			v, err := s.StateAt(h)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]*txn.Transaction{}
			byOp := map[string]int{}
			for _, doc := range v.col(ColTransactions).BorrowFind(nil) {
				id := doc["id"].(string)
				ref, err := txn.FromDoc(doc)
				if err != nil {
					t.Fatal(err)
				}
				want[id] = ref
				byOp[ref.Operation]++
				got, err := txn.FromStoredDoc(doc)
				if err != nil || !reflect.DeepEqual(got, ref) {
					t.Fatalf("height %d, %s %.8s: FromStoredDoc\n got %+v (%v)\nwant %+v", h, ref.Operation, id, got, err, ref)
				}
				if got, err = v.GetTx(id); err != nil || !reflect.DeepEqual(got, ref) {
					t.Fatalf("height %d, %s %.8s: GetTx\n got %+v (%v)\nwant %+v", h, ref.Operation, id, got, err, ref)
				}
				if len(got.Metadata) > 0 && reflect.ValueOf(got.Metadata).UnsafePointer() != reflect.ValueOf(doc["metadata"]).UnsafePointer() {
					t.Fatalf("height %d, %.8s: GetTx copied the stored metadata", h, id)
				}
			}
			same := func(what string, got []*txn.Transaction) {
				t.Helper()
				for _, tx := range got {
					if !reflect.DeepEqual(tx, want[tx.ID]) {
						t.Errorf("height %d, %s returned %.8s\n got %+v\nwant %+v", h, what, tx.ID, tx, want[tx.ID])
					}
				}
			}
			for op, n := range byOp {
				got := v.TxsByOperation(op)
				if len(got) != n {
					t.Errorf("height %d: TxsByOperation(%s) = %d transactions, stored %d", h, op, len(got), n)
				}
				same("TxsByOperation("+op+")", got)
			}
			for _, rfq := range v.TxsByOperation(txn.OpRequest) {
				for _, id := range v.LockedBidsForRFQ(rfq.ID) {
					if bid, ok := want[id]; !ok || bid.Operation != txn.OpBid || !bid.HasRef(rfq.ID) {
						t.Errorf("height %d: LockedBidsForRFQ(%.8s) names %.8s, not one of its BIDs", h, rfq.ID, id)
					}
					bids++
				}
				if accept, ok := v.AcceptForRFQ(rfq.ID); ok {
					same("AcceptForRFQ", []*txn.Transaction{accept})
					accepts++
				}
			}
		}
		return bids, accepts
	}
	eachBackend(t, func(t *testing.T, open func() *State) {
		s := open()
		s.SetRetain(64)
		newOwnershipStream().commit(t, s)
		if bids, accepts := check(t, s); bids == 0 || accepts == 0 {
			t.Fatalf("compared %d locked bids and %d accepts: the stream did not reach them", bids, accepts)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("reopened", func(t *testing.T) {
		dir := t.TempDir()
		s := openDiskState(t, dir)
		newOwnershipStream().commit(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = openDiskState(t, dir)
		defer s.Close()
		if _, accepts := check(t, s); accepts == 0 {
			t.Fatal("the reopened state holds no accept")
		}
	})
}
