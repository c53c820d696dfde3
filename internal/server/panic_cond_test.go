package server

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"smartchaindb/internal/consensus"
	"smartchaindb/internal/keys"
	"smartchaindb/internal/schema"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/txtype"
)

// TestPanickingConditionIsARefusal: a registered condition that panics
// on some transaction refuses that transaction, naming the condition,
// instead of halting the validator that ran it. Valid transfers around
// it commit, and the four validators end on one chain.
func TestPanickingConditionIsARefusal(t *testing.T) {
	c := newTestCluster(4, 13)
	var doc map[string]any
	if err := json.Unmarshal([]byte(`{
  "type": "object",
  "required": ["id", "operation", "asset", "outputs", "inputs", "version"],
  "properties": {"operation": {"enum": ["NOTARIZE"]}}
}`), &doc); err != nil {
		t.Fatal(err)
	}
	compiled, err := schema.Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	const panicking = "NOTARIZE.2"
	for i := 0; i < 4; i++ {
		n := c.ServerNode(i)
		if err := n.Schemas().Register("NOTARIZE", compiled); err != nil {
			t.Fatal(err)
		}
		if err := n.Types().Register(&txtype.Type{
			Op: "NOTARIZE",
			Conditions: []txtype.Condition{
				{Name: "NOTARIZE.1", Doc: "all fulfillments verify", Check: func(_ *txtype.Context, t *txn.Transaction) error {
					return txn.VerifyFulfillments(t)
				}},
				{Name: panicking, Doc: "panics on a marked transaction", Check: func(_ *txtype.Context, t *txn.Transaction) error {
					if t.Asset.Data["mark"] == true {
						var counts map[string]int
						counts["boom"]++ // a write to a nil map
					}
					return nil
				}},
			},
		}); err != nil {
			t.Fatal(err)
		}
	}

	alice, bob := keys.MustGenerate(), keys.MustGenerate()
	creates := []*txn.Transaction{signedCreate(t, alice, "x"), signedCreate(t, bob, "y")}
	for _, tx := range creates {
		c.Submit(tx)
	}
	if got := c.RunUntilCommitted(2, time.Minute); got != 2 {
		t.Fatalf("%d of 2 creates committed", got)
	}
	transfer := func(from *keys.KeyPair, create *txn.Transaction, to *keys.KeyPair) *txn.Transaction {
		tr := txn.NewTransfer(create.ID,
			[]txn.Spend{{Ref: txn.OutputRef{TxID: create.ID, Index: 0}, Owners: []string{from.PublicBase58()}}},
			[]*txn.Output{{PublicKeys: []string{to.PublicBase58()}, Amount: 1}}, nil)
		if err := txn.Sign(tr, from); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	notarize := func(mark bool) *txn.Transaction {
		tx := txn.NewCreate(alice.PublicBase58(), map[string]any{"document": "abc", "mark": mark}, 1, nil)
		tx.Operation = "NOTARIZE"
		if err := txn.Sign(tx, alice); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	marked := notarize(true)
	valid := []*txn.Transaction{transfer(alice, creates[0], bob), notarize(false), transfer(bob, creates[1], alice)}
	c.Submit(valid[0])
	c.Submit(marked)
	c.Submit(valid[1])
	c.Submit(valid[2])
	c.RunUntil(c.Sched().Now() + 10*time.Second)

	for _, tx := range valid {
		if _, ok := c.CommitTime(tx.ID); !ok {
			t.Errorf("valid %s did not commit", tx.Operation)
		}
	}
	err = c.ServerNode(0).CheckTxBatch([]consensus.Tx{marked})[marked.ID]
	var ve *txn.ValidationError
	if !errors.As(err, &ve) || ve.Cond != panicking || !strings.Contains(ve.Reason, "panicked") {
		t.Fatalf("the marked transaction: %v; want a refusal naming %s", err, panicking)
	}
	if _, ok := c.CommitTime(marked.ID); ok {
		t.Fatal("the marked transaction committed")
	}
	want := c.ServerNode(0).State().Fingerprint()
	for i := 1; i < 4; i++ {
		if got := c.ServerNode(i).State().Fingerprint(); got != want {
			t.Errorf("validator %d fingerprint %s, validator 0's %s", i, got, want)
		}
	}
}
