package ledger

import (
	"bytes"
	"reflect"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/storage"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// The write contract at this layer: the ledger builds every document it
// stores, hands it to the docstore and never touches it again, and its
// updates assign top-level keys only. The tests below pin that against
// the deep-copying write path it replaced, against a client that keeps
// writing to its transaction, and against every blessed way of changing
// a transaction whose document was already built.

// copyingBackend is the deep-copying write path as a storage decorator:
// every document is deep-copied as it is stored, so no stored version
// shares anything with the caller that wrote it, with the version it
// replaced or with any other stored document — the isolation the
// docstore used to buy with a copy per Insert and per Update. It is the
// reference the owning path is pinned to at this layer; the docstore's
// own reference (docstore/reference_test.go) is the old code verbatim.
type copyingBackend struct{ storage.Backend }

func (b copyingBackend) Collection(name string) storage.Collection {
	return copyingCollection{b.Backend.Collection(name)}
}

type copyingCollection struct{ storage.Collection }

func (c copyingCollection) Put(key string, doc map[string]any) error {
	return c.Collection.Put(key, copyDoc(doc).(map[string]any))
}

func copyDoc(v any) any {
	switch x := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, e := range x {
			out[k] = copyDoc(e)
		}
		return out
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			out[i] = copyDoc(e)
		}
		return out
	}
	return v
}

// ownershipStream is one of everything the system commits: each
// internal/workload generator (CREATE, REQUEST, BID, ACCEPT_BID through
// an auction group, the fan-in CREATE and its 4-input TRANSFER, a
// CREATE with a payload) in blocks, the accept's nested children with
// their recovery-log updates and the parent's children vector, and one
// transaction through the cross-shard prepare → apply path.
type ownershipStream struct {
	escrow *keys.KeyPair
	group  *workload.AuctionGroup
	blocks [][]*txn.Transaction
	cross  *txn.Transaction // StageOwned → LogPrepare → ApplyPrepared
}

func newOwnershipStream() *ownershipStream {
	escrow := keys.DeterministicKeyPair(500)
	gen := workload.NewGenerator(24, escrow)
	owner := keys.DeterministicKeyPair(501)
	grp := gen.NewAuctionGroup(0, workload.AuctionGroupSpec{BiddersPerAuction: 3, PayloadBytes: 96})
	fund1, fan1 := workload.FanIn(owner, owner.PublicBase58(), 1, 4)
	fund2, fan2 := workload.FanIn(owner, owner.PublicBase58(), 2, 4)
	return &ownershipStream{
		escrow: escrow,
		group:  grp,
		blocks: [][]*txn.Transaction{
			append(append([]*txn.Transaction{grp.Request, fund1, fund2}, grp.Creates...), gen.Create(owner, []string{"cnc"}, 1024)),
			append([]*txn.Transaction{fan1}, grp.Bids...),
			{grp.Accept, fan1}, // fan1 again: a duplicate delivery, skipped
		},
		cross: fan2,
	}
}

// commit drives the stream through s's product entry points.
func (w *ownershipStream) commit(t *testing.T, s *State) {
	t.Helper()
	for _, block := range w.blocks {
		if _, _, err := commitAt(s, s.Height()+1, block); err != nil {
			t.Fatal(err)
		}
	}
	accept, escrowPub := w.group.Accept, w.escrow.PublicBase58()
	rec, err := s.RecoveryFor(accept.ID)
	if err != nil || len(rec.Pending) != len(w.group.Bids) {
		t.Fatalf("children of the accept: %+v, %v", rec, err)
	}
	for _, spec := range rec.Pending {
		child := BuildChild(spec, escrowPub)
		if err := txn.Sign(child, w.escrow); err != nil {
			t.Fatal(err)
		}
		if committed, skipped := s.CommitBlock([]*txn.Transaction{child}); len(committed) != 1 {
			t.Fatalf("child of output %d: %v", spec.OutputIndex, skipped)
		}
	}
	p, err := s.StageOwned(w.cross, true, func(int) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LogPrepare(p); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyPrepared(p, map[string]any{"kind": "decision", "tx": w.cross.ID, "outcome": "commit"}); err != nil {
		t.Fatal(err)
	}
}

// scribble is a client that goes on writing to the transactions it
// submitted — raw field writes into the free-form maps, no Invalidate —
// after the commits returned. The store must hold none of that memory.
func (w *ownershipStream) scribble() {
	txs := []*txn.Transaction{w.cross}
	for _, block := range w.blocks {
		txs = append(txs, block...)
	}
	for _, tx := range txs {
		if tx.Asset != nil && tx.Asset.Data != nil {
			tx.Asset.Data["capabilities"] = []any{"scribbled"}
			tx.Asset.Data["scribbled"] = true
		}
		if tx.Metadata != nil {
			tx.Metadata["scribbled"] = true
		}
	}
}

// contents reads every document of every collection, the recovery log,
// the block records and the 2PC log included — the fingerprint covers
// three collections, this covers all of them.
func contents(s *State) map[string][]map[string]any {
	out := map[string][]map[string]any{}
	for _, name := range s.store.Backend().CollectionNames() {
		out[name] = s.store.Collection(name).Find(nil)
	}
	return out
}

// TestOwningCommitMatchesCopyingReference is the write-side
// differential: the stream committed through the owning Insert/Upsert
// and the copy-on-write Update, and through the deep-copying reference,
// leaves the same fingerprint, the same documents in every collection
// and, on disk, the same WAL bytes and the same recovered state — also
// after the client has scribbled over everything it submitted, which
// the reference, holding copies, cannot notice.
func TestOwningCommitMatchesCopyingReference(t *testing.T) {
	for _, backend := range []string{"memory", "disk"} {
		t.Run(backend, func(t *testing.T) {
			open := func(dir string) storage.Backend {
				if backend == "memory" {
					return storage.NewMemory()
				}
				eng, err := storage.Open(dir, storage.Options{NoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			ownDir, refDir := t.TempDir(), t.TempDir()
			own := NewStateWith(open(ownDir))
			ref := NewStateWith(copyingBackend{open(refDir)})
			// One stream each: the two states share no transaction
			// object, so neither can lean on a document the other built.
			for _, s := range []*State{ref, own} {
				w := newOwnershipStream()
				w.commit(t, s)
				w.scribble()
			}

			if own.Height() != ref.Height() || own.Height() < 7 {
				t.Fatalf("heights: owning %d, reference %d", own.Height(), ref.Height())
			}
			if of, rf := own.Fingerprint(), ref.Fingerprint(); of != rf {
				t.Fatalf("fingerprints differ:\n owning    %s\n reference %s", of, rf)
			}
			oc, rc := contents(own), contents(ref)
			if len(oc[ColRecovery]) != 1 || len(oc[storage.TwoPCCollection]) == 0 {
				t.Fatalf("the stream did not reach the recovery log or the 2PC log: %d, %d", len(oc[ColRecovery]), len(oc[storage.TwoPCCollection]))
			}
			for name := range rc {
				if !reflect.DeepEqual(oc[name], rc[name]) {
					t.Errorf("collection %s differs:\n owning    %v\n reference %v", name, oc[name], rc[name])
				}
			}
			if err := own.Close(); err != nil {
				t.Fatal(err)
			}
			if err := ref.Close(); err != nil {
				t.Fatal(err)
			}
			if backend == "memory" {
				return
			}
			if ow, rw := readWAL(t, ownDir), readWAL(t, refDir); len(ow) == 0 || !bytes.Equal(ow, rw) {
				t.Fatalf("WAL byte streams differ: owning %d bytes, reference %d bytes", len(ow), len(rw))
			}
			own2, ref2 := openDiskState(t, ownDir), openDiskState(t, refDir)
			defer own2.Close()
			defer ref2.Close()
			if of, rf := own2.Fingerprint(), ref2.Fingerprint(); of != rf {
				t.Fatalf("recovered fingerprints differ:\n owning    %s\n reference %s", of, rf)
			}
		})
	}
}

// TestStoreHoldsNoClientMemory: what a client does to its transaction
// after the commit returns is its own business. The asset record used
// to hold t.Asset.Data itself (behind the docstore's copy-in, which is
// gone); it now shares the transaction document's normalised data, so
// writes to the client's maps reach neither the asset record, nor the
// logged transaction, nor the fingerprint.
func TestStoreHoldsNoClientMemory(t *testing.T) {
	eachBackend(t, func(t *testing.T, open func() *State) {
		s := open()
		defer s.Close()
		owner := keys.DeterministicKeyPair(510)
		create := txn.NewCreate(owner.PublicBase58(),
			map[string]any{"capabilities": []any{"cnc"}, "spec": map[string]any{"axes": 5}},
			3, map[string]any{"note": "as signed"})
		if err := txn.Sign(create, owner); err != nil {
			t.Fatal(err)
		}
		if committed, skipped := s.CommitBlock([]*txn.Transaction{create}); len(committed) != 1 {
			t.Fatal(skipped)
		}
		before := s.Fingerprint()
		wantAsset := map[string]any{
			"id": create.ID, "operation": txn.OpCreate,
			"data": map[string]any{"capabilities": []any{"cnc"}, "spec": map[string]any{"axes": 5.0}},
		}

		create.Asset.Data["capabilities"].([]any)[0] = "forged"
		create.Asset.Data["spec"].(map[string]any)["axes"] = 9
		create.Asset.Data["added"] = true
		create.Metadata["note"] = "rewritten"
		create.Outputs[0].Amount = 99

		asset, err := s.store.Collection(ColAssets).Get(create.ID)
		if err != nil || !reflect.DeepEqual(asset, wantAsset) {
			t.Errorf("asset record after the client wrote to Asset.Data:\n got %v (%v)\nwant %v", asset, err, wantAsset)
		}
		logged, err := s.GetTx(create.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(logged.Asset.Data, wantAsset["data"]) || logged.Metadata["note"] != "as signed" || logged.Outputs[0].Amount != 3 {
			t.Errorf("logged transaction follows the client's writes: %+v %v %+v", logged.Asset, logged.Metadata, logged.Outputs[0])
		}
		if after := s.Fingerprint(); after != before {
			t.Errorf("fingerprint moved with the client's writes: %s → %s", before, after)
		}
	})
}

// TestNoStaleDocumentIsCommitted: a transaction whose document was
// already built (a schema check ran) and which then changes through a
// blessed mutation point — Sign, an edited Clone, SetID on a clone —
// commits the document of what it now is. Each case changes the
// transaction the way its name says, commits, and reads it back.
func TestNoStaleDocumentIsCommitted(t *testing.T) {
	owner := keys.DeterministicKeyPair(520)
	build := func(seq int) *txn.Transaction {
		tx := txn.NewCreate(owner.PublicBase58(), map[string]any{"seq": seq}, 1, map[string]any{"note": "first"})
		if err := txn.Sign(tx, owner); err != nil {
			t.Fatal(err)
		}
		tx.SharedDoc() // what schema.ValidateTx leaves behind
		return tx
	}
	cases := map[string]func(tx *txn.Transaction) *txn.Transaction{
		"Sign": func(tx *txn.Transaction) *txn.Transaction {
			tx.Metadata["note"] = "second"
			if err := txn.Sign(tx, owner); err != nil {
				t.Fatal(err)
			}
			return tx
		},
		"Clone": func(tx *txn.Transaction) *txn.Transaction {
			c := tx.Clone()
			c.Metadata["note"] = "second"
			return c
		},
		"SetID": func(tx *txn.Transaction) *txn.Transaction {
			c := tx.Clone()
			c.Metadata["note"] = "second"
			c.ID = ""
			c.SharedDoc() // built before the ID is stamped
			c.SetID()
			return c
		},
	}
	eachBackend(t, func(t *testing.T, open func() *State) {
		s := open()
		defer s.Close()
		seq := 0
		for name, mutate := range cases {
			seq++
			tx := mutate(build(seq))
			if err := commitOne(s, tx); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			stored, ok := s.store.Collection(ColTransactions).Borrow(tx.ID)
			if !ok || !reflect.DeepEqual(stored, tx.ToDoc()) {
				t.Errorf("%s: stored document is not the transaction's:\n got %v\nwant %v", name, stored, tx.ToDoc())
			}
			got, err := s.GetTx(tx.ID)
			if err != nil || got.ID != tx.ID || got.Metadata["note"] != "second" {
				t.Errorf("%s: read back %+v, %v", name, got, err)
			}
		}
	})
}
