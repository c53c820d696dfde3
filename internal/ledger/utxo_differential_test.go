package ledger_test

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/ledger"
	"smartchaindb/internal/query"
	"smartchaindb/internal/storage"
	"smartchaindb/internal/txn"
	"smartchaindb/internal/workload"
)

// The UTXO set's readers against the copy-on-spend reference
// (copyonspend_test.go): one seeded stream committed over the marker
// layout — seven-key records sharing the log's values, one shared
// marker per spend — and over the nine-key records a spend used to copy
// must leave every reader answering alike, at the writer view and at
// every retained height, on both backends and across a disk reopen.
// The readers are the same code on both sides, so this is also what
// says a directory written in the old layout still reads correctly.
// Fingerprints differ by design and are not compared.

// diffStream is the stream both layouts commit.
type diffStream struct {
	escrow *keys.KeyPair
	group  *workload.AuctionGroup
	blocks [][]*txn.Transaction
	// hop spends main's outputs and homes on peer: main is its
	// participant in a cross-shard commit.
	hop      *txn.Transaction
	fanIns   []*txn.Transaction // the honest 4-input TRANSFERs
	accounts []string
	txs      []*txn.Transaction // everything the stream built, rivals included
}

func newDiffStream(t *testing.T, seed int64) *diffStream {
	rng := rand.New(rand.NewSource(seed))
	escrow := keys.DeterministicKeyPair(700)
	gen := workload.NewGenerator(seed, escrow)
	grp := gen.NewAuctionGroup(0, workload.AuctionGroupSpec{BiddersPerAuction: 3, PayloadBytes: 32})
	w := &diffStream{escrow: escrow, group: grp}
	owner, thief := keys.DeterministicKeyPair(701), keys.DeterministicKeyPair(702)
	recipient := keys.DeterministicKeyPair(703).PublicBase58()
	w.accounts = []string{owner.PublicBase58(), thief.PublicBase58(), recipient, escrow.PublicBase58(), grp.Requester.PublicBase58()}
	for _, b := range grp.Bidders {
		w.accounts = append(w.accounts, b.PublicBase58())
	}

	// A rival spends one of a funding CREATE's outputs to the thief:
	// whichever of it and the honest TRANSFER commits first, the other
	// is a double spend.
	rival := func(create *txn.Transaction) *txn.Transaction {
		j := rng.Intn(len(create.Outputs))
		r := txn.NewTransfer(create.ID, []txn.Spend{{Ref: txn.OutputRef{TxID: create.ID, Index: j}, Owners: []string{owner.PublicBase58()}}},
			[]*txn.Output{{PublicKeys: []string{thief.PublicBase58()}, Amount: 1}}, nil)
		if err := txn.Sign(r, owner); err != nil {
			t.Fatal(err)
		}
		return r
	}
	funding := append([]*txn.Transaction{grp.Request}, grp.Creates...)
	var spends, late []*txn.Transaction
	for i := 0; i < 8; i++ {
		create, transfer := workload.FanIn(owner, recipient, int(seed)*100+i, 4)
		funding = append(funding, create)
		w.fanIns = append(w.fanIns, transfer)
		switch rng.Intn(3) {
		case 0: // the rival races the transfer inside its block
			spends = append(spends, rival(create), transfer)
		case 1:
			spends = append(spends, transfer, rival(create))
		default: // the rival arrives at the end of the block, or in the next
			spends = append(spends, transfer)
			late = append(late, rival(create))
		}
	}
	hopFund, hop := workload.FanIn(owner, recipient, int(seed)*100+99, 2)
	funding = append(funding, hopFund)
	w.hop = hop
	w.blocks = [][]*txn.Transaction{
		funding,
		append(append(spends, grp.Bids...), late[:len(late)/2]...),
		append([]*txn.Transaction{grp.Accept}, late[len(late)/2:]...),
	}
	for _, b := range w.blocks {
		w.txs = append(w.txs, b...)
	}
	w.txs = append(w.txs, hop)
	return w
}

// side is one layout's pair of states: main commits the stream and is
// the hop's participant, peer is the hop's home shard.
type side struct {
	copyOnSpend bool
	main, peer  *ledger.State
	shares      []*ledger.Prepared // the hop's applied shares, main's first
	children    []*txn.Transaction
	skipped     int
}

func (sd *side) commitBlock(s *ledger.State, batch []*txn.Transaction) (committed []string, skipped []string, err error) {
	var c []*txn.Transaction
	var sk map[string]error
	if sd.copyOnSpend {
		c, sk, err = ledger.CommitBlockCopyOnSpend(s, batch)
	} else {
		p := s.BeginBlockCommit(s.Height() + 1)
		p.Stage(batch)
		c, sk, err = p.Seal()
	}
	for _, t := range c {
		committed = append(committed, t.ID)
	}
	for id := range sk {
		skipped = append(skipped, id)
	}
	sort.Strings(skipped)
	return committed, skipped, err
}

func (sd *side) stageOwned(s *ledger.State, t *txn.Transaction, home bool, owns func(i int) bool) (*ledger.Prepared, error) {
	if sd.copyOnSpend {
		return ledger.StageOwnedCopyOnSpend(s, t, home, owns)
	}
	return s.StageOwned(t, home, owns)
}

func (sd *side) applyPrepared(s *ledger.State, p *ledger.Prepared, decision map[string]any) (int64, error) {
	if sd.copyOnSpend {
		return ledger.ApplyPreparedCopyOnSpend(s, p, decision)
	}
	return s.ApplyPrepared(p, decision)
}

// drive commits the stream, then the accept's children, then the
// cross-shard hop, and returns what happened, in a form the two sides
// must agree on.
func (sd *side) drive(t *testing.T, w *diffStream) []string {
	var log []string
	for i, block := range w.blocks {
		c, sk, err := sd.commitBlock(sd.main, block)
		if err != nil {
			t.Fatal(err)
		}
		sd.skipped += len(sk)
		log = append(log, fmt.Sprintf("block %d: committed %v skipped %v", i+1, c, sk))
	}
	accept, escrowPub := w.group.Accept, w.escrow.PublicBase58()
	rec, err := sd.main.RecoveryFor(accept.ID)
	if err != nil || len(rec.Pending) != len(w.group.Bids) {
		t.Fatalf("children of the accept: %+v, %v", rec, err)
	}
	for _, spec := range rec.Pending {
		child := ledger.BuildChild(spec, escrowPub)
		if err := txn.Sign(child, w.escrow); err != nil {
			t.Fatal(err)
		}
		sd.children = append(sd.children, child)
		c, sk, err := sd.commitBlock(sd.main, []*txn.Transaction{child})
		if err != nil || len(c) != 1 {
			t.Fatalf("child of output %d: %v %v", spec.OutputIndex, sk, err)
		}
		log = append(log, fmt.Sprintf("child %s of output %d committed", c[0], spec.OutputIndex))
	}

	// The hop: main owns every input and is a participant; peer owns
	// none and is home. Home applies first — the commit point — then
	// the participant.
	all := func(int) bool { return true }
	none := func(int) bool { return false }
	part, err := sd.stageOwned(sd.main, w.hop, false, all)
	if err != nil {
		t.Fatal(err)
	}
	home, err := sd.stageOwned(sd.peer, w.hop, true, none)
	if err != nil {
		t.Fatal(err)
	}
	sd.shares = []*ledger.Prepared{part, home}
	log = append(log, fmt.Sprintf("hop applied before apply: participant %v, home %v", sd.main.Applied(part), sd.peer.Applied(home)))
	decision := map[string]any{"kind": "decision", "tx": w.hop.ID, "outcome": "commit"}
	for _, p := range []struct {
		s     *ledger.State
		share *ledger.Prepared
	}{{sd.peer, home}, {sd.main, part}} {
		if err := p.s.LogPrepare(p.share); err != nil {
			t.Fatal(err)
		}
		h, err := sd.applyPrepared(p.s, p.share, decision)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, fmt.Sprintf("hop share sealed at %d", h))
	}

	// A spend of an output nobody minted fails its seal and leaves
	// nothing behind.
	err = ledger.SealSpendOf(sd.main, missingRef.String(), w.hop.ID, sd.copyOnSpend)
	log = append(log, fmt.Sprintf("spend of a missing output refused: %v", err != nil))
	return log
}

var missingRef = txn.OutputRef{TxID: fmt.Sprintf("%064x", 0xdead), Index: 0}

func sortedRefs(refs []txn.OutputRef) string {
	out := make([]string, len(refs))
	for i, r := range refs {
		out[i] = r.String()
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

func sortedIDs(txs []*txn.Transaction) string {
	out := make([]string, len(txs))
	for i, t := range txs {
		out[i] = t.ID
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

// answers asks every UTXO reader of one state, through r (the newest
// view or a view at a height) and, when e is not nil, the query engine
// over the newest view, about every output, account and asset the
// stream touched.
func answers(w *diffStream, children []*txn.Transaction, r *ledger.StateView, e *query.Engine) []string {
	txs := append(slices.Clone(w.txs), children...)
	refs := []txn.OutputRef{missingRef}
	assets := map[string]bool{}
	for _, t := range txs {
		for i := range len(t.Outputs) + 1 { // one index past the end
			refs = append(refs, txn.OutputRef{TxID: t.ID, Index: i})
		}
		assets[t.AssetID()] = true
	}
	assetIDs := slices.Sorted(maps.Keys(assets))
	var out []string
	add := func(q string, a ...any) { out = append(out, q+" → "+fmt.Sprint(a...)) }
	for _, ref := range refs {
		f, ok := r.Output(ref)
		unspent := ok && f.SpentBy == ""
		add("output "+ref.String(), ok, unspent, " spender ", f.SpentBy, " asset ", f.AssetID)
		if unspent {
			add("holding "+ref.String(), fmt.Sprint(f.Owners), " amount ", f.Amount)
		}
	}
	for _, pub := range w.accounts {
		add("unspent of "+pub, sortedRefs(r.UnspentOutputs(pub)))
		for _, a := range assetIDs {
			add("balance "+pub+" "+a, r.Balance(pub, a))
		}
	}
	rfq := w.group.Request.ID
	add("locked bids", slices.Sorted(slices.Values(r.LockedBidsForRFQ(rfq))))
	if e == nil {
		return out
	}
	add("bids for request", sortedIDs(e.BidsForRequest(rfq)))
	for _, a := range assetIDs {
		holders := e.HolderOf(a)
		for _, k := range slices.Sorted(maps.Keys(holders)) {
			add("holder of "+a, k, "=", holders[k])
		}
		add("provenance of "+a, fmt.Sprintf("%+v", e.AssetProvenance(a)))
	}
	for _, band := range [][2]uint64{{0, 0}, {1, 1}, {2, 4}, {0, txn.MaxAmount}} {
		add(fmt.Sprint("holdings in band ", band), sortedRefs(e.HoldingsInBand(band[0], band[1])))
	}
	return out
}

// everything asks answers of a side's two states at the writer view
// and at every retained height, and Applied of the hop's shares.
func (sd *side) everything(t *testing.T, w *diffStream) map[string][]string {
	out := map[string][]string{}
	for name, s := range map[string]*ledger.State{"main": sd.main, "peer": sd.peer} {
		out[name+"@writer"] = answers(w, sd.children, s.View(), query.New(s))
		bk := s.Store().Backend()
		for h := bk.Floor(); h <= bk.Visible(); h++ {
			v, err := s.StateAt(h)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s@%d", name, h)] = answers(w, sd.children, v, nil)
		}
	}
	out["applied"] = []string{fmt.Sprint(sd.main.Applied(sd.shares[0]), sd.peer.Applied(sd.shares[1]))}
	return out
}

// sameAnswers fails on the first question the two sides answer
// differently.
func sameAnswers(t *testing.T, when string, ref, got map[string][]string) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: reference reads %d heights, marker layout %d", when, len(ref), len(got))
	}
	for where, want := range ref {
		have := got[where]
		if len(have) != len(want) {
			t.Fatalf("%s, %s: %d answers, want %d", when, where, len(have), len(want))
		}
		for i := range want {
			if have[i] != want[i] {
				t.Fatalf("%s, %s:\n copy-on-spend %s\n marker        %s", when, where, want[i], have[i])
			}
		}
	}
}

func TestUTXOReadersMatchCopyOnSpendReference(t *testing.T) {
	const seed = 27
	for _, backend := range []string{"memory", "disk"} {
		t.Run(backend, func(t *testing.T) {
			open := func(dir string) *ledger.State {
				var b storage.Backend = storage.NewMemory()
				if backend == "disk" {
					eng, err := storage.Open(dir, storage.Options{NoSync: true})
					if err != nil {
						t.Fatal(err)
					}
					b = eng
				}
				s := ledger.NewStateWith(b)
				s.SetRetain(64) // every height the stream seals stays readable
				return s
			}
			w := newDiffStream(t, seed)
			dirs := [2][2]string{{t.TempDir(), t.TempDir()}, {t.TempDir(), t.TempDir()}}
			sides := [2]*side{{copyOnSpend: true}, {}}
			var logs [2][]string
			for i, sd := range sides {
				sd.main, sd.peer = open(dirs[i][0]), open(dirs[i][1])
				if !sd.copyOnSpend {
					sd.main.SetCommitWorkers(4)
				}
				logs[i] = sd.drive(t, w)
			}
			sameAnswers(t, "committing", map[string][]string{"commits": logs[0]}, map[string][]string{"commits": logs[1]})
			ref, mark := sides[0], sides[1]
			if mark.skipped != len(w.fanIns) {
				t.Fatalf("the stream skipped %d double spends, want one per race (%d)", mark.skipped, len(w.fanIns))
			}
			sameAnswers(t, "after the stream", ref.everything(t, w), mark.everything(t, w))
			assertMarkerShared(t, mark.main, w)
			if backend == "memory" {
				return
			}
			for i, sd := range sides {
				for _, s := range []*ledger.State{sd.main, sd.peer} {
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
				}
				sd.main, sd.peer = open(dirs[i][0]), open(dirs[i][1])
			}
			defer func() {
				for _, sd := range sides {
					sd.main.Close()
					sd.peer.Close()
				}
			}()
			if ref.main.Height() != mark.main.Height() || ref.main.Height() < int64(len(w.blocks)) {
				t.Fatalf("reopened at heights %d (reference) and %d", ref.main.Height(), mark.main.Height())
			}
			sameAnswers(t, "after a reopen", ref.everything(t, w), mark.everything(t, w))
		})
	}
}

// assertMarkerShared checks that the stream reached the layouts the
// differential is about: each honest fan-in that committed left one
// marker under its four spent keys, and the accept, whose inputs hold
// different assets, one marker per input.
func assertMarkerShared(t *testing.T, s *ledger.State, w *diffStream) {
	t.Helper()
	utxos := s.Store().Collection(ledger.ColUTXOs)
	marker := func(ref txn.OutputRef) uintptr {
		doc, ok := utxos.Borrow(ref.String())
		if !ok || len(doc) != 3 || doc["spent"] != true {
			t.Fatalf("spent output %s holds %v, want a three-key marker", ref, doc)
		}
		return reflect.ValueOf(doc).Pointer()
	}
	shared := 0
	for _, tr := range w.fanIns {
		if f, _ := s.Output(tr.SpentRefs()[0]); f.SpentBy != tr.ID {
			continue // its rival won
		}
		first := marker(tr.SpentRefs()[0])
		for _, ref := range tr.SpentRefs()[1:] {
			if marker(ref) != first {
				t.Fatalf("%s's spends hold different markers", tr.ID[:8])
			}
		}
		shared++
	}
	if shared == 0 {
		t.Fatal("no honest fan-in committed")
	}
	seen := map[uintptr]bool{}
	for _, ref := range w.group.Accept.SpentRefs() {
		seen[marker(ref)] = true
	}
	if len(seen) != len(w.group.Accept.SpentRefs()) {
		t.Fatalf("the accept's %d inputs, each of its own asset, share %d markers", len(w.group.Accept.SpentRefs()), len(seen))
	}
}
