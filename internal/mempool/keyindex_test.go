package mempool

import (
	"math/rand"
	"slices"
	"testing"

	"smartchaindb/internal/txn"
)

// refHolders is the staleness index as the pool kept it before it held
// holders in place: a set of holders per footprint key, made on a
// key's first holder and dropped with its last. It keeps its own live
// set and stale flags, so a run of it says which pooled transactions
// a sequence of admissions, commits and evictions must leave fresh.
//
// An admission's own verdict — stale when its batch leaned on itself
// or a sweep raced it — is the screen's, not the index's, so add takes
// it from the pool.
type refHolders struct {
	fps     map[string]txn.Footprint // live hash -> footprint
	stale   map[string]bool
	holders map[string]map[string]struct{} // key -> live hashes whose footprint names it
	swept   int                            // fresh holders a commit staled
}

func newRefHolders() *refHolders {
	return &refHolders{fps: map[string]txn.Footprint{}, stale: map[string]bool{}, holders: map[string]map[string]struct{}{}}
}

func (r *refHolders) add(h string, fp txn.Footprint, stale bool) {
	r.fps[h], r.stale[h] = fp, stale
	for _, keys := range [][]string{fp.Writes, fp.Reads} {
		for _, key := range keys {
			if r.holders[key] == nil {
				r.holders[key] = map[string]struct{}{}
			}
			r.holders[key][h] = struct{}{}
		}
	}
}

func (r *refHolders) drop(h string) {
	fp, live := r.fps[h]
	if !live {
		return
	}
	for _, keys := range [][]string{fp.Writes, fp.Reads} {
		for _, key := range keys {
			delete(r.holders[key], h)
			if len(r.holders[key]) == 0 {
				delete(r.holders, key)
			}
		}
	}
	delete(r.fps, h)
	delete(r.stale, h)
}

// commit is RemoveCommitted's sweep for one transaction: a rival
// claiming a spend key of a transaction the pool never held goes, every
// holder of a key the transaction writes goes stale, and the
// transaction itself leaves.
func (r *refHolders) commit(tx Tx) {
	h := tx.Hash()
	fp, live := r.fps[h]
	if !live {
		fp = ForTransaction(tx)
		for _, key := range fp.Spends {
			for o, ofp := range r.fps {
				if o != h && slices.Contains(ofp.Spends, key) {
					r.drop(o)
				}
			}
		}
	}
	for _, key := range fp.Writes {
		for holder := range r.holders[key] {
			if !r.stale[holder] && holder != h {
				r.swept++
			}
			r.stale[holder] = true
		}
	}
	r.drop(h)
}

// holdersOf lists the pool's holders of key as hashes, repeats kept.
func (p *Pool) holdersOf(key string) []string {
	first, ok := p.keyIndex[key]
	if !ok {
		return nil
	}
	out := []string{first.tx.Hash()}
	for _, e := range p.keyMore[key] {
		out = append(out, e.tx.Hash())
	}
	return out
}

// TestHolderIndexMatchesReference drives one pool and the map-of-sets
// reference through random admissions, commit sweeps, evictions and
// reservations of marketplace auctions and transfer chains — fan-ins
// among them whose four inputs read one transaction id four times —
// and holds the pool to the reference after every step: the same
// transactions pooled, the same Fresh flags, and under every key the
// same holders, each once. Drained, the pool keeps no key, claim or
// hash.
func TestHolderIndexMatchesReference(t *testing.T) {
	var corpus []Tx
	for _, tx := range marketBatch(64) {
		corpus = append(corpus, tx)
	}
	repeats := false
	for _, tx := range transferChains(t, 24) {
		reads := tx.Footprint().Reads
		for i, key := range reads {
			repeats = repeats || slices.Contains(reads[i+1:], key)
		}
		corpus = append(corpus, tx)
	}
	if !repeats {
		t.Fatal("no transaction in the corpus reads a key twice: the repeated-key case is not exercised")
	}
	swept := 0
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		p, ref := New(Config{}), newRefHolders()
		pick := func() []Tx {
			var out []Tx
			for _, tx := range corpus {
				if r.Intn(4) == 0 {
					out = append(out, tx)
				}
			}
			r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			return out
		}
		for step := 0; step < 60; step++ {
			var op string
			switch sel := pick(); r.Intn(5) {
			case 0, 1:
				op = "admit"
				for _, tx := range p.AdmitBatch(sel).Admitted {
					ref.add(tx.Hash(), ForTransaction(tx), !p.Fresh([]Tx{tx})[0])
				}
			case 2:
				op = "commit"
				p.RemoveCommitted(sel)
				for _, tx := range sel {
					ref.commit(tx)
				}
			case 3:
				op = "remove"
				p.Remove(sel)
				for _, tx := range sel {
					ref.drop(tx.Hash())
				}
			default:
				op = "reserve"
				p.Reserve(sel)
			}
			fresh := p.Fresh(corpus)
			for i, tx := range corpus {
				h := tx.Hash()
				_, live := ref.fps[h]
				if p.Contains(h) != live {
					t.Fatalf("seed %d step %d (%s): pool holds %.12s %v, reference %v", seed, step, op, h, p.Contains(h), live)
				}
				if want := live && !ref.stale[h]; fresh[i] != want {
					t.Fatalf("seed %d step %d (%s): Fresh(%.12s) = %v, reference %v", seed, step, op, h, fresh[i], want)
				}
			}
			if len(p.keyIndex) != len(ref.holders) {
				t.Fatalf("seed %d step %d (%s): %d keys indexed, reference %d", seed, step, op, len(p.keyIndex), len(ref.holders))
			}
			for key, set := range ref.holders {
				got := p.holdersOf(key)
				want := make([]string, 0, len(set))
				for h := range set {
					want = append(want, h)
				}
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d (%s): key %.20s held by %.12q, reference %.12q", seed, step, op, key, got, want)
				}
			}
		}
		swept += ref.swept
		if seed%2 == 0 {
			p.RemoveCommitted(corpus)
		} else {
			p.Remove(corpus)
		}
		if len(p.keyIndex) != 0 || len(p.keyMore) != 0 || len(p.claims) != 0 || len(p.byHash) != 0 {
			t.Fatalf("seed %d: a drained pool keeps %d keys, %d overflow lists, %d claims and %d hashes",
				seed, len(p.keyIndex), len(p.keyMore), len(p.claims), len(p.byHash))
		}
	}
	if swept == 0 {
		t.Fatal("no commit staled a fresh pooled transaction: the sweep is not exercised")
	}
	t.Logf("%d fresh pooled transactions staled by commits", swept)
}
