package driver

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/server"
	"smartchaindb/internal/simclock"
	"smartchaindb/internal/txn"
)

// simClock adapts the deterministic scheduler to the driver Clock.
type simClock struct{ s *simclock.Scheduler }

func (c simClock) After(d time.Duration, fn func()) { c.s.After(d, fn) }

// harness wires a driver to a standalone server node through an
// in-process transport with controllable behaviour.
type harness struct {
	node      *server.Node
	sched     *simclock.Scheduler
	drv       *Driver
	submitted []*txn.Transaction
	dropNext  bool // swallow submissions to simulate a crashed receiver
}

func newHarness(t *testing.T, kp *keys.KeyPair) *harness {
	t.Helper()
	h := &harness{
		node:  server.NewNode(server.Config{ReservedSeed: 5}),
		sched: simclock.NewScheduler(1),
	}
	transport := TransportFunc(func(tx *txn.Transaction) error {
		h.submitted = append(h.submitted, tx)
		if h.dropNext {
			h.dropNext = false
			return nil // swallowed: no commit, no rejection
		}
		if err := h.node.Apply(tx); err != nil {
			return err // the receiver's verdict: the driver finishes the submission rejected
		}
		h.sched.After(time.Millisecond, func() { h.drv.NotifyCommitted(tx.ID) })
		return nil
	})
	drv, err := New(Config{
		Keypair:      kp,
		EscrowPub:    h.node.Escrow().PublicBase58(),
		EscrowSigner: h.node.Escrow(),
		Transport:    transport,
		Clock:        simClock{h.sched},
		Timeout:      50 * time.Millisecond,
		MaxRetries:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.drv = drv
	return h
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing keypair should fail")
	}
	if _, err := New(Config{Keypair: keys.MustGenerate()}); err == nil {
		t.Error("missing transport should fail")
	}
}

func TestPrepareAndSubmitCreate(t *testing.T) {
	kp := keys.MustGenerate()
	h := newHarness(t, kp)
	tx, err := h.drv.PrepareCreate(map[string]any{"capabilities": []any{"cnc"}}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var result *Result
	if err := h.drv.Submit(tx, Async, func(r Result) { result = &r }); err != nil {
		t.Fatal(err)
	}
	h.sched.Run()
	if result == nil || result.Status != StatusCommitted {
		t.Fatalf("result = %+v", result)
	}
	if !h.node.State().IsCommitted(tx.ID) {
		t.Error("transaction not on chain")
	}
	if len(h.drv.pending) != 0 {
		t.Error("pending should be empty")
	}
}

func TestRejectionCallback(t *testing.T) {
	kp := keys.MustGenerate()
	h := newHarness(t, kp)
	// REQUEST without capabilities fails the schema check client-side.
	if _, err := h.drv.PrepareRequest(map[string]any{"item": "x"}, nil); err == nil {
		t.Fatal("schema check should catch capability-less REQUEST at the driver")
	}
	// A semantically invalid transaction passes schemas but is rejected
	// by the server: a transfer of a nonexistent output.
	ghost := txn.NewTransfer(
		"0000000000000000000000000000000000000000000000000000000000000000",
		[]txn.Spend{{Ref: txn.OutputRef{TxID: "0000000000000000000000000000000000000000000000000000000000000000", Index: 0}, Owners: []string{kp.PublicBase58()}}},
		[]*txn.Output{{PublicKeys: []string{kp.PublicBase58()}, Amount: 1}}, nil)
	if err := txn.Sign(ghost, kp); err != nil {
		t.Fatal(err)
	}
	if err := h.drv.schemas.ValidateTx(ghost); err != nil {
		t.Fatalf("the ghost transfer should pass its schema: %v", err)
	}
	var result *Result
	if err := h.drv.Submit(ghost, Async, func(r Result) { result = &r }); err == nil {
		t.Fatal("Submit should return the receiver's rejection")
	}
	if result == nil || result.Status != StatusRejected || result.Err == nil {
		t.Fatalf("result = %+v", result)
	}
}

func TestSyncRetryAfterTimeout(t *testing.T) {
	kp := keys.MustGenerate()
	h := newHarness(t, kp)
	tx, err := h.drv.PrepareCreate(map[string]any{"capabilities": []any{"x"}}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.dropNext = true // first submission vanishes (receiver crash)
	var result *Result
	if err := h.drv.Submit(tx, Sync, func(r Result) { result = &r }); err != nil {
		t.Fatal(err)
	}
	h.sched.Run()
	if result == nil || result.Status != StatusCommitted {
		t.Fatalf("result = %+v", result)
	}
	if len(h.submitted) != 2 {
		t.Errorf("submissions = %d, want 2 (original + retry)", len(h.submitted))
	}
}

func TestSyncTimesOutAfterMaxRetries(t *testing.T) {
	kp := keys.MustGenerate()
	h := newHarness(t, kp)
	// Swallow every submission.
	blackhole := TransportFunc(func(tx *txn.Transaction) error { return nil })
	drv, err := New(Config{
		Keypair: kp, Transport: blackhole, Clock: simClock{h.sched},
		Timeout: 10 * time.Millisecond, MaxRetries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := drv.PrepareCreate(nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var result *Result
	if err := drv.Submit(tx, Sync, func(r Result) { result = &r }); err != nil {
		t.Fatal(err)
	}
	h.sched.Run()
	if result == nil || result.Status != StatusTimedOut {
		t.Fatalf("result = %+v", result)
	}
}

func TestTransportErrorSurfacesImmediately(t *testing.T) {
	kp := keys.MustGenerate()
	failing := TransportFunc(func(tx *txn.Transaction) error { return fmt.Errorf("network down") })
	drv, err := New(Config{Keypair: kp, Transport: failing})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := drv.PrepareCreate(nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var result *Result
	if err := drv.Submit(tx, Async, func(r Result) { result = &r }); err == nil {
		t.Fatal("transport error should propagate")
	}
	if result == nil || result.Status != StatusRejected {
		t.Fatalf("result = %+v", result)
	}
}

func TestDuplicateSubmitRejected(t *testing.T) {
	kp := keys.MustGenerate()
	h := newHarness(t, kp)
	tx, err := h.drv.PrepareCreate(nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.drv.Submit(tx, Sync, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.drv.Submit(tx, Sync, nil); err == nil {
		t.Error("duplicate in-flight submission should fail")
	}
}

func TestFullAuctionThroughDrivers(t *testing.T) {
	requesterKP := keys.MustGenerate()
	bidderKP := keys.MustGenerate()
	h := newHarness(t, requesterKP)

	bidderDrv, err := New(Config{
		Keypair:   bidderKP,
		EscrowPub: h.node.Escrow().PublicBase58(),
		Transport: TransportFunc(func(tx *txn.Transaction) error {
			if err := h.node.Apply(tx); err != nil {
				return err
			}
			return nil
		}),
		Clock: simClock{h.sched},
	})
	if err != nil {
		t.Fatal(err)
	}

	rfq, err := h.drv.PrepareRequest(map[string]any{"capabilities": []any{"cnc"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.drv.Submit(rfq, Async, nil); err != nil {
		t.Fatal(err)
	}
	h.sched.Run()

	asset, err := bidderDrv.PrepareCreate(map[string]any{"capabilities": []any{"cnc"}}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bidderDrv.Submit(asset, Async, nil); err != nil {
		t.Fatal(err)
	}
	bid, err := bidderDrv.PrepareBid(asset.ID,
		txn.Spend{Ref: txn.OutputRef{TxID: asset.ID, Index: 0}, Owners: []string{bidderKP.PublicBase58()}},
		1, rfq.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bidderDrv.Submit(bid, Async, nil); err != nil {
		t.Fatal(err)
	}
	h.sched.Run()

	accept, err := h.drv.PrepareAcceptBid(rfq.ID, bid, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.drv.Submit(accept, Sync, nil); err != nil {
		t.Fatal(err)
	}
	h.sched.Run()

	if h.node.State().Balance(requesterKP.PublicBase58(), asset.ID) != 1 {
		t.Error("requester should hold the won asset")
	}
}

func TestPrepareBidRequiresEscrow(t *testing.T) {
	kp := keys.MustGenerate()
	drv, err := New(Config{Keypair: kp, Transport: TransportFunc(func(*txn.Transaction) error { return nil })})
	if err != nil {
		t.Fatal(err)
	}
	_, err = drv.PrepareBid("aa", txn.Spend{}, 1, "bb", nil)
	if err == nil {
		t.Error("PrepareBid without escrow config should fail")
	}
	_, err = drv.PrepareAcceptBid("aa", nil, nil, nil)
	if err == nil {
		t.Error("PrepareAcceptBid without escrow signer should fail")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusCommitted: "COMMITTED",
		StatusRejected:  "REJECTED",
		StatusTimedOut:  "TIMED_OUT",
		Status(9):       "Status(9)",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
	if !errors.Is(errTest, errTest) {
		t.Skip("sanity")
	}
}

var errTest = errors.New("x")
