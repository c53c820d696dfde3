// Package driver is the SmartchainDB client driver of Figure 4: it
// prepares transactions from per-type templates, validates them against
// the JSON schemas before submission ("Prepare and Sign"), submits them
// to a server, and invokes registered callbacks when the network
// reports a commit or a validation error. Sync-mode submissions are
// retried after a timeout — the driver-side crash handling of §4.2.1
// ("the driver will re-trigger ACCEPT_BID after the timeout interval").
package driver

import (
	"fmt"
	"sync"
	"time"

	"smartchaindb/internal/keys"
	"smartchaindb/internal/schema"
	"smartchaindb/internal/txn"
)

// Transport carries a signed transaction to a server node.
type Transport interface {
	Submit(t *txn.Transaction) error
}

// TransportFunc adapts a function to the Transport interface.
type TransportFunc func(t *txn.Transaction) error

// Submit implements Transport.
func (f TransportFunc) Submit(t *txn.Transaction) error { return f(t) }

// Clock schedules deferred work; satisfied by the simulation scheduler
// or by a wall-clock adapter.
type Clock interface {
	After(d time.Duration, fn func())
}

// WallClock is the production Clock backed by time.AfterFunc.
type WallClock struct{}

// After implements Clock.
func (WallClock) After(d time.Duration, fn func()) { time.AfterFunc(d, fn) }

// Status reports the outcome of a submission.
type Status int

// Submission outcomes.
const (
	StatusCommitted Status = iota
	StatusRejected
	StatusTimedOut
)

func (s Status) String() string {
	switch s {
	case StatusCommitted:
		return "COMMITTED"
	case StatusRejected:
		return "REJECTED"
	case StatusTimedOut:
		return "TIMED_OUT"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Result is delivered to a submission callback.
type Result struct {
	TxID   string
	Status Status
	Err    error // set when Status is StatusRejected
}

// Callback receives the terminal result of a submission.
type Callback func(Result)

// Mode selects submission semantics.
type Mode int

// Submission modes: Async returns immediately after handing the
// transaction to the transport; Sync arms the retry timer and reports
// StatusTimedOut after MaxRetries expiries.
const (
	Async Mode = iota
	Sync
)

// Config parameterizes a driver.
type Config struct {
	// Keypair identifies (and signs for) this client.
	Keypair *keys.KeyPair
	// EscrowPub is the marketplace escrow address BID outputs target.
	EscrowPub string
	// EscrowSigner co-signs ACCEPT_BID inputs. The escrow key is a
	// system account; deployments distribute its signing capability
	// with the driver SDK so acceptance flows need no extra round trip.
	EscrowSigner *keys.KeyPair
	// Transport delivers transactions to the network.
	Transport Transport
	// Clock schedules retries (defaults to the wall clock).
	Clock Clock
	// Timeout is the sync-mode retry interval (default 5s).
	Timeout time.Duration
	// MaxRetries bounds sync-mode resubmissions (default 3).
	MaxRetries int
}

// Driver prepares, signs, validates, submits, and tracks transactions.
type Driver struct {
	cfg     Config
	schemas *schema.Registry

	mu      sync.Mutex
	pending map[string]*pendingTx
}

type pendingTx struct {
	tx       *txn.Transaction
	callback Callback
	retries  int
	done     bool
}

// New builds a driver. Keypair and Transport are required.
func New(cfg Config) (*Driver, error) {
	if cfg.Keypair == nil {
		return nil, fmt.Errorf("driver: Keypair is required")
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("driver: Transport is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = WallClock{}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 3
	}
	return &Driver{
		cfg:     cfg,
		schemas: schema.MustNewRegistry(),
		pending: make(map[string]*pendingTx),
	}, nil
}

// Address returns the client's base58 public key.
func (d *Driver) Address() string { return d.cfg.Keypair.PublicBase58() }

// PrepareCreate builds and signs a CREATE transaction.
func (d *Driver) PrepareCreate(data map[string]any, shares uint64, meta map[string]any) (*txn.Transaction, error) {
	t := txn.NewCreate(d.Address(), data, shares, meta)
	return d.signAndCheck(t, d.cfg.Keypair)
}

// PrepareRequest builds and signs a REQUEST transaction.
func (d *Driver) PrepareRequest(requirements map[string]any, meta map[string]any) (*txn.Transaction, error) {
	t := txn.NewRequest(d.Address(), requirements, meta)
	return d.signAndCheck(t, d.cfg.Keypair)
}

// PrepareBid builds and signs a BID answering rfqID, moving amount
// shares of the backing asset into escrow.
func (d *Driver) PrepareBid(assetID string, spend txn.Spend, amount uint64, rfqID string, meta map[string]any) (*txn.Transaction, error) {
	if d.cfg.EscrowPub == "" {
		return nil, fmt.Errorf("driver: EscrowPub not configured")
	}
	t := txn.NewBid(d.Address(), assetID, spend, amount, d.cfg.EscrowPub, rfqID, meta)
	return d.signAndCheck(t, d.cfg.Keypair)
}

// PrepareAcceptBid builds and signs the nested ACCEPT_BID parent for a
// REQUEST this client owns.
func (d *Driver) PrepareAcceptBid(rfqID string, winBid *txn.Transaction, losingBids []*txn.Transaction, meta map[string]any) (*txn.Transaction, error) {
	if d.cfg.EscrowSigner == nil {
		return nil, fmt.Errorf("driver: EscrowSigner not configured")
	}
	t, err := txn.NewAcceptBid(d.Address(), d.cfg.EscrowSigner.PublicBase58(), rfqID, winBid, losingBids, meta)
	if err != nil {
		return nil, err
	}
	return d.signAndCheck(t, d.cfg.EscrowSigner, d.cfg.Keypair)
}

// signAndCheck signs the transaction and validates it against its JSON
// schema before it ever leaves the client.
func (d *Driver) signAndCheck(t *txn.Transaction, signers ...*keys.KeyPair) (*txn.Transaction, error) {
	if err := txn.Sign(t, signers...); err != nil {
		return nil, err
	}
	if err := d.schemas.ValidateTx(t); err != nil {
		return nil, fmt.Errorf("driver: pre-submission schema check: %w", err)
	}
	return t, nil
}

// Submit hands a prepared transaction to the transport. The callback
// (optional) fires exactly once with the terminal status.
func (d *Driver) Submit(t *txn.Transaction, mode Mode, cb Callback) error {
	d.mu.Lock()
	if _, dup := d.pending[t.ID]; dup {
		d.mu.Unlock()
		return fmt.Errorf("driver: transaction %s already in flight", t.ID[:8])
	}
	p := &pendingTx{tx: t, callback: cb}
	d.pending[t.ID] = p
	d.mu.Unlock()

	if err := d.cfg.Transport.Submit(t); err != nil {
		d.finish(t.ID, Result{TxID: t.ID, Status: StatusRejected, Err: err})
		return err
	}
	if mode == Sync {
		d.armRetry(t.ID)
	}
	return nil
}

func (d *Driver) armRetry(id string) {
	d.cfg.Clock.After(d.cfg.Timeout, func() {
		d.mu.Lock()
		p, ok := d.pending[id]
		if !ok || p.done {
			d.mu.Unlock()
			return
		}
		p.retries++
		retries := p.retries
		tx := p.tx
		d.mu.Unlock()
		if retries > d.cfg.MaxRetries {
			d.finish(id, Result{TxID: id, Status: StatusTimedOut})
			return
		}
		// Re-trigger: resubmission is safe because transaction IDs are
		// deterministic and the network deduplicates.
		if err := d.cfg.Transport.Submit(tx); err != nil {
			d.finish(id, Result{TxID: id, Status: StatusRejected, Err: err})
			return
		}
		d.armRetry(id)
	})
}

// NotifyCommitted reports a commit from the network (wired to the
// cluster's OnCommit hook or a server callback).
func (d *Driver) NotifyCommitted(txID string) {
	d.finish(txID, Result{TxID: txID, Status: StatusCommitted})
}

func (d *Driver) finish(txID string, r Result) {
	d.mu.Lock()
	p, ok := d.pending[txID]
	if !ok || p.done {
		d.mu.Unlock()
		return
	}
	p.done = true
	delete(d.pending, txID)
	cb := p.callback
	d.mu.Unlock()
	if cb != nil {
		cb(r)
	}
}
