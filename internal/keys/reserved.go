package keys

import "sync"

// Reserved is the registry of reserved system accounts, PBPK-Res in the
// paper's formal model. BID outputs must be owned by a reserved escrow
// account, and ACCEPT_BID inputs must spend outputs held by one.
type Reserved struct {
	mu    sync.RWMutex
	pairs map[string]*KeyPair // role name -> pair
	pubs  map[string]struct{} // the pairs' base58 public keys
}

// Well-known reserved roles used by the marketplace transaction types.
const (
	RoleEscrow = "ESCROW"
	RoleAdmin  = "ADMIN"
)

// NewReserved creates an empty reserved-account registry.
func NewReserved() *Reserved {
	return &Reserved{pairs: make(map[string]*KeyPair), pubs: make(map[string]struct{})}
}

// NewReservedWithDefaults creates a registry seeded with deterministic
// ESCROW and ADMIN accounts derived from seed. Every node in a cluster
// must use the same seed so they agree on the escrow address.
func NewReservedWithDefaults(seed int64) *Reserved {
	r := NewReserved()
	r.Register(RoleEscrow, DeterministicKeyPair(seed))
	r.Register(RoleAdmin, DeterministicKeyPair(seed+1))
	return r
}

// Register associates a role name with a key pair. Re-registering a role
// replaces the previous pair.
func (r *Reserved) Register(role string, kp *KeyPair) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.pairs[role]; ok {
		delete(r.pubs, old.PublicBase58())
	}
	r.pairs[role] = kp
	r.pubs[kp.PublicBase58()] = struct{}{}
}

// Lookup returns the key pair for a role.
func (r *Reserved) Lookup(role string) (*KeyPair, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	kp, ok := r.pairs[role]
	return kp, ok
}

// Escrow returns the escrow pair, which must have been registered.
func (r *Reserved) Escrow() *KeyPair {
	kp, ok := r.Lookup(RoleEscrow)
	if !ok {
		// invariant: nodes build their registry with NewReservedWithDefaults, which registers ESCROW; an empty one asked for it is a wiring bug.
		panic("keys: no ESCROW account registered")
	}
	return kp
}

// IsReserved reports whether the base58 public key belongs to any
// reserved account (membership in PBPK-Res).
func (r *Reserved) IsReserved(pub string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.pubs[pub]
	return ok
}
