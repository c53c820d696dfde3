package storage

// The two-phase-commit log. Both backends store 2PC records as
// ordinary versioned documents in the reserved TwoPCCollection; the
// disk engine additionally frames them with the dedicated WAL ops
// (opPrepare, opDecide) so the log's durability points are
// distinguishable record types in the byte stream. Issued inside an
// open Group, a log write joins the group's single atomic WAL record —
// which is how a participant makes "apply the staged ops + record the
// decision + drop the prepare" one crash-atomic unit.

// LogPrepare durably records a participant PREPARE.
func (e *Engine) LogPrepare(key string, doc map[string]any) error {
	return e.apply(opPrepare, TwoPCCollection, key, doc)
}

// LogDecision durably records a commit/abort decision.
func (e *Engine) LogDecision(key string, doc map[string]any) error {
	return e.apply(opDecide, TwoPCCollection, key, doc)
}

// ClearTwoPC removes a 2PC record; a missing key is a no-op.
func (e *Engine) ClearTwoPC(key string) error {
	return e.Collection(TwoPCCollection).Delete(key)
}

// TwoPCScan visits surviving 2PC records in insertion order.
func (e *Engine) TwoPCScan(fn func(key string, doc map[string]any) bool) {
	e.Collection(TwoPCCollection).Scan(fn)
}

// LogPrepare durably records a participant PREPARE (volatile on the
// memory backend, like everything else it stores).
func (m *Memory) LogPrepare(key string, doc map[string]any) error {
	return m.coll(TwoPCCollection).Put(key, doc)
}

// LogDecision records a commit/abort decision.
func (m *Memory) LogDecision(key string, doc map[string]any) error {
	return m.coll(TwoPCCollection).Put(key, doc)
}

// ClearTwoPC removes a 2PC record; a missing key is a no-op.
func (m *Memory) ClearTwoPC(key string) error {
	return m.coll(TwoPCCollection).Delete(key)
}

// TwoPCScan visits surviving 2PC records in insertion order.
func (m *Memory) TwoPCScan(fn func(key string, doc map[string]any) bool) {
	m.coll(TwoPCCollection).Scan(fn)
}
