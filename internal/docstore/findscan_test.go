package docstore

import "smartchaindb/internal/storage"

// FindScan is Find forced down the full-scan path, bypassing the
// planner — the reference implementation the planner/scan differential
// tests compare against. Results are byte-identical to Find in content
// and order. It lives in a test file because nothing but those tests
// may need it: a product read goes through the planner.
func (c *Collection) FindScan(filter Filter) []map[string]any {
	var out []map[string]any
	c.scanVisitAt(storage.HeightLatest, func(_ string, doc map[string]any) bool {
		if filter == nil || filter.Matches(doc) {
			out = append(out, deepCopyMap(doc))
		}
		return true
	})
	return out
}

// scanKeysAt is keysAt forced down the full-scan path at height h.
func (c *Collection) scanKeysAt(h int64, filter Filter) []string {
	var out []string
	c.scanVisitAt(h, func(key string, doc map[string]any) bool {
		if filter == nil || filter.Matches(doc) {
			out = append(out, key)
		}
		return true
	})
	return out
}

// keysAt returns the keys of the documents matching filter at height h
// in insertion order, read through the planner like every product read
// — the key-level view the planner tests compare with scanKeysAt.
func (c *Collection) keysAt(h int64, filter Filter) []string {
	var out []string
	c.visitCandidatesAt(h, filter, func(key string, doc map[string]any) bool {
		if filter == nil || filter.Matches(doc) {
			out = append(out, key)
		}
		return true
	})
	return out
}

// findKeys is keysAt in the writer view.
func (c *Collection) findKeys(filter Filter) []string { return c.keysAt(storage.HeightLatest, filter) }

// count is Snapshot.Count in the writer view.
func (c *Collection) count(filter Filter) int { return c.countAt(storage.HeightLatest, filter) }

// findOrdered is Snapshot.BorrowFindOrdered in the writer view.
func (c *Collection) findOrdered(filter Filter, orderPath string, desc bool, limit int) []map[string]any {
	return c.borrowOrderedAt(storage.HeightLatest, filter, orderPath, desc, limit)
}

// findOrderedScan is findOrdered forced down its no-index fallback —
// the reference the ordered-index differentials compare against.
func (c *Collection) findOrderedScan(filter Filter, orderPath string, desc bool, limit int) []map[string]any {
	return c.findOrderedScanAt(storage.HeightLatest, filter, orderPath, desc, limit)
}

// snapshot is the view at the backend's newest sealed height.
func (c *Collection) snapshot() *Snapshot { return c.SnapshotAt(c.bk.Visible()) }
