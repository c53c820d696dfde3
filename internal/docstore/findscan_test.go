package docstore

import "smartchaindb/internal/storage"

// FindScan is Find forced down the full-scan path, bypassing the
// planner — the reference implementation the planner/scan differential
// tests compare against. Results are byte-identical to Find in content
// and order. It lives in a test file because nothing but those tests
// may need it: a product read goes through the planner.
func (c *Collection) FindScan(filter Filter) []map[string]any {
	if c.dropped.Load() {
		return nil
	}
	var out []map[string]any
	c.scanVisitAt(storage.HeightLatest, func(_ string, doc map[string]any) bool {
		if filter == nil || filter.Matches(doc) {
			out = append(out, deepCopyMap(doc))
		}
		return true
	})
	return out
}

// scanKeysAt is FindKeys forced down the full-scan path at height h.
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

// findOrderedScan is FindOrdered forced down its no-index fallback in
// the writer view — the reference the ordered-index differentials
// compare against.
func (c *Collection) findOrderedScan(filter Filter, orderPath string, desc bool, limit int) []map[string]any {
	return c.findOrderedScanAt(storage.HeightLatest, filter, orderPath, desc, limit)
}
