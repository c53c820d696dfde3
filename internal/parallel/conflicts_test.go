package parallel

import "smartchaindb/internal/txn"

// The pairwise conflict rule the grouping tests hold Plan and
// GroupFootprints to: Plan itself never compares two footprints.

// Conflicts reports whether the two footprints may not run
// concurrently: write/write or write/read intersection.
func Conflicts(f, g txn.Footprint) bool {
	return intersects(f.Writes, g.Writes) ||
		intersects(f.Writes, g.Reads) ||
		intersects(f.Reads, g.Writes)
}

func intersects(a, b []string) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	set := make(map[string]struct{}, len(a))
	for _, k := range a {
		set[k] = struct{}{}
	}
	for _, k := range b {
		if _, ok := set[k]; ok {
			return true
		}
	}
	return false
}
