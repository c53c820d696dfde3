package main

import (
	"strings"
	"testing"
)

// TestCheckCounts: the counts the demo cannot run are refused naming
// their flag — no validator, no bidder, or a shard demo with one shard —
// and the defaults pass.
func TestCheckCounts(t *testing.T) {
	if err := checkCounts(4, 3, 0); err != nil {
		t.Errorf("defaults refused: %v", err)
	}
	if err := checkCounts(1, 1, 2); err != nil {
		t.Errorf("one validator, one bidder, two shards refused: %v", err)
	}
	for _, c := range []struct {
		nodes, bidders, shards int
		flag                   string
	}{
		{0, 3, 0, "-nodes is 0"},
		{-1, 3, 0, "-nodes is -1"},
		{4, 0, 0, "-bidders is 0"},
		{4, -2, 0, "-bidders is -2"},
		{4, 3, 1, "-shards is 1"},
		{4, 3, -1, "-shards is -1"},
	} {
		if err := checkCounts(c.nodes, c.bidders, c.shards); err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("checkCounts(%d, %d, %d): %v, want an error naming %q", c.nodes, c.bidders, c.shards, err, c.flag)
		}
	}
}
