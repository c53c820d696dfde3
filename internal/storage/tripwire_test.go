//go:build tripwire

package storage

import (
	"strings"
	"testing"
)

func TestMain(m *testing.M) { TripwireMain(m) }

// TestTripwireFires: a document edited in place after it was stored is
// reported by collection and key — when the same map is stored again
// (the shape of an in-place update), and when its backend closes — and
// documents that were only replaced are not.
func TestTripwireFires(t *testing.T) {
	fired := func(fn func()) (msg string) {
		stop := tripFail
		defer func() { tripFail = stop }()
		tripFail = func(err error) { msg += err.Error() }
		fn()
		return msg
	}
	for name, open := range map[string]func() Backend{
		"memory": func() Backend { return NewMemory() },
		"disk": func() Backend {
			e, err := Open(t.TempDir(), Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			return e
		},
	} {
		t.Run(name, func(t *testing.T) {
			// Replacing versions is what writers do: nothing fires.
			b := open()
			c := b.Collection("utxos")
			doc := map[string]any{"spent": false, "owner": []any{"a"}}
			c.Put("k", doc)
			c.Put("k", map[string]any{"spent": true, "owner": doc["owner"]})
			if msg := fired(func() { b.Close() }); msg != "" {
				t.Fatalf("the tripwire fired on a clean backend: %s", msg)
			}

			// An in-place update stores the map it edited.
			b = open()
			c = b.Collection("utxos")
			doc = map[string]any{"spent": false, "owner": []any{"a"}}
			c.Put("k", doc)
			doc["spent"] = true
			if msg := fired(func() { c.Put("k", doc) }); !strings.Contains(msg, `utxos["k"]`) {
				t.Fatalf("re-storing an edited document: got %q, want it to name utxos[\"k\"]", msg)
			}
			// An edit below the top level, never stored again, is found
			// when the backend closes.
			c.Put("deep", map[string]any{"owner": []any{"a"}})
			got, _ := c.Get("deep")
			got["owner"].([]any)[0] = "b"
			if msg := fired(func() { b.Close() }); !strings.Contains(msg, `utxos["deep"]`) || !strings.Contains(msg, `utxos["k"]`) {
				t.Fatalf("Close: got %q, want it to name utxos[\"deep\"] and utxos[\"k\"]", msg)
			}
		})
	}
}
