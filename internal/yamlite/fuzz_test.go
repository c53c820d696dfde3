package yamlite

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzYamlite: the schema loader's parser takes any text without
// panicking — it returns a value or an error — and answers the same
// way twice. ParseMap is Parse restricted to a top-level mapping: it
// accepts what Parse accepts as a mapping (or as nothing at all), with
// the same value, and refuses the rest. Seeded from the shipped schema
// documents and from fragments that stop mid-construct.
func FuzzYamlite(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "schema", "schemas", "*.yaml"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("schema documents: %v (%d found)", err, len(paths))
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, s := range []string{
		"", "a:", "a: [", "a: {b: [1, 2}", "- - x", "a: |\n  x\n b", "'", "\"\\", "a: 'x", "k: [\"a, b\"]",
		"a:\n  - b\n - c", ":", "- ", "a: b: c", "a:\n\tb: 1", "{a: b}", "[1, [2, [3]]]", "a: # c\n  b: 1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		v, err := Parse(src)
		v2, err2 := Parse(src)
		if (err == nil) != (err2 == nil) || !reflect.DeepEqual(v, v2) {
			t.Fatalf("Parse answered twice differently: %#v (%v), then %#v (%v)", v, err, v2, err2)
		}
		m, merr := ParseMap(src)
		switch want, isMap := v.(map[string]any); {
		case err != nil:
			if merr == nil {
				t.Fatalf("ParseMap accepted what Parse refused (%v): %#v", err, m)
			}
		case v == nil:
			if merr != nil || len(m) != 0 {
				t.Fatalf("ParseMap of an empty document: %#v, %v", m, merr)
			}
		case isMap:
			if merr != nil || !reflect.DeepEqual(m, want) {
				t.Fatalf("ParseMap: %#v (%v), Parse: %#v", m, merr, want)
			}
		default:
			if merr == nil {
				t.Fatalf("ParseMap accepted a %T document", v)
			}
		}
	})
}
