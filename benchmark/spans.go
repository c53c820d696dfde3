package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// span is one timed call from the driver into a layer. Spans of one
// block (or one cross-shard transaction) share a trace id; Parent is
// the span that caused this one, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced run: every method is a no-op, so the driver loops carry
// no "is tracing on" branches of their own.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) start(name, trace string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans), Parent: parent, Trace: trace, Name: name,
		Start: int64(time.Since(r.t0)), End: -1,
	})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
}

// since records a closed span that began at from and ends now, and
// returns now — for callbacks that only learn of a step when it is over.
func (r *recorder) since(name, trace string, parent int, from time.Time) time.Time {
	now := time.Now()
	if r != nil {
		r.spans = append(r.spans, span{
			ID: len(r.spans), Parent: parent, Trace: trace, Name: name,
			Start: int64(from.Sub(r.t0)), End: int64(now.Sub(r.t0)),
		})
	}
	return now
}

// id renders a trace id — a block height, a round number — with its
// prefix (nothing when untraced, so the untraced loop formats no
// strings).
func (r *recorder) id(prefix string, n int64) string {
	if r == nil {
		return ""
	}
	return prefix + strconv.FormatInt(n, 10)
}

// write stores the spans as one JSON object per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if r.spans[i].End < 0 {
			f.Close()
			return fmt.Errorf("span %d (%s) was never ended", i, r.spans[i].Name)
		}
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count int
	Total time.Duration // sum of durations
	Self  time.Duration // durations minus the part child spans cover
}

// readSpanStats loads a trace file and aggregates it by span name. A
// span's self time is its duration minus the union of its children's
// intervals, clipped to the span.
func readSpanStats(path string) (map[string]spanStat, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	stats := make(map[string]spanStat)
	for _, s := range spans {
		st := stats[s.Name]
		st.Count++
		d := s.End - s.Start
		st.Total += time.Duration(d)
		st.Self += time.Duration(d - covered(children[s.ID], s.Start, s.End))
		stats[s.Name] = st
	}
	return stats, nil
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	at := lo
	for _, iv := range ivs {
		s, e := max(iv[0], at), min(iv[1], hi)
		if e > s {
			sum += e - s
			at = e
		}
	}
	return sum
}
