package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns the ops endpoint for a registry:
//
//	/metrics        expvar-style JSON snapshot of every metric
//	/traces         the most recent completed transaction traces
//	/debug/pprof/*  the standard runtime profiles
//
// The handler is safe to serve while the node is under load; snapshots
// read each metric atomically.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		type wire struct {
			ID     string           `json:"id"`
			Height int64            `json:"height"`
			Stages map[string]int64 `json:"stages_ns"`
		}
		var out []wire
		for _, tr := range r.Tracer().Completed() {
			stages := make(map[string]int64, StageCount)
			for s := Stage(0); s < StageCount; s++ {
				if tr.Observed(s) {
					stages[s.String()] = tr.Stages[s]
				}
			}
			out = append(out, wire{ID: tr.ID, Height: tr.Height, Stages: stages})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// LabeledHandler returns an ops endpoint over several registries at
// once — a sharded deployment exposes every shard's metrics in one
// scrape, keyed by label:
//
//	/metrics        {"<label>": <snapshot>, ...}
//	/debug/pprof/*  the standard runtime profiles
//
// Labels are caller-chosen (e.g. "shard-0"); the map is read per
// request, so it must not be mutated after the handler is built.
func LabeledHandler(regs map[string]*Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		out := make(map[string]Snapshot, len(regs))
		for label, r := range regs {
			out[label] = r.Snapshot()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// OpsServer is a running ops endpoint.
type OpsServer struct {
	l   net.Listener
	srv *http.Server
}

// ServeLabeled starts a multi-registry ops endpoint on addr and serves
// it in the background until Close.
func ServeLabeled(addr string, regs map[string]*Registry) (*OpsServer, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: LabeledHandler(regs), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(l)
	return &OpsServer{l: l, srv: srv}, nil
}

// Addr returns the address the endpoint is listening on.
func (s *OpsServer) Addr() string { return s.l.Addr().String() }

// Close stops the endpoint.
func (s *OpsServer) Close() error { return s.srv.Close() }
