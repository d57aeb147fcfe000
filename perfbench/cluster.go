package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/lifelong"
	"repro/internal/obs"
)

// nodeAddrs are the ring's preferred peer addresses. The ring places
// modules by hashing peer names, so fixed names make placement — and each
// node's store contents — the same on every run. A taken port falls back
// to a free one (placement then differs; totals do not).
var nodeAddrs = []string{"127.0.0.1:47311", "127.0.0.1:47312"}

// noProbe keeps the health probers idle for the whole run: a probe that
// times out under load would mark a peer down and reroute traffic, making
// it depend on timing. Routing then changes only on a failed forward.
const noProbe = time.Hour

// ring is a two-node cluster and its front, each on its own loopback
// listener, built from cluster.NewNode and cluster.NewFront so the
// benchmark can wrap the handlers it mounts.
type ring struct {
	nodes    []*cluster.Node
	front    *cluster.Front
	servers  []*http.Server
	peers    []string
	frontURL string
}

// launchRing starts the cluster with fresh stores under dir. recCap sizes
// every flight recorder; wrap, when non-nil, wraps each mounted handler
// (role is "front" or "node").
func launchRing(dir string, recCap int, wrap func(role string, h http.Handler) http.Handler) (*ring, error) {
	if wrap == nil {
		wrap = func(_ string, h http.Handler) http.Handler { return h }
	}
	r := &ring{}
	var lns []net.Listener
	fail := func(err error) (*ring, error) {
		for _, ln := range lns[len(r.servers):] {
			ln.Close()
		}
		r.close()
		return nil, err
	}
	for _, addr := range nodeAddrs {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v; using a free port (ring placement will differ)\n", err)
			if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
				return fail(err)
			}
		}
		lns = append(lns, ln)
		r.peers = append(r.peers, ln.Addr().String())
	}
	for i, self := range r.peers {
		st, err := lifelong.Open(filepath.Join(dir, fmt.Sprintf("node%d", i)), 0)
		if err != nil {
			return fail(err)
		}
		n, err := cluster.NewNode(cluster.Config{
			Self:          self,
			Peers:         r.peers,
			ProbeInterval: noProbe,
			Lifelong: lifelong.Config{
				Store:        st,
				DisableReopt: true,
				Recorder:     obs.NewRecorder(recCap),
			},
		})
		if err != nil {
			return fail(err)
		}
		r.nodes = append(r.nodes, n)
		srv := &http.Server{Handler: wrap("node", n.Handler())}
		r.servers = append(r.servers, srv)
		go srv.Serve(lns[i])
	}
	f, err := cluster.NewFront(cluster.FrontConfig{
		Peers:         r.peers,
		ProbeInterval: noProbe,
		Recorder:      obs.NewRecorder(recCap),
	})
	if err != nil {
		return fail(err)
	}
	r.front = f
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	lns = append(lns, ln)
	srv := &http.Server{Handler: wrap("front", f.Handler())}
	r.servers = append(r.servers, srv)
	go srv.Serve(ln)
	r.frontURL = "http://" + ln.Addr().String()
	return r, nil
}

// close stops the front, the nodes and their listeners, and waits for
// the nodes' background goroutines.
func (r *ring) close() {
	for _, s := range r.servers {
		s.Close()
	}
	if r.front != nil {
		r.front.Close()
	}
	for _, n := range r.nodes {
		n.Close()
	}
}

// storeTotals sums the nodes' store statistics and index sizes.
func (r *ring) storeTotals() (st lifelong.StoreStats, indexBytes int64) {
	for _, n := range r.nodes {
		s := n.Store().Stats()
		st.Modules += s.Modules
		st.Artifacts += s.Artifacts
		st.Profiles += s.Profiles
		st.Summaries += s.Summaries
		st.ArtifactHits += s.ArtifactHits
		st.ArtifactMisses += s.ArtifactMisses
		if fi, err := os.Stat(filepath.Join(n.Store().Dir(), "index.json")); err == nil {
			indexBytes += fi.Size()
		}
	}
	return st, indexBytes
}

// counter reads one of a registry's counters.
func counter(reg *obs.Registry, name string, kv ...string) float64 {
	return reg.Counter(name, kv...).Value()
}

// summaries returns the persisted points-to summary blob for a module
// from whichever node stored it.
func (r *ring) summaries(hash string) ([]byte, bool) {
	for _, n := range r.nodes {
		if data, ok := n.Store().GetSummaries(hash); ok {
			return data, true
		}
	}
	return nil, false
}

// nodeCounters sums the nodes' single-flight followers and /compile
// requests.
func (r *ring) nodeCounters() (dedup, compiles float64) {
	for _, n := range r.nodes {
		dedup += counter(n.Metrics(), "llvm_serve_singleflight_shared_total")
		compiles += counter(n.Metrics(), "llvm_serve_requests_total", "endpoint", "compile")
	}
	return dedup, compiles
}
