package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/hyperparam"
	"themis/internal/rpc"
	"themis/internal/workload"
)

func runServeHTTP(cfg config) (*result, error) {
	return runAuctions(cfg, auctionWorkload{
		apps:     serveApps,
		rounds:   10,
		build:    buildHTTP,
		describe: fmt.Sprintf("%d AgentServers, one loopback listener each, behind one ArbiterServer over the sim cluster", serveApps),
	})
}

// endpointStats counts and times the calls one agent endpoint served, summed
// over every AgentServer of a deployment.
type endpointStats struct {
	calls, ok, nanos atomic.Int64
}

// agentStats wraps the AgentServers' handlers and listeners.
type agentStats struct {
	rho, bid, alloc endpointStats
	accepts         atomic.Int64
}

func (st *agentStats) endpoint(path string) *endpointStats {
	switch path {
	case "/v1/rho":
		return &st.rho
	case "/v1/bid":
		return &st.bid
	case "/v1/allocation":
		return &st.alloc
	}
	return nil
}

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// wrap counts, times and checks the status of every protocol call h serves.
func (st *agentStats) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep := st.endpoint(r.URL.Path)
		if ep == nil {
			h.ServeHTTP(w, r)
			return
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(rec, r)
		ep.nanos.Add(int64(time.Since(start)))
		ep.calls.Add(1)
		if rec.code == http.StatusOK {
			ep.ok.Add(1)
		}
	})
}

// agentSnapshot is a reading of agentStats.
type agentSnapshot struct {
	calls, ok, nanos [3]int64
	accepts          int64
}

func (st *agentStats) snapshot() agentSnapshot {
	var s agentSnapshot
	for i, ep := range []*endpointStats{&st.rho, &st.bid, &st.alloc} {
		s.calls[i], s.ok[i], s.nanos[i] = ep.calls.Load(), ep.ok.Load(), ep.nanos.Load()
	}
	s.accepts = st.accepts.Load()
	return s
}

func (s agentSnapshot) minus(o agentSnapshot) agentSnapshot {
	for i := range s.calls {
		s.calls[i] -= o.calls[i]
		s.ok[i] -= o.ok[i]
		s.nanos[i] -= o.nanos[i]
	}
	s.accepts -= o.accepts
	return s
}

// countingListener counts the connections an agent accepts.
type countingListener struct {
	net.Listener
	accepts *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// httpDeployment is one ArbiterServer on a loopback listener with one
// AgentServer per app, each on its own listener and registered over HTTP, as
// with one agentd per app. One closed-loop client triggers the rounds; the
// arbiter's clock is virtual and set by the client before each trigger.
type httpDeployment struct {
	srv       *rpc.ArbiterServer
	client    *rpc.ArbiterClient
	transport *http.Transport
	clock     atomic.Uint64 // math.Float64bits of the scheduling time
	servers   []*http.Server
	wg        sync.WaitGroup
	agents    int
	stats     agentStats

	// prev holds the apps granted GPUs by the previous round: their leases
	// expire in this one, so each gets a delivery.
	prev      map[string]bool
	last      agentSnapshot
	lastRound agentSnapshot // the last round's agent-side calls
	errs      float64       // client transport errors as last read
}

func buildHTTP(topo *cluster.Topology, apps []*workload.App) (deployment, error) {
	srv, err := newArbiterServer(topo)
	if err != nil {
		return nil, err
	}
	d := &httpDeployment{srv: srv, agents: len(apps), prev: make(map[string]bool)}
	srv.Clock = func() float64 { return math.Float64frombits(d.clock.Load()) }
	if err := d.start(topo, apps); err != nil {
		d.close()
		return nil, err
	}
	d.last = d.stats.snapshot()
	d.errs = scrape().family("themis_rpc_client_errors_total")
	return d, nil
}

func (d *httpDeployment) start(topo *cluster.Topology, apps []*workload.App) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.serve(ln, d.srv.Handler())
	// The trigger client is the benchmark's own; it keeps its one connection
	// out of the process-wide pool the arbiter's agent clients share.
	d.transport = &http.Transport{MaxIdleConnsPerHost: 1}
	d.client = rpc.NewArbiterClient("http://" + ln.Addr().String())
	d.client.HTTPClient = &http.Client{Timeout: time.Minute, Transport: d.transport}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, a := range apps {
		aln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		agent := rpc.NewAgentServer(core.NewAgent(topo, a, hyperparam.ForApp(a), nil))
		d.serve(countingListener{Listener: aln, accepts: &d.stats.accepts}, d.stats.wrap(agent.Handler()))
		if _, err := d.client.Register(ctx, string(a.ID), "http://"+aln.Addr().String(), a.MaxParallelism()); err != nil {
			return fmt.Errorf("registering %s: %w", a.ID, err)
		}
	}
	return nil
}

func (d *httpDeployment) serve(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h}
	d.servers = append(d.servers, hs)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
}

func (d *httpDeployment) close() {
	for _, hs := range d.servers {
		_ = hs.Close()
	}
	d.wg.Wait()
	if d.transport != nil {
		d.transport.CloseIdleConnections()
	}
	// The arbiter's agent clients use the default transport; drop its
	// connections to the agents just closed, as a restarted arbiterd would.
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

func (d *httpDeployment) round(now float64) (rpc.AuctionResponse, error) {
	d.clock.Store(math.Float64bits(now))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return d.client.TriggerAuction(ctx)
}

func (d *httpDeployment) held(app workload.AppID) cluster.Alloc { return d.srv.HeldBy(app) }
func (d *httpDeployment) validate() error                       { return d.srv.ValidateState() }

// account compares the calls the agents served with the calls the round had
// to make: a ρ probe to every agent, a bid request to each of the worst 1−f,
// and a delivery to every app whose allocation changed (the previous round's
// holders, whose leases expired, and this round's grantees). A call missing
// on the agent side, or a client transport error, is a failed RPC — so a
// probe that silently fell back to ρ = 1 counts.
func (d *httpDeployment) account(res *result, resp rpc.AuctionResponse) {
	cur := d.stats.snapshot()
	d.lastRound = cur.minus(d.last)
	d.last = cur

	var want [3]int64
	if resp.Offered > 0 && d.agents > 0 {
		f := core.DefaultConfig().FairnessKnob
		bidders := int(math.Ceil((1 - f) * float64(d.agents)))
		bidders = max(1, min(bidders, d.agents))
		changed := make(map[string]bool, len(d.prev)+len(resp.Decisions))
		for id := range d.prev {
			changed[id] = true
		}
		for id := range resp.Decisions {
			changed[id] = true
		}
		want = [3]int64{int64(d.agents), int64(bidders), int64(len(changed))}
	}
	d.prev = make(map[string]bool, len(resp.Decisions))
	for id := range resp.Decisions {
		d.prev[id] = true
	}

	missing := int64(0)
	for i := range want {
		res.attempted += int(want[i])
		if short := want[i] - d.lastRound.ok[i]; short > 0 {
			missing += short
		}
	}
	errs := scrape().family("themis_rpc_client_errors_total")
	transport := int64(errs - d.errs)
	d.errs = errs
	res.failed += int(max(missing, transport))
}

func (d *httpDeployment) observe(lt layerSums, wall time.Duration) {
	observeServer(lt, d.srv, wall)
	r := d.lastRound
	for i, name := range []string{"agent.rho", "agent.bid", "agent.alloc"} {
		lt[name+"_s"] += time.Duration(r.nanos[i]).Seconds()
		lt[name+"_calls"] += float64(r.calls[i])
	}
	lt["rpc.conns_per_round"] += float64(r.accepts)
}
