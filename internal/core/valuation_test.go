package core

import (
	"fmt"
	"reflect"
	"testing"

	"themis/internal/cluster"
	"themis/internal/placement"
	"themis/internal/race"
	"themis/internal/workload"
)

// valuationFixture builds n agents with varied gang sizes and current
// allocations over a 16×4 cluster, plus the free vector left over.
func valuationFixture(tb testing.TB, n int) ([]probedAgent, cluster.Alloc) {
	tb.Helper()
	topo, err := cluster.Config{
		MachineSpecs:    []cluster.MachineSpec{{Count: 16, GPUs: 4, SlotSize: 2, GPU: cluster.GPUTypeP100}},
		MachinesPerRack: 8,
	}.Build()
	if err != nil {
		tb.Fatal(err)
	}
	cs := cluster.NewState(topo)
	profiles := []placement.Profile{placement.VGG16, placement.ResNet50, placement.GNMT}
	ps := make([]probedAgent, 0, n)
	for i := 0; i < n; i++ {
		id := workload.AppID(fmt.Sprintf("val-%03d", i))
		gang := 1 << (i % 3) // gangs of 1, 2, 4
		app := testApp(id, 0, profiles[i%len(profiles)], 1+i%3, 400, gang)
		ag := agentFor(topo, app)
		cur := cluster.NewAlloc()
		if i%2 == 1 { // odd agents already hold GPUs on machine i%16
			cur = cluster.Alloc{cluster.MachineID(i % 16): 2}
			if err := cs.Grant(string(id), cur); err != nil {
				tb.Fatal(err)
			}
		}
		ps = append(ps, probedAgent{state: AgentState{Agent: ag, Current: cur}, rho: float64(n - i)})
	}
	return ps, cs.FreeVector()
}

// foreignBidder wraps an Agent behind a type the valuator cannot fast-path,
// standing in for the rpc package's remote bidders.
type foreignBidder struct{ *Agent }

// TestBatchedBidEquivalence pins the valuator's contract: batching a round's
// bid preparation through one BidValuator produces tables bit-identical to
// standalone per-agent PrepareBid calls, on the first round and on a scratch-
// reusing second round, for in-process Agents and for foreign Bidders alike.
func TestBatchedBidEquivalence(t *testing.T) {
	ps, free := valuationFixture(t, 12)
	// Route one participant through the foreign-Bidder fallback path, and
	// let another bid with the placement-oblivious candidate generator.
	ps[5].state.Agent = foreignBidder{ps[5].state.Agent.(*Agent)}
	ps[7].state.Agent.(*Agent).PlacementBlind = true

	want := make([]BidTable, 0, len(ps))
	for _, p := range ps {
		want = append(want, p.state.Agent.PrepareBid(0, free, p.state.Current))
	}

	var v BidValuator
	for round := 0; round < 3; round++ {
		got := v.prepareBids(0, free, ps)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d tables, want %d", round, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("round %d: table %d differs:\n got %v\nwant %v", round, i, got[i], want[i])
			}
			// prepareBidInto keeps every candidate row: each must be
			// non-empty and no two may ask for the same GPU count.
			seen := make(map[int]bool)
			for k, e := range got[i].Entries[1:] {
				n := e.Alloc.Total()
				if n == 0 || seen[n] {
					t.Errorf("round %d: table %d row %d asks for %d GPUs (rows %v)", round, i, k+1, n, got[i].Entries)
				}
				seen[n] = true
			}
		}
	}
}

// TestValuatorCandidateSizesMatchesPackage pins that one valuator reusing its
// size set and output slice across calls enumerates exactly what a fresh
// valuator does for the same arguments.
func TestValuatorCandidateSizesMatchesPackage(t *testing.T) {
	var v BidValuator
	cases := []struct{ offered, unmet, gang int }{
		{0, 10, 2}, {10, 0, 2}, {64, 64, 1}, {64, 17, 4}, {5, 100, 8}, {3, 3, 2}, {128, 96, 2},
	}
	for _, c := range cases {
		var fresh BidValuator
		want := fresh.candidateSizes(c.offered, c.unmet, c.gang)
		got := v.candidateSizes(c.offered, c.unmet, c.gang)
		if !reflect.DeepEqual(append([]int(nil), got...), want) {
			t.Errorf("candidateSizes(%d,%d,%d): reused valuator %v, fresh %v", c.offered, c.unmet, c.gang, got, want)
		}
	}
}

// TestBidValuationBatchZeroAlloc pins the core half of the allocation
// contract (TestEventCoreZeroAlloc in internal/sim is the sim half): once the
// valuator's scratch, entry buffers and picker have reached steady-state
// capacity, preparing every participant's bid table — each row built in the
// candidate map the previous round left in its slot — is 0 allocs/op.
func TestBidValuationBatchZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; zero-alloc contract is checked without -race")
	}
	ps, free := valuationFixture(t, 16)
	var v BidValuator
	for i := 0; i < 8; i++ { // warm up scratch, entry buffers and their maps
		v.prepareBids(0, free, ps)
	}
	allocs := testing.AllocsPerRun(200, func() {
		v.prepareBids(0, free, ps)
	})
	if allocs != 0 {
		t.Errorf("steady-state valuation round allocates %.1f objects/op, want 0", allocs)
	}
}

// TestCandidateMapLifetimes pins the lifetime rule of the valuator's
// recycled candidate maps over Arbiter rounds whose offers and participant
// counts shrink and grow: within a round every bid row owns its own map, and
// the decisions OfferResources returns never alias one, so later rounds
// rebuilding those maps in place leave earlier decisions intact.
func TestCandidateMapLifetimes(t *testing.T) {
	ps, free := valuationFixture(t, 12)
	topo := ps[0].state.Agent.(*Agent).Estimator.Topo
	arb, err := NewArbiter(topo, Config{FairnessKnob: 0.5, LeaseDuration: 20})
	if err != nil {
		t.Fatal(err)
	}
	states := make([]AgentState, 0, len(ps))
	for i, p := range ps {
		if i%4 == 0 { // short tables, so a slot's row count changes with its bidder
			p.state.Agent.(*Agent).MaxBidRows = 2
		}
		states = append(states, p.state)
	}
	// part keeps the free GPUs on the first n machines.
	part := func(n int) cluster.Alloc {
		out := cluster.NewAlloc()
		for m, g := range free {
			if int(m) < n {
				out[m] = g
			}
		}
		return out
	}
	rounds := []struct {
		offer  cluster.Alloc
		agents int
	}{
		{free, 12}, {part(4), 6}, {part(10), 12}, {part(2), 2}, {free, 8}, {part(6), 12},
	}
	type kept struct{ got, want []Allocation }
	var history []kept
	for r, rd := range rounds {
		got, err := arb.OfferResources(float64(r), rd.offer, states[:rd.agents])
		if err != nil {
			t.Fatal(err)
		}
		rows := make(map[uintptr]string)
		for _, b := range arb.val.bids {
			for k, e := range b.Entries {
				p := reflect.ValueOf(e.Alloc).Pointer()
				if prev, ok := rows[p]; ok {
					t.Fatalf("round %d: %s row %d shares its map with %s", r, b.App, k, prev)
				}
				rows[p] = fmt.Sprintf("%s row %d", b.App, k)
			}
		}
		if len(rows) == 0 {
			t.Fatalf("round %d: no bid rows", r)
		}
		want := make([]Allocation, len(got))
		for i, d := range got {
			if owner, ok := rows[reflect.ValueOf(d.Alloc).Pointer()]; ok {
				t.Errorf("round %d: decision for %s aliases bid %s", r, d.App, owner)
			}
			want[i] = d
			want[i].Alloc = d.Alloc.Clone()
		}
		history = append(history, kept{got, want})
		for pr, h := range history {
			if !reflect.DeepEqual(h.got, h.want) {
				t.Fatalf("after round %d: round %d decisions changed:\n got %v\nwant %v", r, pr, h.got, h.want)
			}
		}
	}
}

// BenchmarkBidValuationBatch measures one auction round's batched bid
// preparation — the internal/core hot path. Each iteration prepares every
// participant's table as the Arbiter does, so in steady state the round
// rebuilds the previous round's candidate maps in place.
func BenchmarkBidValuationBatch(b *testing.B) {
	ps, free := valuationFixture(b, 16)
	var v BidValuator
	v.prepareBids(0, free, ps) // prime the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.prepareBids(0, free, ps)
	}
}

// BenchmarkBidPreparePerAgent is the unbatched baseline for comparison.
func BenchmarkBidPreparePerAgent(b *testing.B) {
	ps, free := valuationFixture(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			p.state.Agent.PrepareBid(0, free, p.state.Current)
		}
	}
}
