package core

import (
	"sort"

	"themis/internal/cluster"
	"themis/internal/placement"
)

// BidValuator batches bid-table preparation across the participants of one
// auction round, reusing the scratch that a standalone PrepareBid call
// allocates per app: the candidate-size set and slice, the gang-size counts,
// the per-participant entry buffers with the candidate maps left in their
// slots, the bid slice itself, and the offer's sorted pick pool, which every
// candidate of every in-process bidder picks from. The Arbiter owns one
// valuator and runs every round's step 3 through it, so in steady state bid
// preparation recycles one round's buffers into the next instead of leaving
// them to the collector.
//
// Batching is an optimisation only: the tables produced are bit-identical to
// per-app PrepareBid calls (same candidate enumeration order, same float
// math), which TestBatchedBidEquivalence pins; TestValuationMatchesReference
// pins both to the map-based valuation that predates the sorted pool. A
// valuator must not be shared across goroutines; each Arbiter (and each
// sweep worker's policy) owns its own.
type BidValuator struct {
	sizeSet map[int]bool
	sizes   []int
	counts  map[int]int
	bids    []BidTable
	entries [][]BidEntry

	// picker holds the round's offer, sorted once for every candidate
	// pick of every in-process bidder; offerTopo is the topology it was
	// loaded on, nil until the round's first pick.
	picker    placement.Picker
	offerTopo *cluster.Topology
}

// prepareBids values an offer for every bidding participant. In-process
// *Agent bidders run through the scratch-reusing path; any other Bidder
// (e.g. the rpc package's remote agents) falls back to its own PrepareBid.
// The returned slice, the Entries backing arrays and the candidate maps in
// them are owned by the valuator and valid until the next prepareBids call,
// which clears and refills each map in place — exactly the lifetime
// OfferResources needs (the auction copies what it keeps).
func (v *BidValuator) prepareBids(now float64, offer cluster.Alloc, bidding []probedAgent) []BidTable {
	bids := v.bids[:0]
	v.offerTopo = nil
	for len(v.entries) < len(bidding) {
		v.entries = append(v.entries, nil)
	}
	for i, p := range bidding {
		if ag, ok := p.state.Agent.(*Agent); ok {
			table := ag.prepareBidInto(now, offer, p.state.Current, v, v.entries[i][:0])
			v.entries[i] = table.Entries
			bids = append(bids, table)
		} else {
			bids = append(bids, p.state.Agent.PrepareBid(now, offer, p.state.Current))
		}
	}
	v.bids = bids
	return bids
}

// offerPicker returns the picker loaded with offer on topo, loading it on
// the first candidate pick after prepareBids starts a round.
func (v *BidValuator) offerPicker(topo *cluster.Topology, offer cluster.Alloc) *placement.Picker {
	if v.offerTopo != topo {
		v.picker.Load(topo, offer)
		v.offerTopo = topo
	}
	return &v.picker
}

// candidateSizes returns the GPU counts an Agent bids on, given the total
// offered GPUs, the app's unmet parallelism and its gang size. The Agent
// bids on every gang-size multiple up to a small cap, then doubles, always
// including the largest useful size — bounding the table so bid preparation
// stays cheap (§8.3.2) while covering the allocations that matter. The
// valuator's set and output slice are reused; the returned slice is valid
// until the next call.
func (v *BidValuator) candidateSizes(offered, unmet, gang int) []int {
	if offered <= 0 || unmet <= 0 {
		return nil
	}
	max := offered
	if unmet < max {
		max = unmet
	}
	if gang <= 0 {
		gang = 1
	}
	if v.sizeSet == nil {
		v.sizeSet = make(map[int]bool)
	}
	clear(v.sizeSet)
	sizes := v.sizeSet
	// Gang multiples: 1×, 2×, 3×, 4× the gang size.
	for k := 1; k <= 4; k++ {
		if s := k * gang; s <= max {
			sizes[s] = true
		}
	}
	// Doublings to reach large offers quickly.
	for s := gang * 8; s < max; s *= 2 {
		sizes[s] = true
	}
	sizes[max] = true
	if gang > 1 && max >= 1 {
		sizes[min(gang/2, max)] = true // a half-gang row for constrained offers
	}
	out := v.sizes[:0]
	for s := range sizes {
		if s > 0 {
			out = append(out, s)
		}
	}
	sort.Ints(out)
	v.sizes = out
	return out
}

// gangCounts returns the cleared gang-size tally map.
func (v *BidValuator) gangCounts() map[int]int {
	if v.counts == nil {
		v.counts = make(map[int]int)
	}
	clear(v.counts)
	return v.counts
}
