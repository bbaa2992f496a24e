package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"themis/internal/cluster"
)

// solveCount is the total of the exact and greedy search counters.
func solveCount() uint64 { return solveExactCount.Value() + solveGreedyCount.Value() }

// without returns bidders minus the i-th, as a fresh Solve would see them.
func without(bidders []Bidder, i int) []Bidder {
	others := make([]Bidder, 0, len(bidders)-1)
	others = append(others, bidders[:i]...)
	return append(others, bidders[i+1:]...)
}

// looCase is one randomized instance with a solver configuration.
type looCase struct {
	label    string
	capacity cluster.Alloc
	bidders  []Bidder
	opts     Options
}

func looCases(rng *rand.Rand) []looCase {
	var cases []looCase
	for trial := 0; trial < 120; trial++ {
		capacity, bidders := randomInstance(rng)
		for _, opts := range []Options{{}, {ExactLimit: 1}, {ExactLimit: 2 + rng.Intn(200), LocalSearchRounds: 1 + rng.Intn(6)}} {
			cases = append(cases, looCase{fmt.Sprintf("trial %d opts %+v", trial, opts), capacity, bidders, opts})
		}
	}
	for _, n := range []int{12, 40} {
		capacity, bidders := benchInstance(n, 8, int64(n))
		cases = append(cases, looCase{fmt.Sprintf("greedy scale %d", n), capacity, bidders, Options{}})
	}
	return cases
}

// TestLeaveOneOutSearchesReuseCompiledInstance runs the masked searches on
// one compiled instance in ascending, descending, repeated and shuffled
// order, with full solves in between, and requires each to equal a fresh
// Solve over the other bidders bit for bit: any search state (`used`,
// choices, order, bounds) leaking from one search into the next shows up as
// a different choice or objective. Every search must also count as one
// solve, so the per-round solve count stays participants + 1.
func TestLeaveOneOutSearchesReuseCompiledInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, c := range looCases(rng) {
		capacity, n := c.capacity, len(c.bidders)
		type fresh struct {
			asg Assignment
			obj float64
		}
		want := make([]fresh, n)
		for i := range want {
			asg, obj, err := Solve(capacity, without(c.bidders, i), c.opts)
			if err != nil {
				t.Fatalf("%s: fresh Solve without %d: %v", c.label, i, err)
			}
			want[i] = fresh{asg, obj}
		}
		fullAsg, fullObj, err := Solve(capacity, c.bidders, c.opts)
		if err != nil {
			t.Fatalf("%s: Solve: %v", c.label, err)
		}

		opts := c.opts.withDefaults()
		sc := getScratch()
		if err := sc.validate(capacity, c.bidders); err != nil {
			t.Fatalf("%s: validate: %v", c.label, err)
		}
		sc.normalize(c.bidders)
		sc.compile(capacity)

		checkMasked := func(i int) {
			t.Helper()
			before := solveCount()
			sc.search(opts, i)
			if got := solveCount() - before; got != 1 {
				t.Fatalf("%s: masked search %d counted %d solves", c.label, i, got)
			}
			if obj := sc.objective(i); math.Float64bits(obj) != math.Float64bits(want[i].obj) {
				t.Fatalf("%s: without %d objective %v, fresh %v", c.label, i, obj, want[i].obj)
			}
			for j, b := range sc.norm {
				if j == i {
					continue
				}
				got, w := b.Bundles[sc.choice[j]], want[i].asg[b.ID]
				if got.Value != w.Value || !got.Alloc.Equal(w.Alloc) {
					t.Fatalf("%s: without %d bidder %s got %v@%v, fresh %v@%v", c.label, i, b.ID, got.Alloc, got.Value, w.Alloc, w.Value)
				}
			}
		}
		checkFull := func() {
			t.Helper()
			sc.search(opts, -1)
			asg, obj := sc.result()
			if math.Float64bits(obj) != math.Float64bits(fullObj) {
				t.Fatalf("%s: full objective %v, fresh %v", c.label, obj, fullObj)
			}
			for id, w := range fullAsg {
				if g := asg[id]; g.Value != w.Value || !g.Alloc.Equal(w.Alloc) {
					t.Fatalf("%s: full bidder %s got %v@%v, fresh %v@%v", c.label, id, g.Alloc, g.Value, w.Alloc, w.Value)
				}
			}
		}

		checkFull()
		for i := 0; i < n; i++ {
			checkMasked(i)
		}
		checkFull()
		for i := n - 1; i >= 0; i-- {
			checkMasked(i)
			checkMasked(i)
		}
		checkFull()
		for _, i := range rng.Perm(n) {
			checkMasked(i)
		}
		sc.release()

		// The public entry point agrees and counts participants + 1 solves
		// (just the full one for a lone bidder).
		before := solveCount()
		asg, obj, loo, err := SolveLeaveOneOut(capacity, c.bidders, c.opts)
		if err != nil {
			t.Fatalf("%s: SolveLeaveOneOut: %v", c.label, err)
		}
		wantSolves := uint64(n + 1)
		if n == 1 {
			wantSolves = 1
		}
		if got := solveCount() - before; got != wantSolves {
			t.Fatalf("%s: SolveLeaveOneOut counted %d solves, want %d", c.label, got, wantSolves)
		}
		if math.Float64bits(obj) != math.Float64bits(fullObj) || len(asg) != len(fullAsg) {
			t.Fatalf("%s: SolveLeaveOneOut full objective %v, Solve %v", c.label, obj, fullObj)
		}
		for i := range loo {
			if math.Float64bits(loo[i]) != math.Float64bits(want[i].obj) {
				t.Fatalf("%s: loo[%d] = %v, fresh %v", c.label, i, loo[i], want[i].obj)
			}
		}
	}
}
