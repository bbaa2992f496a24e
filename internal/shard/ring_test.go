package shard

import (
	"fmt"
	"testing"
)

func TestRingDeterministicLookup(t *testing.T) {
	// The mapping must depend only on the member set, never on the order
	// members are listed in: two rings over the same shard names route
	// identically.
	a := NewRing([]string{"shard-0", "shard-1", "shard-2", "shard-3"}, 0)
	b := NewRing([]string{"shard-3", "shard-1", "shard-0", "shard-2"}, 0)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("app-%d", i)
		if got, want := a.Lookup(key), b.Lookup(key); got != want {
			t.Fatalf("lookup(%q) depends on member order: %q vs %q", key, got, want)
		}
	}
}

func TestRingBalance(t *testing.T) {
	n := 4
	members := make([]string, n)
	for i := range members {
		members[i] = fmt.Sprintf("shard-%d", i)
	}
	r := NewRing(members, DefaultVirtualNodes)
	counts := make(map[string]int)
	keys := 10000
	for i := 0; i < keys; i++ {
		counts[r.Lookup(fmt.Sprintf("app-%d", i))]++
	}
	if len(counts) != n {
		t.Fatalf("only %d of %d members own keys: %v", len(counts), n, counts)
	}
	for m, c := range counts {
		frac := float64(c) / float64(keys)
		if frac < 0.10 || frac > 0.45 {
			t.Errorf("member %s owns %.1f%% of keys, want a roughly even split: %v",
				m, 100*frac, counts)
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	if NewRing(nil, 8).Lookup("anything") != "" {
		t.Error("empty ring should return empty owner")
	}
	r := NewRing([]string{"only"}, 8)
	if r.Lookup("x") != "only" || r.Lookup("y") != "only" {
		t.Error("single member must own every key")
	}
}
