package placement

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"themis/internal/cluster"
	"themis/internal/race"
)

func testTopo(t *testing.T, machines, gpus, perRack int) *cluster.Topology {
	t.Helper()
	topo, err := cluster.Config{
		MachineSpecs:    []cluster.MachineSpec{{Count: machines, GPUs: gpus, SlotSize: 2}},
		MachinesPerRack: perRack,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestCatalogProfilesValid(t *testing.T) {
	for _, p := range append(Catalog(), GenericNetworkIntensive, GenericComputeIntensive) {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	p, ok := ByName("VGG16")
	if !ok || p.Name != "VGG16" {
		t.Errorf("ByName(VGG16) = %v, %v", p, ok)
	}
	if _, ok := ByName("NoSuchModel"); ok {
		t.Error("ByName should fail for unknown model")
	}
}

func TestCatalogPartition(t *testing.T) {
	net := NetworkIntensiveProfiles()
	comp := ComputeIntensiveProfiles()
	if len(net)+len(comp) != len(Catalog()) {
		t.Errorf("partition sizes %d+%d != catalog %d", len(net), len(comp), len(Catalog()))
	}
	for _, p := range net {
		if !p.NetworkIntensive {
			t.Errorf("%s in network-intensive set but not marked", p.Name)
		}
	}
}

func TestSensitivityShape(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	oneServer := cluster.Alloc{0: 4}
	twoServers := cluster.Alloc{0: 2, 1: 2}
	crossRack := cluster.Alloc{0: 2, 2: 2}

	// VGG16 (network-intensive): spreading across servers must cost a lot.
	vggLocal := VGG16.Throughput(topo, oneServer)
	vggSpread := VGG16.Throughput(topo, twoServers)
	if vggSpread >= 0.75*vggLocal {
		t.Errorf("VGG16 spread throughput %v not much lower than local %v", vggSpread, vggLocal)
	}
	// ResNet50 (compute-intensive): spreading must cost little.
	resLocal := ResNet50.Throughput(topo, oneServer)
	resSpread := ResNet50.Throughput(topo, twoServers)
	if resSpread < 0.9*resLocal {
		t.Errorf("ResNet50 spread throughput %v dropped too much from %v", resSpread, resLocal)
	}
	// Wider spreads are never faster.
	if VGG16.SOf(topo, crossRack) > VGG16.SOf(topo, twoServers) {
		t.Error("cross-rack S should not exceed rack-local S")
	}
	// Single GPU never slows down.
	if got := VGG16.SOf(topo, cluster.Alloc{0: 1}); got != 1 {
		t.Errorf("single-GPU S = %v, want 1", got)
	}
}

func TestSpeedupMonotoneInGPUs(t *testing.T) {
	topo := testTopo(t, 2, 4, 2)
	if VGG16.Speedup(topo, cluster.Alloc{0: 4}) <= VGG16.Speedup(topo, cluster.Alloc{0: 2}) {
		t.Error("more GPUs on the same machine should increase speedup")
	}
}

func TestPickPrefersAnchorMachines(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	free := cluster.Alloc{0: 2, 1: 4, 2: 4}
	anchor := cluster.Alloc{0: 2}
	got := Pick(topo, free, anchor, 2)
	if got[0] != 2 {
		t.Errorf("Pick should extend anchor machine 0 first, got %v", got)
	}
}

func TestPickPacksFewMachines(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	free := cluster.Alloc{0: 1, 1: 1, 2: 4, 3: 1}
	got := Pick(topo, free, cluster.NewAlloc(), 4)
	if got[2] != 4 || got.Total() != 4 {
		t.Errorf("Pick should pack onto machine 2, got %v", got)
	}
}

func TestPickPrefersAnchorRack(t *testing.T) {
	// 2 machines per rack; anchor on machine 0 (rack 0); free on machines 1
	// (rack 0) and 2 (rack 1) equally.
	topo := testTopo(t, 4, 4, 2)
	free := cluster.Alloc{1: 2, 2: 2}
	anchor := cluster.Alloc{0: 4}
	got := Pick(topo, free, anchor, 2)
	if got[1] != 2 {
		t.Errorf("Pick should stay in anchor rack, got %v", got)
	}
}

func TestPickBounded(t *testing.T) {
	topo := testTopo(t, 2, 4, 2)
	free := cluster.Alloc{0: 1, 1: 1}
	got := Pick(topo, free, cluster.NewAlloc(), 10)
	if got.Total() != 2 {
		t.Errorf("Pick should be capped by free pool, got %v", got)
	}
	if got := Pick(topo, free, cluster.NewAlloc(), 0); !got.IsEmpty() {
		t.Errorf("Pick with count=0 should be empty, got %v", got)
	}
}

// TestPickProperties checks, over random free vectors, that Pick never
// exceeds the free pool, never exceeds the requested count and never
// fabricates machines.
func TestPickProperties(t *testing.T) {
	topo := testTopo(t, 8, 4, 4)
	f := func(seed uint32, count uint8) bool {
		free := cluster.NewAlloc()
		s := seed
		for m := 0; m < 8; m++ {
			s = s*1664525 + 1013904223
			free[cluster.MachineID(m)] = int(s % 5)
			if free[cluster.MachineID(m)] == 0 {
				delete(free, cluster.MachineID(m))
			}
		}
		want := int(count % 24)
		got := Pick(topo, free, cluster.NewAlloc(), want)
		if got.Total() > want {
			return false
		}
		if got.Total() > free.Total() {
			return false
		}
		for m, n := range got {
			if n < 0 || n > free[m] {
				return false
			}
		}
		// Pick must take as many as available up to want.
		expect := want
		if free.Total() < want {
			expect = free.Total()
		}
		return got.Total() == expect
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSplitAmongJobs(t *testing.T) {
	topo := testTopo(t, 4, 4, 2)
	total := cluster.Alloc{0: 4, 1: 4}
	parts := SplitAmongJobs(topo, total, 3, 4)
	if len(parts) != 3 {
		t.Fatalf("got %d parts, want 3", len(parts))
	}
	sum := cluster.NewAlloc()
	for _, p := range parts {
		sum = sum.Add(p)
	}
	if !sum.Equal(total) {
		t.Errorf("parts sum %v != total %v", sum, total)
	}
	// Each of the first two jobs should get a whole machine (packed).
	if parts[0].Total() != 4 || len(parts[0].Machines()) != 1 {
		t.Errorf("first job should be packed on one machine, got %v", parts[0])
	}
	if parts[2].Total() != 0 {
		t.Errorf("third job should get nothing, got %v", parts[2])
	}
}

func TestSatisfiesMaxMachines(t *testing.T) {
	cases := []struct {
		alloc cluster.Alloc
		max   int
		want  bool
	}{
		{cluster.Alloc{0: 4}, 1, true},
		{cluster.Alloc{0: 2, 1: 2}, 1, false},
		{cluster.Alloc{0: 2, 1: 2}, 2, true},
		{cluster.Alloc{0: 1, 1: 1, 2: 1}, 2, false},
		{cluster.Alloc{0: 2, 1: 0}, 1, true}, // zero entries don't count as machines
		{cluster.Alloc{0: 1, 1: 1}, 0, true}, // 0 = unconstrained
		{cluster.NewAlloc(), 1, true},
	}
	for _, c := range cases {
		if got := SatisfiesMaxMachines(c.alloc, c.max); got != c.want {
			t.Errorf("SatisfiesMaxMachines(%v, %d) = %t, want %t", c.alloc, c.max, got, c.want)
		}
	}
	if SatisfiesConstraints(cluster.Alloc{0: 1, 1: 3}, 2, 2) {
		t.Error("SatisfiesConstraints ignored the per-machine minimum")
	}
	if SatisfiesConstraints(cluster.Alloc{0: 2, 1: 2}, 2, 1) {
		t.Error("SatisfiesConstraints ignored the machine-spread cap")
	}
	if !SatisfiesConstraints(cluster.Alloc{0: 2, 1: 2}, 2, 2) {
		t.Error("SatisfiesConstraints rejected a conforming allocation")
	}
}

func TestFigure2ModelsOrder(t *testing.T) {
	models := Figure2Models()
	want := []string{"VGG16", "VGG19", "AlexNet", "Inceptionv3", "ResNet50"}
	if len(models) != len(want) {
		t.Fatalf("Figure2Models returned %d models, want %d", len(models), len(want))
	}
	for i, m := range models {
		if m.Name != want[i] {
			t.Errorf("Figure2Models[%d] = %s, want %s", i, m.Name, want[i])
		}
	}
}

func multiDomainTopo(t *testing.T) *cluster.Topology {
	t.Helper()
	// two domains x two racks x two machines x 4 GPUs
	var machines []cluster.Machine
	for i := 0; i < 8; i++ {
		machines = append(machines, cluster.Machine{
			ID: cluster.MachineID(i), Rack: cluster.RackID(i / 2),
			Domain: cluster.DomainID(i / 4), NumGPUs: 4, SlotSize: 2,
			GPU: cluster.GPUTypeP100,
		})
	}
	topo, err := cluster.NewTopology(machines)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestPickFillsDomainBeforeSpilling(t *testing.T) {
	topo := multiDomainTopo(t)
	// Domain 0 has 6 free GPUs (4+2), domain 1 has 8. A 6-GPU pick should
	// stay entirely inside domain 1 rather than straddle the fabric.
	free := cluster.Alloc{0: 4, 1: 2, 4: 4, 5: 4}
	got := Pick(topo, free, cluster.NewAlloc(), 6)
	if got.Total() != 6 {
		t.Fatalf("picked %d GPUs, want 6", got.Total())
	}
	for _, m := range got.Machines() {
		if topo.Domain(m) != 1 {
			t.Errorf("pick straddles domains: %v", got)
		}
	}
}

func TestPickPrefersAnchorDomain(t *testing.T) {
	topo := multiDomainTopo(t)
	free := cluster.Alloc{2: 2, 4: 4}
	anchor := cluster.Alloc{0: 2}
	got := Pick(topo, free, anchor, 2)
	if got[2] != 2 {
		t.Errorf("pick should stay in anchor's domain 0: %v", got)
	}
}

func TestConstraintSatisfies(t *testing.T) {
	topo := multiDomainTopo(t)
	cases := []struct {
		name  string
		alloc cluster.Alloc
		c     Constraint
		want  bool
	}{
		{"zero constraint", cluster.Alloc{0: 1, 4: 1}, Constraint{}, true},
		{"min ok", cluster.Alloc{0: 2, 1: 2}, Constraint{MinGPUsPerMachine: 2}, true},
		{"min violated", cluster.Alloc{0: 2, 1: 1}, Constraint{MinGPUsPerMachine: 2}, false},
		{"max ok", cluster.Alloc{0: 2, 1: 2}, Constraint{MaxMachines: 2}, true},
		{"max violated", cluster.Alloc{0: 1, 1: 1, 2: 1}, Constraint{MaxMachines: 2}, false},
		{"domain ok", cluster.Alloc{0: 2, 3: 2}, Constraint{Domain: 0, HasDomain: true}, true},
		{"domain violated", cluster.Alloc{0: 2, 4: 2}, Constraint{Domain: 0, HasDomain: true}, false},
		{"flavor ok", cluster.Alloc{0: 2}, Constraint{Flavor: cluster.GPUTypeP100}, true},
		{"flavor violated", cluster.Alloc{0: 2}, Constraint{Flavor: cluster.GPUTypeK80}, false},
		{"empty alloc", cluster.Alloc{}, Constraint{MinGPUsPerMachine: 8, Flavor: cluster.GPUTypeK80}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Satisfies(topo, c.alloc, c.c); got != c.want {
				t.Errorf("Satisfies(%v, %+v) = %v, want %v", c.alloc, c.c, got, c.want)
			}
		})
	}
}

func TestConstraintFeasible(t *testing.T) {
	topo := multiDomainTopo(t)
	if !(Constraint{MinGPUsPerMachine: 4}).Feasible(topo) {
		t.Error("min=4 should be feasible on 4-GPU machines")
	}
	if (Constraint{MinGPUsPerMachine: 5}).Feasible(topo) {
		t.Error("min=5 should be infeasible on 4-GPU machines")
	}
	if (Constraint{Flavor: cluster.GPUTypeK80}).Feasible(topo) {
		t.Error("K80 flavor should be infeasible on an all-P100 cluster")
	}
	if !(Constraint{Domain: 1, HasDomain: true}).Feasible(topo) {
		t.Error("domain 1 exists and should be feasible")
	}
	if (Constraint{Domain: 7, HasDomain: true}).Feasible(topo) {
		t.Error("domain 7 does not exist")
	}
}

func TestPickConstrained(t *testing.T) {
	topo := multiDomainTopo(t)
	free := cluster.Alloc{0: 4, 1: 1, 2: 2, 4: 4, 5: 4}

	// min-per-machine: machine 1's lone free GPU must not be used.
	got := PickConstrained(topo, free, cluster.NewAlloc(), 6, Constraint{MinGPUsPerMachine: 2})
	if !Satisfies(topo, got, Constraint{MinGPUsPerMachine: 2}) {
		t.Errorf("min constraint violated: %v", got)
	}
	if got.Total() != 6 {
		t.Errorf("picked %d, want 6", got.Total())
	}

	// domain affinity: only domain-0 machines may appear even though domain 1
	// has more free capacity.
	got = PickConstrained(topo, free, cluster.NewAlloc(), 6, Constraint{Domain: 0, HasDomain: true})
	for _, m := range got.Machines() {
		if topo.Domain(m) != 0 {
			t.Errorf("domain constraint violated: %v", got)
		}
	}
	if got.Total() != 6 {
		t.Errorf("picked %d, want 6 (domain 0 has 7 free)", got.Total())
	}

	// machine cap: at most 2 machines used including the anchor's.
	anchor := cluster.Alloc{0: 2}
	got = PickConstrained(topo, free, anchor, 8, Constraint{MaxMachines: 2})
	if !Satisfies(topo, got.Add(anchor), Constraint{MaxMachines: 2}) {
		t.Errorf("max-machines violated: picked %v anchor %v", got, anchor)
	}

	// infeasible: wanting 1 GPU under a floor of 2 yields nothing on fresh
	// machines.
	got = PickConstrained(topo, cluster.Alloc{3: 1}, cluster.NewAlloc(), 1, Constraint{MinGPUsPerMachine: 2})
	if got.Total() != 0 {
		t.Errorf("expected empty pick, got %v", got)
	}
}

// referencePick is the map-based Pick the Picker replaced, kept verbatim as
// the oracle: it clones the free vector and re-sorts the remaining machines
// for pass 2 and for every (domain, rack) pair of pass 3.
func referencePick(topo *cluster.Topology, free cluster.Alloc, anchor cluster.Alloc, count int) cluster.Alloc {
	picked := cluster.NewAlloc()
	if count <= 0 {
		return picked
	}
	remaining := free.Clone()
	need := count

	take := func(m cluster.MachineID) {
		if need <= 0 {
			return
		}
		n := remaining[m]
		if n <= 0 {
			return
		}
		if n > need {
			n = need
		}
		picked[m] += n
		remaining[m] -= n
		need -= n
	}

	// Pass 1: machines the anchor already uses, largest anchor share first.
	for _, m := range sortedMachineIDs(anchor) {
		take(m)
		if need == 0 {
			return picked
		}
	}

	// Pass 2: machines in racks the anchor already touches.
	anchorRacks := make(map[cluster.RackID]bool)
	for _, m := range anchor.Machines() {
		anchorRacks[topo.Rack(m)] = true
	}
	if len(anchorRacks) > 0 {
		for _, m := range machinesByFree(remaining) {
			if anchorRacks[topo.Rack(m)] {
				take(m)
				if need == 0 {
					return picked
				}
			}
		}
	}

	// Pass 3: pack into as few machines as possible, filling one fabric
	// domain before spilling into the next. Domains the anchor already
	// touches come first, then domains by aggregate free GPUs; within a
	// domain, prefer the rack with the most aggregate free GPUs so
	// multi-machine spills stay rack-local. On single-domain (flat)
	// topologies the domain loop is a no-op and the order reduces to the
	// pre-hierarchy rack packing.
	anchorDomains := make(map[cluster.DomainID]bool)
	for _, m := range anchor.Machines() {
		anchorDomains[topo.Domain(m)] = true
	}
	rackFree := make(map[cluster.RackID]int)
	domainFree := make(map[cluster.DomainID]int)
	for m, n := range remaining {
		if n > 0 {
			rackFree[topo.Rack(m)] += n
			domainFree[topo.Domain(m)] += n
		}
	}
	domains := make([]cluster.DomainID, 0, len(domainFree))
	for d := range domainFree {
		domains = append(domains, d)
	}
	sort.Slice(domains, func(i, j int) bool {
		di, dj := domains[i], domains[j]
		if anchorDomains[di] != anchorDomains[dj] {
			return anchorDomains[di]
		}
		if domainFree[di] != domainFree[dj] {
			return domainFree[di] > domainFree[dj]
		}
		return di < dj
	})
	racks := make([]cluster.RackID, 0, len(rackFree))
	for r := range rackFree {
		racks = append(racks, r)
	}
	sort.Slice(racks, func(i, j int) bool {
		if rackFree[racks[i]] != rackFree[racks[j]] {
			return rackFree[racks[i]] > rackFree[racks[j]]
		}
		return racks[i] < racks[j]
	})
	for _, d := range domains {
		for _, r := range racks {
			for _, m := range machinesByFree(remaining) {
				if topo.Rack(m) != r || topo.Domain(m) != d {
					continue
				}
				take(m)
				if need == 0 {
					return picked
				}
			}
		}
	}
	return picked
}

// referencePickConstrained is the map-based PickConstrained the Picker
// replaced, kept verbatim as the oracle for constrained picks.
func referencePickConstrained(topo *cluster.Topology, free cluster.Alloc, anchor cluster.Alloc, count int, c Constraint) cluster.Alloc {
	if c.IsZero() {
		return referencePick(topo, free, anchor, count)
	}
	eligible := cluster.NewAlloc()
	for m, n := range free {
		if n > 0 && c.Admits(topo, m) {
			eligible[m] = n
		}
	}
	minPer := c.MinGPUsPerMachine
	if minPer < 1 {
		minPer = 1
	}
	usedMachines := func(picked cluster.Alloc) int {
		used := make(map[cluster.MachineID]bool)
		for m, n := range anchor {
			if n > 0 {
				used[m] = true
			}
		}
		for m, n := range picked {
			if n > 0 {
				used[m] = true
			}
		}
		return len(used)
	}
	picked := cluster.NewAlloc()
	need := count
	take := func(m cluster.MachineID) {
		if need <= 0 {
			return
		}
		n := eligible[m]
		if n <= 0 {
			return
		}
		if n > need {
			n = need
		}
		base := anchor[m] + picked[m]
		if base+n < minPer {
			return // would leave the machine under the per-machine floor
		}
		if c.MaxMachines > 0 && base == 0 && usedMachines(picked) >= c.MaxMachines {
			return // a fresh machine would exceed the spread cap
		}
		picked[m] += n
		eligible[m] -= n
		need -= n
	}

	// Same preference ladder as Pick: anchor machines, anchor racks, then
	// domain-then-rack packing over the rest.
	for _, m := range sortedMachineIDs(anchor) {
		take(m)
	}
	if need > 0 {
		anchorRacks := make(map[cluster.RackID]bool)
		for _, m := range anchor.Machines() {
			anchorRacks[topo.Rack(m)] = true
		}
		if len(anchorRacks) > 0 {
			for _, m := range machinesByFree(eligible) {
				if anchorRacks[topo.Rack(m)] {
					take(m)
				}
			}
		}
	}
	if need > 0 {
		for _, m := range machinesByFree(eligible) {
			take(m)
		}
	}
	return picked
}

// sortedMachineIDs returns alloc's machines sorted by descending GPU count
// then ascending ID, a deterministic order for greedy packing.
func sortedMachineIDs(alloc cluster.Alloc) []cluster.MachineID {
	ids := alloc.Machines()
	sort.Slice(ids, func(i, j int) bool {
		if alloc[ids[i]] != alloc[ids[j]] {
			return alloc[ids[i]] > alloc[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids
}

// machinesByFree returns the machines with free GPUs sorted by descending
// free count, then ascending ID.
func machinesByFree(free cluster.Alloc) []cluster.MachineID {
	ids := free.Machines()
	sort.Slice(ids, func(i, j int) bool {
		if free[ids[i]] != free[ids[j]] {
			return free[ids[i]] > free[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids
}

// randomPool draws a free vector and an anchor over topo's machines.
func randomPool(rng *rand.Rand, topo *cluster.Topology) (free, anchor cluster.Alloc) {
	free, anchor = cluster.NewAlloc(), cluster.NewAlloc()
	for m := 0; m < topo.NumMachines(); m++ {
		cap := topo.Machine(cluster.MachineID(m)).NumGPUs
		if rng.Intn(3) != 0 {
			free[cluster.MachineID(m)] = rng.Intn(cap + 1)
		}
		if rng.Intn(4) == 0 {
			anchor[cluster.MachineID(m)] = 1 + rng.Intn(cap)
		}
	}
	return free, anchor
}

// randomConstraint draws a non-zero constraint: a per-machine floor, a
// machine cap, a domain affinity or a flavor affinity, alone or combined.
func randomConstraint(rng *rand.Rand) Constraint {
	var c Constraint
	for c.IsZero() {
		if rng.Intn(2) == 0 {
			c.MinGPUsPerMachine = 2 + rng.Intn(2)
		}
		if rng.Intn(2) == 0 {
			c.MaxMachines = 1 + rng.Intn(3)
		}
		if rng.Intn(3) == 0 {
			c.Domain, c.HasDomain = cluster.DomainID(rng.Intn(2)), true
		}
		if rng.Intn(4) == 0 {
			c.Flavor = []cluster.GPUType{cluster.GPUTypeP100, cluster.GPUTypeK80}[rng.Intn(2)]
		}
	}
	return c
}

// samePick fails the test unless got and want hold the same GPUs per
// machine with no stored zeros in got.
func samePick(t *testing.T, what string, got, want cluster.Alloc) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s: Picker %v != reference %v", what, got, want)
	}
	for m, n := range got {
		if want[m] != n {
			t.Fatalf("%s: representation differs at machine %d", what, m)
		}
	}
}

// TestPickerMatchesPick pins a loaded Picker to the references bit-for-bit:
// same preference ladder, same sort tie-breaks, same constraint skips, for
// counts up to the whole pool, across a reused Picker whose scratch carries
// state between calls and several picks against one load.
func TestPickerMatchesPick(t *testing.T) {
	topo := multiDomainTopo(t)
	rng := rand.New(rand.NewSource(19))
	var p Picker
	dst := cluster.NewAlloc()
	for trial := 0; trial < 500; trial++ {
		free, anchor := randomPool(rng, topo)
		p.Load(topo, free)
		for k := 0; k < 3; k++ {
			count := rng.Intn(free.Total() + 2)
			what := fmt.Sprintf("trial %d pick %d (free=%v anchor=%v count=%d)", trial, k, free, anchor, count)
			samePick(t, what, p.Pick(dst, anchor, count), referencePick(topo, free, anchor, count))
			c := randomConstraint(rng)
			samePick(t, fmt.Sprintf("%s constrained %+v", what, c),
				p.PickConstrained(dst, anchor, count, c), referencePickConstrained(topo, free, anchor, count, c))
		}
		if got := Pick(topo, free, anchor, free.Total()); !got.Equal(referencePick(topo, free, anchor, free.Total())) {
			t.Fatalf("trial %d: package Pick %v differs from the reference", trial, got)
		}
	}
}

// poolOf returns what p's pool holds.
func poolOf(p *Picker) cluster.Alloc {
	out := cluster.NewAlloc()
	for _, s := range p.pool {
		out[s.m] = s.n
	}
	return out
}

// TestPickerLoadPickTake pins Take: a pool loaded once and drawn down by
// Take picks exactly what the references pick from the running remainder,
// whether the taken allocation came from a plain pick, a constrained pick
// or elsewhere.
func TestPickerLoadPickTake(t *testing.T) {
	topo := multiDomainTopo(t)
	rng := rand.New(rand.NewSource(23))
	var p Picker
	dst := cluster.NewAlloc()
	for trial := 0; trial < 300; trial++ {
		free, anchor := randomPool(rng, topo)
		remaining := free.Clone()
		p.Load(topo, free)
		for step := 0; remaining.Total() > 0; step++ {
			if rng.Intn(2) == 0 {
				anchor = cluster.NewAlloc()
			}
			count := 1 + rng.Intn(remaining.Total())
			what := fmt.Sprintf("trial %d step %d (remaining=%v anchor=%v count=%d)", trial, step, remaining, anchor, count)
			var got cluster.Alloc
			switch rng.Intn(3) {
			case 0:
				got = p.Pick(dst, anchor, count)
				samePick(t, what, got, referencePick(topo, remaining, anchor, count))
			case 1:
				c := randomConstraint(rng)
				got = p.PickConstrained(dst, anchor, count, c)
				samePick(t, fmt.Sprintf("%s constrained %+v", what, c), got, referencePickConstrained(topo, remaining, anchor, count, c))
			default:
				// Take something no pick chose: a few GPUs from the
				// lowest-numbered machines still holding some.
				got = cluster.NewAlloc()
				for _, m := range remaining.Machines() {
					if got.Total() < count {
						got[m] = 1 + rng.Intn(remaining[m])
					}
				}
			}
			p.Take(got)
			var err error
			if remaining, err = remaining.Sub(got); err != nil {
				t.Fatal(err)
			}
			if left := poolOf(&p); !left.Equal(remaining) {
				t.Fatalf("%s: pool %v after Take, want %v", what, left, remaining)
			}
			if got.Total() == 0 {
				break // a constrained pick found nothing; the pool is unchanged
			}
		}
	}
}

// TestPickerSteadyStateAllocs pins the point of the Picker: after warmup a
// load, a pick and a take allocate nothing.
func TestPickerSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	topo := multiDomainTopo(t)
	free := cluster.Alloc{0: 4, 1: 2, 4: 4, 5: 4}
	anchor := cluster.Alloc{0: 2}
	var p Picker
	dst := cluster.NewAlloc()
	run := func() {
		p.Load(topo, free)
		p.Take(p.Pick(dst, anchor, 6))
		p.Pick(dst, nil, 3)
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("Load+Pick+Take allocated %v times per run in steady state", allocs)
	}
}

// BenchmarkPicker measures the picker layer as one valuation round uses it
// on the paper's simulation cluster: the whole free pool loaded once, about
// 200 candidate picks against it (anchored on a bidder's existing GPUs for
// half of them), then one multi-job split of a candidate loaded as its own
// pool and drawn down job by job.
func BenchmarkPicker(b *testing.B) {
	topo := cluster.SimulationCluster()
	free := cluster.NewAlloc()
	for _, m := range topo.Machines() {
		free[m.ID] = m.NumGPUs
	}
	anchors := make([]cluster.Alloc, 20)
	for i := range anchors {
		anchors[i] = cluster.Alloc{cluster.MachineID(i * 4): 1 + i%2}
		if i%2 == 1 {
			anchors[i] = nil
		}
	}
	sizes := []int{1, 2, 4, 8, 16, 32, 64, 128, 192, 256}
	var offer, split Picker
	dst, job := cluster.NewAlloc(), cluster.NewAlloc()
	round := func() {
		offer.Load(topo, free)
		for _, a := range anchors {
			for _, n := range sizes {
				offer.Pick(dst, a, n)
			}
		}
		split.Load(topo, dst)
		for j := 0; j < 8; j++ {
			split.Take(split.Pick(job, nil, 24))
		}
	}
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
