package netsample

import (
	"math"
	"reflect"
	"testing"

	"flowrank/internal/dist"
	"flowrank/internal/invert"
	"flowrank/internal/tracegen"
)

// smallConfig is the shared reduced-scale workload of these tests.
func smallConfig(seed uint64) tracegen.Config {
	cfg := tracegen.SprintFiveTuple(20, seed)
	cfg.ArrivalRate = 300
	return cfg
}

func workload(t testing.TB, topo *Topology, seed uint64) []RoutedFlow {
	t.Helper()
	flows, err := GenerateWorkload(topo, smallConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) < 1000 {
		t.Fatalf("degenerate workload: %d flows", len(flows))
	}
	return flows
}

func TestTopologyValidation(t *testing.T) {
	sw := []Switch{{ID: "a", Budget: 1}, {ID: "b", Budget: 1}}
	cases := []struct {
		name     string
		switches []Switch
		links    []Link
	}{
		{"empty switch id", []Switch{{ID: "", Budget: 1}}, nil},
		{"duplicate switch", append(sw, Switch{ID: "a", Budget: 1}), nil},
		{"zero budget", []Switch{{ID: "a"}}, nil},
		{"unknown from", sw, []Link{{From: "x", To: "a"}}},
		{"unknown to", sw, []Link{{From: "a", To: "x"}}},
		{"self link", sw, []Link{{From: "a", To: "a"}}},
		{"duplicate link", sw, []Link{{From: "a", To: "b"}, {From: "a", To: "b"}}},
	}
	for _, c := range cases {
		if _, err := NewTopology(c.switches, c.links); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := NewTopology(sw, []Link{{From: "a", To: "b"}, {From: "b", To: "a"}}); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
}

func TestFatTreeRouting(t *testing.T) {
	topo := FatTree(1000)
	if got := len(topo.Switches()); got != 10 {
		t.Fatalf("fat tree has %d switches, want 10", got)
	}
	if got := len(topo.EdgeSwitches()); got != 4 {
		t.Fatalf("fat tree has %d edge switches, want 4", got)
	}
	// Intra-pod: 3 switches; inter-pod: 5; both deterministic.
	intra, err := topo.Route("edge0", "edge1")
	if err != nil || len(intra) != 3 {
		t.Fatalf("intra-pod route %v (%v), want 3 switches", intra, err)
	}
	inter, err := topo.Route("edge0", "edge2")
	if err != nil || len(inter) != 5 {
		t.Fatalf("inter-pod route %v (%v), want 5 switches", inter, err)
	}
	again, _ := topo.Route("edge0", "edge2")
	if !reflect.DeepEqual(inter, again) {
		t.Fatalf("routing not deterministic: %v vs %v", inter, again)
	}
	// Every consecutive hop must be a declared link.
	for i := 0; i+1 < len(inter); i++ {
		if !topo.HasLink(inter[i], inter[i+1]) {
			t.Errorf("route uses missing link %s>%s", inter[i], inter[i+1])
		}
	}
	if _, err := topo.Route("edge0", "nope"); err == nil {
		t.Error("route to unknown switch accepted")
	}
}

func TestGenerateWorkloadDeterministicAndRouted(t *testing.T) {
	topo := FatTree(1000)
	a := workload(t, topo, 11)
	b := workload(t, topo, 11)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds generated different workloads")
	}
	c := workload(t, topo, 12)
	if reflect.DeepEqual(a[:50], c[:50]) {
		t.Fatal("different seeds generated the same workload prefix")
	}
	if err := validateWorkload(topo, a); err != nil {
		t.Fatal(err)
	}
	// Both path lengths must occur, and ingress must differ from egress.
	lens := map[int]int{}
	for _, f := range a {
		lens[len(f.Path)]++
		if f.Path[0] == f.Path[len(f.Path)-1] {
			t.Fatalf("flow routed to its own ingress: %v", f.Path)
		}
	}
	if lens[3] == 0 || lens[5] == 0 {
		t.Fatalf("path length mix %v, want both intra-pod (3) and inter-pod (5)", lens)
	}
}

func TestObserveBuildsDemand(t *testing.T) {
	topo := FatTree(1000)
	flows := workload(t, topo, 21)
	d, err := Observe(topo, flows, 0.1, invert.EM{}, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := TrueDemand(topo, flows, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Links) != len(truth.Links) {
		t.Fatalf("observed %d links, truth has %d", len(d.Links), len(truth.Links))
	}
	for i, ls := range d.Links {
		tl := truth.Links[i]
		if ls.Link != tl.Link {
			t.Fatalf("link order mismatch: %s vs %s", ls.Link, tl.Link)
		}
		if ls.Dist == nil || !(ls.Flows > 0) {
			t.Fatalf("link %s: empty estimate %+v", ls.Link, ls)
		}
		if ls.Packets != tl.Packets {
			t.Errorf("link %s: observed packets %g, true %g (counters are exact)", ls.Link, ls.Packets, tl.Packets)
		}
		// The inverted flow count must land within 30% of the truth at a
		// 10% probe on these populations.
		if rel := math.Abs(ls.Flows-tl.Flows) / tl.Flows; rel > 0.3 {
			t.Errorf("link %s: inverted flow count %g vs true %g (rel err %.2f)", ls.Link, ls.Flows, tl.Flows, rel)
		}
	}
	// Demand is invariant to workload order: reverse the flows.
	rev := make([]RoutedFlow, len(flows))
	for i, f := range flows {
		rev[len(flows)-1-i] = f
	}
	d2, err := Observe(topo, rev, 0.1, invert.EM{}, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Links {
		if d.Links[i].Flows != d2.Links[i].Flows || d.Links[i].Mean() != d2.Links[i].Mean() {
			t.Fatalf("link %s: observation depends on flow enumeration order", d.Links[i].Link)
		}
	}
	if _, err := Observe(topo, flows, 0, invert.Naive{}, 10, 5); err == nil {
		t.Error("zero probe rate accepted")
	}
	if _, err := Observe(topo, flows, 0.1, nil, 10, 5); err == nil {
		t.Error("nil estimator accepted")
	}
}

// Mean is a test helper on LinkState.
func (ls LinkState) Mean() float64 {
	if ls.Dist == nil {
		return 0
	}
	return ls.Dist.Mean()
}

func TestSimulateDeterministicAndDedups(t *testing.T) {
	topo := FatTree(2000)
	flows := workload(t, topo, 31)
	d, err := TrueDemand(topo, flows, 10)
	if err != nil {
		t.Fatal(err)
	}
	d.Workers = 1
	for _, alloc := range []Allocator{Uniform{}, GreedyWaterfill{}, Coordinated{}} {
		a, err := alloc.Allocate(d)
		if err != nil {
			t.Fatalf("%s: %v", alloc.Name(), err)
		}
		r1, err := Simulate(topo, flows, a, 10, 2, 7)
		if err != nil {
			t.Fatalf("%s: %v", alloc.Name(), err)
		}
		r2, err := Simulate(topo, flows, a, 10, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("%s: simulation not deterministic", alloc.Name())
		}
		if !(r1.RankFrac > 0 && r1.RankFrac < 1) {
			t.Errorf("%s: implausible rank fraction %g", alloc.Name(), r1.RankFrac)
		}
		if !(r1.TopK > 0 && r1.TopK <= 1) {
			t.Errorf("%s: implausible top-k overlap %g", alloc.Name(), r1.TopK)
		}
		if r1.Pairs.Detection > r1.Pairs.Ranking {
			t.Errorf("%s: detection pairs %d above ranking pairs %d", alloc.Name(), r1.Pairs.Detection, r1.Pairs.Ranking)
		}
		// Budgets bind the expectation (see ExpectedSampled); a realized
		// run adds hash-partition skew — which flows land in a range —
		// and binomial noise. 25% headroom covers both at this scale.
		for sw, used := range r1.SampledPerSwitch {
			b, ok := topo.Switch(sw)
			if !ok {
				t.Fatalf("%s: sampled at unknown switch %s", alloc.Name(), sw)
			}
			if used > 1.25*b.Budget+3*math.Sqrt(b.Budget+1) {
				t.Errorf("%s: switch %s sampled %.0f packets, budget %.0f", alloc.Name(), sw, used, b.Budget)
			}
		}
	}
}

// TestCoordinatedSamplesEachFlowOnce pins the cSamp dedup: under a
// coordinated allocation with rate 1 everywhere (huge budgets), every
// flow's recovered estimate equals its true size exactly, on every link
// it traverses — one observation per flow, no double counting.
func TestCoordinatedSamplesEachFlowOnce(t *testing.T) {
	topo := FatTree(1e12)
	flows := workload(t, topo, 41)
	d, err := TrueDemand(topo, flows, 10)
	if err != nil {
		t.Fatal(err)
	}
	d.Workers = 1
	a, err := Coordinated{}.Allocate(d)
	if err != nil {
		t.Fatal(err)
	}
	for sw, r := range a.Rates {
		if r != 1 {
			t.Fatalf("switch %s rate %g, want 1 under unlimited budget", sw, r)
		}
	}
	res, err := Simulate(topo, flows, a, 10, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs.Ranking != 0 || res.TopK != 1 {
		t.Errorf("rate-1 coordinated run not exact: %d swapped pairs, top-k %g", res.Pairs.Ranking, res.TopK)
	}
}

func TestHashOwnershipFollowsShares(t *testing.T) {
	topo := FatTree(1000)
	flows := workload(t, topo, 51)
	// Even split: ownership must be spread across every monitor of the
	// longest paths roughly evenly.
	counts := map[string]int{}
	total := 0
	for _, f := range flows {
		if len(f.Path) != 5 {
			continue
		}
		monitors := Monitors(f.Path)
		shares := map[string]float64{}
		for _, sw := range monitors {
			shares[sw] = 1 / float64(len(monitors))
		}
		counts[ownerOf(f, shares)]++
		total++
	}
	if total < 500 {
		t.Fatalf("only %d inter-pod flows", total)
	}
	for sw, n := range counts {
		frac := float64(n) / float64(total)
		if frac < 0.05 {
			t.Errorf("monitor %s owns %.1f%% of evenly split flows", sw, frac*100)
		}
	}
	// Concentrated shares own everything.
	f := flows[0]
	all := map[string]float64{Monitors(f.Path)[len(Monitors(f.Path))-1]: 1}
	if got := ownerOf(f, all); got != Monitors(f.Path)[len(Monitors(f.Path))-1] {
		t.Errorf("concentrated share ignored: owner %s", got)
	}
}

// TestGenerateDynamicWorkload: the churn preset's routed bins are
// deterministic, individually valid, and actually drift — the per-path
// packet shares move bin to bin, which is the whole point of re-running
// the allocation.
func TestGenerateDynamicWorkload(t *testing.T) {
	topo := FatTree(1000)
	dc := tracegen.DynamicConfig{Base: smallConfig(81), Bins: 4, Preset: tracegen.PresetChurn}
	dc.Base.Duration = 5
	bins, err := GenerateDynamicWorkload(topo, dc)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != dc.Bins {
		t.Fatalf("%d bins, want %d", len(bins), dc.Bins)
	}
	again, err := GenerateDynamicWorkload(topo, dc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bins, again) {
		t.Fatal("dynamic workload not deterministic")
	}
	// Per-path packet shares per bin.
	shares := make([]map[string]float64, len(bins))
	for b, flows := range bins {
		if len(flows) < 200 {
			t.Fatalf("bin %d degenerate: %d flows", b, len(flows))
		}
		if err := validateWorkload(topo, flows); err != nil {
			t.Fatalf("bin %d: %v", b, err)
		}
		total := 0.0
		sh := map[string]float64{}
		for _, f := range flows {
			p := float64(f.Record.Packets)
			sh[PathKey(f.Path)] += p
			total += p
		}
		for k := range sh {
			sh[k] /= total
		}
		shares[b] = sh
	}
	// Churn must move the demand: the L1 distance between consecutive
	// bins' path-share vectors is macroscopic.
	for b := 1; b < len(shares); b++ {
		var l1 float64
		for k, v := range shares[b] {
			l1 += math.Abs(v - shares[b-1][k])
		}
		for k, v := range shares[b-1] {
			if _, ok := shares[b][k]; !ok {
				l1 += v
			}
		}
		if l1 < 0.1 {
			t.Errorf("bins %d->%d: path demand barely moved (L1 %.3f)", b-1, b, l1)
		}
	}
	// Invalid configurations are rejected.
	bad := dc
	bad.Bins = 0
	if _, err := GenerateDynamicWorkload(topo, bad); err == nil {
		t.Error("zero-bin dynamic workload accepted")
	}
}

// TestOwnerOfFallsToPositiveShare is the regression test for the hash-
// owner fallthrough: when float accumulation leaves the shares summing to
// 1-eps and the flow's hash point lands in the lost [1-eps, 1) sliver,
// the owner must be the last positive-share monitor in path order — never
// a zero-share monitor, whose budgeted rate assumed it owns nothing.
func TestOwnerOfFallsToPositiveShare(t *testing.T) {
	const eps = 1e-3
	// Find a flow key hashing into the sliver the shares fail to cover.
	var f RoutedFlow
	f.Path = []string{"a", "b", "c", "d"}
	found := false
	for i := 0; i < 2_000_000; i++ {
		f.Record.Key.SrcPort = uint16(i)
		f.Record.Key.DstPort = uint16(i >> 16)
		f.Record.Key.Src[0] = byte(i >> 24)
		if hashUnit(f.Record.Key) >= 1-eps/2 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no key hashing into the top sliver")
	}
	// Monitors a, b, c: a owns nothing, shares sum to 1-eps.
	shares := map[string]float64{"a": 0, "b": 0.6, "c": 0.4 - eps}
	if got := ownerOf(f, shares); got != "c" {
		t.Errorf("sliver flow owned by %q, want last positive-share monitor \"c\"", got)
	}
	// All-zero shares keep the documented first-monitor fallback.
	if got := ownerOf(f, map[string]float64{}); got != "a" {
		t.Errorf("zero-share fallback owner %q, want \"a\"", got)
	}
	// Interval lookups are untouched: a point inside b's range stays b's.
	var g RoutedFlow
	g.Path = f.Path
	for i := 0; i < 2_000_000; i++ {
		g.Record.Key.SrcPort = uint16(i)
		g.Record.Key.DstPort = uint16(i >> 16)
		g.Record.Key.Src[0] = byte(i >> 24)
		u := hashUnit(g.Record.Key)
		if u > 0.1 && u < 0.5 {
			break
		}
	}
	if got := ownerOf(g, shares); got != "b" {
		t.Errorf("mid-range flow owned by %q, want \"b\"", got)
	}
}

func TestTrueDemandMatchesWorkload(t *testing.T) {
	topo := FatTree(1000)
	flows := workload(t, topo, 61)
	d, err := TrueDemand(topo, flows, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Total path flows must equal the workload size.
	var pathFlows int
	for _, p := range d.Paths {
		pathFlows += p.Flows
	}
	if pathFlows != len(flows) {
		t.Errorf("path stats cover %d flows, workload has %d", pathFlows, len(flows))
	}
	// Each link's packets must equal the sum over its flows.
	want := map[string]float64{}
	for _, f := range flows {
		for h := 0; h+1 < len(f.Path); h++ {
			want[Link{From: f.Path[h], To: f.Path[h+1]}.ID()] += float64(f.Record.Packets)
		}
	}
	for _, ls := range d.Links {
		if ls.Packets != want[ls.Link] {
			t.Errorf("link %s packets %g, want %g", ls.Link, ls.Packets, want[ls.Link])
		}
	}
	_ = dist.SizeDist(d.Links[0].Dist)
}
