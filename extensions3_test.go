package repro

import (
	"strings"
	"testing"
)

// Facade tests for the integration wave: the assembled machine,
// deflection routing, necklaces, soft channels, export formats.

func TestFacadeMachine(t *testing.T) {
	var m *OpticalMachine
	m, err := BuildMachine(2, 8, DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	report, err := m.Audit()
	if err != nil {
		t.Fatalf("%v\n%s", err, report)
	}
	if m.Nodes() != 256 || m.Lenses() != 48 {
		t.Error("machine shape wrong")
	}
	res, err := m.RunOpts(BroadcastLoad(0))
	if err != nil || res.Delivered != 255 {
		t.Errorf("broadcast: %v %v", res, err)
	}
	path := m.Route(0, 255)
	if len(path)-1 > 8 {
		t.Errorf("route too long: %v", path)
	}
}

func TestFacadeDeflection(t *testing.T) {
	g := DeBruijn(2, 5)
	nw, err := NewNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	var dn *DeflectionNetwork
	dn, err = NewDeflection(nw)
	if err != nil {
		t.Fatal(err)
	}
	var res DeflectionResult = dn.Run(UniformLoad(200).Packets(g.N(), 13))
	if res.Delivered != 200 {
		t.Fatalf("deflection: %v", res)
	}
}

func TestFacadeNecklaces(t *testing.T) {
	cycles := NecklaceCycles(2, 5)
	if len(cycles) != NecklaceCount(2, 5) {
		t.Error("necklace count mismatch")
	}
	if err := VerifyNecklaceFactor(2, 5, cycles); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSoftChannel(t *testing.T) {
	code := NASACode()
	msg := []byte{1, 0, 1, 1, 0, 0, 1, 0}
	enc, _ := code.Encode(msg)
	soft := make([]float64, len(enc))
	for i, b := range enc {
		soft[i] = 1 - 2*float64(b)
	}
	dec, err := code.DecodeSoft(soft)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(msg) {
		t.Error("soft decode length wrong")
	}
	if got := HardSlice(soft); len(got) != len(enc) {
		t.Error("hard slice length wrong")
	}
}

func TestFacadeExports(t *testing.T) {
	var sb strings.Builder
	if err := DeBruijn(2, 2).WriteDOT(&sb, "b22", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "digraph") {
		t.Error("DOT export broken")
	}
	bench, _ := NewBench(4, 8, DefaultPitch)
	sb.Reset()
	if err := bench.WriteSVG(&sb, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<svg") {
		t.Error("SVG export broken")
	}
	if bench.ToleranceReport() == "" {
		t.Error("tolerance report empty")
	}
}

func TestFacadeAnalysisHelpers(t *testing.T) {
	maxII, maxRRK := DiameterGain(2, 5)
	if maxII != 48 || maxRRK != 32 {
		t.Errorf("DiameterGain = (%d,%d), want (48,32)", maxII, maxRRK)
	}
	d, err := Diffract(mustBench(t), DefaultWavelength)
	if err != nil || !d.Feasible {
		t.Errorf("diffraction: %+v %v", d, err)
	}
	if MaxFeasibleEvenDiameter(2, DefaultPitch, DefaultWavelength) < 8 {
		t.Error("feasible diameter too small")
	}
	if RayleighRange(DefaultPitch, DefaultWavelength) <= 0 {
		t.Error("Rayleigh range")
	}
	rows := SearchDegreeDiameterParallel(2, 4, 16, 31, 2)
	if len(rows) == 0 {
		t.Error("parallel search empty")
	}
	p, err := PermParse(4, "(0 1 2 3)")
	if err != nil || !p.IsCyclic() {
		t.Error("PermParse broken")
	}
	a1, _ := NewAlpha(CyclicShiftPerm(4), IdentityPerm(2), 0)
	a2, _ := NewAlpha(p, ComplementPerm(2), 2)
	if _, err := AlphaIsoBetween(a1, a2); err != nil {
		t.Errorf("AlphaIsoBetween: %v", err)
	}
}

func mustBench(t *testing.T) *Bench {
	t.Helper()
	b, err := NewBench(16, 32, DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFacadePlanMachine(t *testing.T) {
	var plan MachinePlan
	plan, ok := PlanMachine(2, 300)
	if !ok || plan.Nodes != 256 {
		t.Errorf("plan = %+v ok=%v", plan, ok)
	}
	m, err := PlanAndBuildMachine(3, 30, DefaultPitch)
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 27 {
		t.Errorf("built %d nodes", m.Nodes())
	}
}
