package lowenergy_test

import (
	"strings"
	"testing"

	lowenergy "repro"
)

const chainSource = `
task dsp
block prep
in a b c
s = a + b
t = s * c
u = t - a
out u t
end
block use
in u t
v = u * t
w = v + u
out w
end
`

func TestSimulateThroughPublicAPI(t *testing.T) {
	prog, err := lowenergy.ParseProgramString(chainSource)
	if err != nil {
		t.Fatal(err)
	}
	block := prog.Tasks[0].Blocks[0]
	s, err := lowenergy.ScheduleBlock(block, lowenergy.Resources{ALUs: 1, Multipliers: 1})
	if err != nil {
		t.Fatal(err)
	}
	set, err := lowenergy.Lifetimes(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lowenergy.Allocate(set, lowenergy.Options{
		Registers: 2, Memory: lowenergy.FullSpeedMemory,
		Style: lowenergy.GraphDensityRegions, Cost: lowenergy.StaticCost(lowenergy.DefaultModel()),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := lowenergy.Simulate(s, res, map[string]lowenergy.Word{"a": 2, "b": 3, "c": 4})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Outputs["t"] != (2+3)*4 {
		t.Fatalf("t = %d", tr.Outputs["t"])
	}
	if tr.Counts != res.Counts {
		t.Fatalf("simulated counts %+v != tally %+v", tr.Counts, res.Counts)
	}
}

func TestRunProgramThroughPublicAPI(t *testing.T) {
	prog, err := lowenergy.ParseProgramString(chainSource)
	if err != nil {
		t.Fatal(err)
	}
	if err := lowenergy.CheckProgramDataflow(prog, true); err != nil {
		t.Fatal(err)
	}
	// Block use reads prep's outputs, but prep's own inputs come from outside
	// the program, which strict mode rejects.
	if err := lowenergy.CheckProgramDataflow(prog, false); err == nil || !strings.HasPrefix(err.Error(), "pipeline: ") {
		t.Fatalf("strict dataflow check: got %v, want a pipeline: error for program inputs a, b, c", err)
	}
	res, err := lowenergy.RunProgram(prog, lowenergy.PipelineConfig{
		Resources: lowenergy.Resources{ALUs: 1, Multipliers: 1},
		Options: lowenergy.Options{
			Registers: 2, Memory: lowenergy.FullSpeedMemory,
			Style: lowenergy.GraphDensityRegions, Cost: lowenergy.StaticCost(lowenergy.DefaultModel()),
		},
		AllowExternalInputs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 2 || res.TotalEnergy <= 0 {
		t.Fatalf("pipeline result %+v", res)
	}
}

func TestRegenerateThroughPublicAPI(t *testing.T) {
	prog, err := lowenergy.ParseProgramString(`
block lc
in a b
t = a + b
u0 = t * a
u1 = u0 + a
u2 = u1 + b
u3 = u2 + a
u4 = u3 + t
out u4
end`)
	if err != nil {
		t.Fatal(err)
	}
	b := prog.Tasks[0].Blocks[0]
	out, decisions, err := lowenergy.Regenerate(b, lowenergy.RegenOptions{Model: lowenergy.DefaultModel()})
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) == 0 {
		t.Fatal("no regeneration candidates found")
	}
	ref, _ := lowenergy.Evaluate(b, map[string]lowenergy.Word{"a": 5, "b": 7})
	got, _ := lowenergy.Evaluate(out, map[string]lowenergy.Word{"a": 5, "b": 7})
	if ref["u4"] != got["u4"] {
		t.Fatalf("semantics changed: %d vs %d", ref["u4"], got["u4"])
	}
}

func TestOffsetAssignmentThroughPublicAPI(t *testing.T) {
	prog, err := lowenergy.ParseProgramString(chainSource)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lowenergy.AllocateBlock(prog.Tasks[0].Blocks[0], lowenergy.Resources{ALUs: 1, Multipliers: 1},
		lowenergy.Options{
			Registers: 0, Memory: lowenergy.FullSpeedMemory,
			Style: lowenergy.GraphDensityRegions, Cost: lowenergy.StaticCost(lowenergy.DefaultModel()),
		})
	if err != nil {
		t.Fatal(err)
	}
	seq := lowenergy.MemoryAccessSequence(res)
	if len(seq) == 0 {
		t.Fatal("empty access sequence with everything in memory")
	}
	soa, err := lowenergy.AssignOffsets(seq)
	if err != nil {
		t.Fatal(err)
	}
	goa, err := lowenergy.AssignOffsetsGeneral(seq, 2)
	if err != nil {
		t.Fatal(err)
	}
	if goa.ExplicitUpdates > soa.ExplicitUpdates {
		t.Fatalf("GOA(2) worse than SOA: %d vs %d", goa.ExplicitUpdates, soa.ExplicitUpdates)
	}
}

func TestAllocateWithPortsThroughPublicAPI(t *testing.T) {
	prog, err := lowenergy.ParseProgramString(chainSource)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := lowenergy.ScheduleBlock(prog.Tasks[0].Blocks[0], lowenergy.Resources{ALUs: 2, Multipliers: 2})
	set, _ := lowenergy.Lifetimes(s)
	res, err := lowenergy.AllocateWithPorts(set, lowenergy.Options{
		Registers: 3, Memory: lowenergy.FullSpeedMemory,
		Style: lowenergy.GraphDensityRegions, Cost: lowenergy.StaticCost(lowenergy.DefaultModel()),
	}, lowenergy.PortLimits{MemTotal: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ports.MemTotalPorts > 1 {
		t.Fatalf("total memory ports %d after limit 1", res.Ports.MemTotalPorts)
	}
}
