package core_test

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/flow"
	"repro/internal/lifetime"
	"repro/internal/netbuild"
	"repro/internal/workload"
)

// TestPreparedMatchesColdAllocate sweeps register counts and cost models
// through one Prepared problem and checks every solve against a fresh cold
// allocation: identical energies, counts and feasibility. This is the
// warm-vs-cold contract the sweep package relies on.
func TestPreparedMatchesColdAllocate(t *testing.T) {
	set := workload.Figure1()
	h := energy.ConstHamming(0.5)
	for _, mem := range []lifetime.MemoryAccess{lifetime.FullSpeed, {Period: 2, Offset: 2}} {
		opts := core.Options{
			Memory: mem,
			Style:  netbuild.DensityRegions,
			Cost:   staticCO(),
		}
		pre, err := core.Prepare(set, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, co := range []netbuild.CostOptions{staticCO(), activityCO(h)} {
			for regs := 0; regs <= 4; regs++ {
				warm, errW := pre.Allocate(regs, co)
				coldOpts := opts
				coldOpts.Registers = regs
				coldOpts.Cost = co
				cold, errC := core.Allocate(set, coldOpts)
				if (errW == nil) != (errC == nil) {
					t.Fatalf("mem=%+v co=%v R=%d: warm err %v, cold err %v", mem, co.Style, regs, errW, errC)
				}
				if errW != nil {
					continue
				}
				if math.Abs(warm.TotalEnergy-cold.TotalEnergy) > 1e-9 {
					t.Errorf("mem=%+v co=%v R=%d: warm energy %g, cold %g",
						mem, co.Style, regs, warm.TotalEnergy, cold.TotalEnergy)
				}
				if warm.Solution.Cost != cold.Solution.Cost {
					t.Errorf("mem=%+v co=%v R=%d: warm objective %d, cold %d",
						mem, co.Style, regs, warm.Solution.Cost, cold.Solution.Cost)
				}
				if warm.BaselineEnergy != cold.BaselineEnergy {
					t.Errorf("mem=%+v co=%v R=%d: baselines differ: %g vs %g",
						mem, co.Style, regs, warm.BaselineEnergy, cold.BaselineEnergy)
				}
				if err := warm.Validate(); err != nil {
					t.Errorf("mem=%+v co=%v R=%d: warm result invalid: %v", mem, co.Style, regs, err)
				}
			}
		}
	}
}

// TestPreparedMatchesCycleCancelling cross-checks the warm-started optimum
// against the independent cold-start cycle-cancelling engine on every cell
// of a register × cost-model grid — the paper's optimality guarantee must
// survive the warm start.
func TestPreparedMatchesCycleCancelling(t *testing.T) {
	set := workload.Figure1()
	opts := core.Options{Style: netbuild.DensityRegions, Cost: staticCO()}
	pre, err := core.Prepare(set, opts)
	if err != nil {
		t.Fatal(err)
	}
	ccOpts := opts
	ccOpts.Engine = "cyclecancel"
	for _, co := range []netbuild.CostOptions{staticCO(), activityCO(energy.ConstHamming(0.3))} {
		for regs := 0; regs <= 4; regs++ {
			warm, errW := pre.Allocate(regs, co)
			ccOpts.Registers = regs
			ccOpts.Cost = co
			cc, errC := core.Allocate(set, ccOpts)
			if (errW == nil) != (errC == nil) {
				t.Fatalf("co=%v R=%d: warm err %v, cyclecancel err %v", co.Style, regs, errW, errC)
			}
			if errW != nil {
				continue
			}
			if warm.Solution.Cost != cc.Solution.Cost {
				t.Errorf("co=%v R=%d: warm objective %d, cyclecancel %d",
					co.Style, regs, warm.Solution.Cost, cc.Solution.Cost)
			}
		}
	}
}

// TestPreparedWarmStartObserved: repeating a register count must hit the
// solver's warm path, and repeating the same cost model must eventually
// reuse potentials.
func TestPreparedWarmStartObserved(t *testing.T) {
	set := workload.Figure1()
	pre, err := core.Prepare(set, core.Options{Style: netbuild.DensityRegions, Cost: staticCO()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pre.Allocate(2, staticCO()); err != nil {
		t.Fatal(err)
	}
	res, err := pre.Allocate(2, staticCO())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Solver.WarmStart {
		t.Error("second identical solve did not warm-start")
	}
	if !res.Stats.Solver.PotentialsReused {
		t.Error("second identical solve re-initialised potentials")
	}
	// Changing R only moves the super-arc capacities: the prepared topology
	// is patched, not rebuilt, and the solve still counts as warm.
	res3, err := pre.Allocate(3, staticCO())
	if err != nil {
		t.Fatal(err)
	}
	if !res3.Stats.Solver.WarmStart {
		t.Error("register-count change fell back to a cold prepare")
	}
}

// TestPreparedInfeasible: infeasibility (forced residences beyond R) must
// surface identically through the warm path.
func TestPreparedInfeasible(t *testing.T) {
	set := workload.Figure1()
	pre, err := core.Prepare(set, core.Options{
		Memory: lifetime.MemoryAccess{Period: 8, Offset: 8},
		Style:  netbuild.DensityRegions,
		Cost:   staticCO(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pre.Allocate(0, staticCO()); !errors.Is(err, flow.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	// A later feasible cell on the same Prepared must still solve.
	if _, err := pre.Allocate(6, staticCO()); err != nil {
		t.Fatalf("feasible cell after infeasible one: %v", err)
	}
}

// TestPreparedValidation rejects bad inputs.
func TestPreparedValidation(t *testing.T) {
	set := workload.Figure1()
	pre, err := core.Prepare(set, core.Options{Style: netbuild.DensityRegions, Cost: staticCO()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pre.Allocate(-1, staticCO()); err == nil {
		t.Error("negative register count accepted")
	}
	if _, err := pre.Allocate(2, netbuild.CostOptions{Style: energy.Activity, Model: energy.OnChip256x16()}); err == nil {
		t.Error("activity cost model without an oracle accepted")
	}
	if _, err := core.Prepare(set, core.Options{Registers: -1, Cost: staticCO()}); err == nil {
		t.Error("invalid pipeline options accepted")
	}
}

// TestDecodeSolutionMatchesAllocate: a solve of the template's network run
// outside the Prepared and decoded with DecodeSolution (the benchmark's
// traced replay does exactly this) must give the flows and the decoded
// result of Prepared.Allocate.
func TestDecodeSolutionMatchesAllocate(t *testing.T) {
	co := staticCO()
	opts := core.Options{Style: netbuild.DensityRegions, Cost: co}
	for i, set := range []*lifetime.Set{workload.Figure1(), workload.Figure3()} {
		pre, err := core.Prepare(set, opts)
		if err != nil {
			t.Fatalf("set %d: prepare: %v", i, err)
		}
		ref, err := core.Prepare(set, opts)
		if err != nil {
			t.Fatalf("set %d: reference prepare: %v", i, err)
		}
		costs, baseline, err := pre.Template().CostVector(co)
		if err != nil {
			t.Fatalf("set %d: cost vector: %v", i, err)
		}
		b := pre.Template().Build
		sc := flow.NewScratch()
		for regs := 1; regs <= 3; regs++ {
			sol, sst, err := b.Net.MinCostFlowValueWithCosts(flow.SSP, costs, sc, b.S, b.T, int64(regs))
			if err != nil {
				t.Fatalf("set %d R=%d: solve: %v", i, regs, err)
			}
			got, err := pre.DecodeSolution(regs, co, baseline, sol, sst)
			if err != nil {
				t.Fatalf("set %d R=%d: decode: %v", i, regs, err)
			}
			want, err := ref.Allocate(regs, co)
			if err != nil {
				t.Fatalf("set %d R=%d: allocate: %v", i, regs, err)
			}
			if !reflect.DeepEqual(sol.FlowByArc, want.Solution.FlowByArc) {
				t.Fatalf("set %d R=%d: flows differ from Allocate", i, regs)
			}
			if got.TotalEnergy != want.TotalEnergy || got.RegistersUsed != want.RegistersUsed ||
				got.MemoryLocations != want.MemoryLocations {
				t.Fatalf("set %d R=%d: decoded %g/%d/%d, Allocate %g/%d/%d", i, regs,
					got.TotalEnergy, got.RegistersUsed, got.MemoryLocations,
					want.TotalEnergy, want.RegistersUsed, want.MemoryLocations)
			}
			if !reflect.DeepEqual(got.InRegister, want.InRegister) || !reflect.DeepEqual(got.RegOf, want.RegOf) {
				t.Fatalf("set %d R=%d: decoded residences differ from Allocate", i, regs)
			}
			if got.Stats.Solver != *sst {
				t.Fatalf("set %d R=%d: solver stats %+v, want %+v", i, regs, got.Stats.Solver, *sst)
			}
		}
	}
}
