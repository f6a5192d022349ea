package scenario

import (
	"fmt"

	tas "repro"
	"repro/internal/fastpath"
	"repro/internal/faultinject"
	"repro/internal/flowstate"
)

// Fault kinds: the three failure domains' harnesses.
const (
	FaultAppKill = "app-kill" // a workload context's application exits

	FaultSlowKill    = "slowpath-kill"    // crash the slow path
	FaultSlowStall   = "slowpath-stall"   // wedge the slow path for For
	FaultSlowPanic   = "slowpath-panic"   // contained panic in the control loop
	FaultSlowRestart = "slowpath-restart" // warm restart from shared state

	FaultCoreKill   = "core-kill"   // crash fast-path core Core (-1 = busiest)
	FaultCoreStall  = "core-stall"  // wedge core Core for For
	FaultCorePanic  = "core-panic"  // contained panic on core Core
	FaultCoreRevive = "core-revive" // relaunch a crashed core
)

// FaultEvent is one time-stamped fault-timeline entry. Entries must be
// ordered by At, and entries targeting the same unit (same target
// service, fault domain, and index) must not overlap in [At, At+For).
type FaultEvent struct {
	At     Duration `json:"at"`
	Kind   string   `json:"kind"`
	Target string   `json:"target,omitempty"` // "server" (default) or "clientK"
	App    int      `json:"app,omitempty"`    // workload worker index (app faults, client targets only)
	Core   int      `json:"core,omitempty"`   // core index (core faults; -1 = busiest at fire time)
	For    Duration `json:"for,omitempty"`    // stall duration
}

// faultKind is one fault kind: the failure domain whose unit it acts on
// ("app": a client's workload context, "slow": a service's slow path,
// "core": a fast-path core), whether it stalls that unit for For (every
// other kind is instantaneous and takes no For), and what it does when
// it fires on target.
type faultKind struct {
	domain  string
	stall   bool
	busiest bool // core -1 means the busiest core at fire time
	apply   func(r *run, f FaultEvent, target string) string
}

var faultKinds = map[string]faultKind{
	FaultAppKill: {domain: "app", apply: func(r *run, f FaultEvent, target string) string {
		r.onApp(target, f.App, func(ctx *tas.Context) { ctx.Kill() })
		return fmt.Sprintf("app %d killed", f.App)
	}},
	FaultSlowKill: {domain: "slow", apply: func(r *run, _ FaultEvent, target string) string {
		r.service(target).Slow().Kill()
		return "slow path killed"
	}},
	FaultSlowStall: {domain: "slow", stall: true, apply: func(r *run, f FaultEvent, target string) string {
		r.injector(r.service(target)).StallSlowPath(f.For.D())
		return fmt.Sprintf("slow path stalled %v", f.For.D())
	}},
	FaultSlowPanic: {domain: "slow", apply: func(r *run, _ FaultEvent, target string) string {
		r.injector(r.service(target)).PanicSlowPath()
		return "slow path panic injected"
	}},
	FaultSlowRestart: {domain: "slow", apply: func(r *run, _ FaultEvent, target string) string {
		st := r.service(target).Restart()
		return fmt.Sprintf("warm restart: %d flows readopted, %d aborted", st.FlowsReconstructed, st.FlowsAborted)
	}},
	FaultCoreKill: {domain: "core", busiest: true, apply: func(r *run, f FaultEvent, target string) string {
		svc, c := r.core(target, f.Core)
		svc.Engine().KillCore(c)
		return fmt.Sprintf("core %d killed", c)
	}},
	FaultCoreStall: {domain: "core", stall: true, busiest: true, apply: func(r *run, f FaultEvent, target string) string {
		svc, c := r.core(target, f.Core)
		r.injector(svc).StallCore(c, f.For.D())
		return fmt.Sprintf("core %d stalled %v", c, f.For.D())
	}},
	FaultCorePanic: {domain: "core", busiest: true, apply: func(r *run, f FaultEvent, target string) string {
		svc, c := r.core(target, f.Core)
		r.injector(svc).PanicCore(c)
		return fmt.Sprintf("core %d panic injected", c)
	}},
	FaultCoreRevive: {domain: "core", apply: func(r *run, f FaultEvent, target string) string {
		ok := r.service(target).ReviveCore(f.Core)
		return fmt.Sprintf("core %d revived (fresh=%v)", f.Core, ok)
	}},
}

func (s *Spec) validateFaults() error {
	var last Duration = -1
	busyUntil := make(map[string]Duration) // by unit: target/domain[index]
	for i, f := range s.Faults {
		field := func(sub string) string { return fmt.Sprintf("faults[%d].%s", i, sub) }
		if err := checkAt(field, f.At, &last, "timeline"); err != nil {
			return err
		}
		target := f.target()
		if !s.validHost(target) {
			return specErr(ErrOutOfRange, field("target"), "unknown target %q", target)
		}
		k, ok := faultKinds[f.Kind]
		if !ok {
			return specErr(ErrUnknownKind, field("kind"), "unknown fault kind %q", f.Kind)
		}
		index := 0
		switch k.domain {
		case "app":
			if target == "server" {
				return specErr(ErrBadSpec, field("target"),
					"app faults target client workload contexts; server handler contexts are dynamic")
			}
			if f.App < 0 || f.App >= s.Workload.Conns {
				return specErr(ErrOutOfRange, field("app"),
					"app %d outside the client's %d workload workers", f.App, s.Workload.Conns)
			}
			index = f.App
		case "core":
			cores := s.Topology.ServerCores
			if target != "server" {
				cores = s.Topology.ClientCores
			}
			if f.Core != -1 && (f.Core < 0 || f.Core >= cores) {
				return specErr(ErrOutOfRange, field("core"),
					"core %d outside %s's %d fast-path cores (-1 = busiest)", f.Core, target, cores)
			}
			if f.Core == -1 && !k.busiest {
				return specErr(ErrBadSpec, field("core"), "%s needs an explicit core index", f.Kind)
			}
			index = f.Core
		}

		if f.For < 0 {
			return specErr(ErrBadSpec, field("for"), "negative duration %v", f.For.D())
		}
		if k.stall && f.For == 0 {
			return specErr(ErrBadSpec, field("for"), "%s needs a positive duration", f.Kind)
		}
		if !k.stall && f.For != 0 {
			return specErr(ErrBadSpec, field("for"), "%s takes no duration", f.Kind)
		}

		unit := fmt.Sprintf("%s/%s[%d]", target, k.domain, index)
		if until, ok := busyUntil[unit]; ok && f.At < until {
			return specErr(ErrTimeline, field("at"), "overlaps the previous fault on %s (busy until %v)", unit, until.D())
		}
		busyUntil[unit] = f.At + max(f.For, 1) // instantaneous events still occupy their instant
	}
	return nil
}

// target is the fault's service: Target, or "server" when unset.
func (f FaultEvent) target() string {
	if f.Target == "" {
		return "server"
	}
	return f.Target
}

// faultEvent schedules one fault on its target.
func (r *run) faultEvent(f FaultEvent) schedEvent {
	target := f.target()
	return schedEvent{
		at: f.At.D(), end: f.At.D() + f.For.D(), kind: f.Kind, target: target,
		apply: func() string { return faultKinds[f.Kind].apply(r, f, target) },
	}
}

// onApp runs fn on client target's workload context app, if it has one.
func (r *run) onApp(target string, app int, fn func(ctx *tas.Context)) {
	k, _ := clientIndex(target)
	if ctx := r.slots[k][app].Load(); ctx != nil {
		fn(ctx)
	}
}

// core resolves a core fault's service and core index; -1 is the
// busiest core at fire time.
func (r *run) core(target string, c int) (*tas.Service, int) {
	svc := r.service(target)
	if c == -1 {
		c = victimCore(svc.Engine())
	}
	return svc, c
}

// victimCore returns the active core owning the most flows (ties to the
// lowest index): the deterministic resolution of Core == -1.
func victimCore(eng *fastpath.Engine) int {
	counts := make(map[int]int)
	eng.Table.ForEach(func(f *flowstate.Flow) {
		counts[eng.CoreForFlow(f)]++
	})
	victim, n := 0, -1
	for c, k := range counts {
		if k > n || (k == n && c < victim) {
			victim, n = c, k
		}
	}
	return victim
}

// injector returns svc's fault injector, attaching it to the engine's
// fault hook on first use (timeline events fire on one goroutine).
func (r *run) injector(svc *tas.Service) *faultinject.Injector {
	in := r.injectors[svc]
	if in == nil {
		in = faultinject.Attach(svc.Engine())
		r.injectors[svc] = in
	}
	return in
}
