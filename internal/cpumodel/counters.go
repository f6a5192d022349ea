package cpumodel

// Breakdown is a top-down cycle decomposition (Yasin's method, as the
// paper's Table 2): cycles retiring instructions, blocked on instruction
// fetch (frontend bound), blocked on data (backend bound), and wasted on
// bad speculation.
type Breakdown struct {
	Retiring float64
	Frontend float64
	Backend  float64
	BadSpec  float64
}

// Total returns the sum of the four categories.
func (b Breakdown) Total() float64 { return b.Retiring + b.Frontend + b.Backend + b.BadSpec }

// Scale returns the breakdown multiplied by f.
func (b Breakdown) Scale(f float64) Breakdown {
	return Breakdown{b.Retiring * f, b.Frontend * f, b.Backend * f, b.BadSpec * f}
}

// topDownShape gives each stack's characteristic distribution of cycles
// across top-down categories, for the application side and the stack
// side, normalized from the paper's Table 2 measurements. A monolithic
// stack is dominated by backend stalls (scattered state) with a heavy
// frontend component (huge instruction footprint); streamlined stacks
// retire a far larger fraction.
func topDownShape(k StackKind) (app, stack Breakdown) {
	switch k {
	case StackLinux:
		// Table 2 Linux: app 175/173/388/141, stack 3591/2600/9046/515.
		return Breakdown{175, 173, 388, 141}, Breakdown{3591, 2600, 9046, 515}
	case StackIX:
		// Table 2 IX: app 190/121/402/48, stack 753/175/1005/52.
		return Breakdown{190, 121, 402, 48}, Breakdown{753, 175, 1005, 52}
	case StackMTCP:
		// Not measured in the paper; between IX and Linux, skewed to
		// backend (batched queue traversal).
		return Breakdown{190, 140, 420, 60}, Breakdown{1400, 600, 2600, 160}
	case StackTAS, StackTASLL:
		// Table 2 TAS: app 167/102/353/63, stack 848/248/684/129.
		return Breakdown{167, 102, 353, 63}, Breakdown{848, 248, 684, 129}
	}
	panic("cpumodel: unknown stack")
}

// PerRequestBreakdown scales the stack's characteristic top-down shape
// to the actual measured per-request cycles (appCycles in the
// application, stackCycles in the stack), yielding a Table 2 row.
func PerRequestBreakdown(k StackKind, appCycles, stackCycles float64) (app, stack Breakdown) {
	aShape, sShape := topDownShape(k)
	if t := aShape.Total(); t > 0 {
		app = aShape.Scale(appCycles / t)
	}
	if t := sShape.Total(); t > 0 {
		stack = sShape.Scale(stackCycles / t)
	}
	return app, stack
}

// CPI returns cycles per instruction.
func CPI(totalCycles, instructions float64) float64 {
	if instructions == 0 {
		return 0
	}
	return totalCycles / instructions
}
