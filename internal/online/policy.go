package online

import "fmt"

// Admission selects the slot an arriving request is placed into. All
// policies only ever place a request where the slot's full SINR
// constraints keep holding (Tracker.CanAdd); they differ in which of the
// feasible slots they prefer, which drives fragmentation and therefore the
// schedule length under churn.
type Admission int

const (
	// FirstFit scans the slots in index order and takes the first feasible
	// one — the online counterpart of the batch greedy coloring: replaying
	// arrivals in longest-first order reproduces GreedyFirstFit exactly.
	FirstFit Admission = iota
	// BestFit takes the feasible slot where the request lands with the
	// least SINR headroom (the smallest admission margin), packing slots
	// tightly and keeping loose slots open for hard requests.
	BestFit
	// PowerFit prefers feasible slots whose members are all at least as
	// long as the arrival — the longest-first discipline of the paper's
	// square-root assignment, maintained per slot under online arrivals —
	// and falls back to first-fit among the remaining feasible slots.
	PowerFit
)

// String returns the CLI name of the policy.
func (a Admission) String() string {
	switch a {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	case PowerFit:
		return "power-fit"
	default:
		return fmt.Sprintf("Admission(%d)", int(a))
	}
}

// Admissions returns all admission policies, in CLI-name order.
func Admissions() []Admission { return []Admission{BestFit, FirstFit, PowerFit} }

// ParseAdmission resolves the textual policy names used by the CLIs and
// the solver options. The empty string means the default (first-fit).
func ParseAdmission(s string) (Admission, error) {
	switch s {
	case "", "first-fit":
		return FirstFit, nil
	case "best-fit":
		return BestFit, nil
	case "power-fit":
		return PowerFit, nil
	default:
		return 0, fmt.Errorf("online: unknown admission policy %q (want first-fit, best-fit, or power-fit)", s)
	}
}

// Repair selects what the engine does after a departure to win back slots
// that churn has emptied out or fragmented.
type Repair int

const (
	// LazyRepair does the minimum: trailing empty slots are trimmed (their
	// trackers recycled), interior empty slots stay and are refilled by
	// later arrivals. No request ever migrates.
	LazyRepair Repair = iota
	// ThresholdRepair compacts — deletes empty slots and tries to dissolve
	// the smallest remaining ones by migrating their members — but only
	// once at least a quarter of the slots are empty, amortizing the
	// migration work over many departures.
	ThresholdRepair
	// EagerRepair compacts after every departure, keeping the schedule as
	// short as migrations can make it at the cost of the highest per-event
	// work.
	EagerRepair
)

// compactThreshold is the empty-slot fraction at which ThresholdRepair
// compacts.
const compactThreshold = 0.25

// String returns the CLI name of the strategy.
func (r Repair) String() string {
	switch r {
	case LazyRepair:
		return "lazy"
	case ThresholdRepair:
		return "threshold"
	case EagerRepair:
		return "eager"
	default:
		return fmt.Sprintf("Repair(%d)", int(r))
	}
}

// Repairs returns all repair strategies, in CLI-name order.
func Repairs() []Repair { return []Repair{EagerRepair, LazyRepair, ThresholdRepair} }

// ParseRepair resolves the textual strategy names used by the CLIs and the
// solver options. The empty string means the default (lazy).
func ParseRepair(s string) (Repair, error) {
	switch s {
	case "", "lazy":
		return LazyRepair, nil
	case "threshold":
		return ThresholdRepair, nil
	case "eager":
		return EagerRepair, nil
	default:
		return 0, fmt.Errorf("online: unknown repair strategy %q (want lazy, threshold, or eager)", s)
	}
}
