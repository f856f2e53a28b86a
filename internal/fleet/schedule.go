package fleet

import (
	"powerfail/internal/obs"
	"powerfail/internal/sim"
)

// Target is anything a fault schedule can cut and restore: a domain-tree
// Node, or the classic platform's Arduino-driven PSU behind an adapter.
type Target interface {
	Name() string
	Cut()
	Restore()
}

// Schedule is the reusable per-target cut/restore bookkeeping shared by
// the single-PSU FaultScheduler and the fleet's multi-domain fault plan.
// It keeps one command history per target plus the totals the classic
// Report.Cuts/Restores fields expose, so multi-domain scheduling never
// duplicates (or diverges from) the accounting the single-PSU path uses.
type Schedule struct {
	targets  []Target
	cuts     []int
	restores []int

	totalCuts     int
	totalRestores int

	obsSc   obs.Scope
	obsCuts *obs.Counter
	obsRest *obs.Counter
	now     func() sim.Time
}

// NewSchedule starts an empty schedule.
func NewSchedule() *Schedule { return &Schedule{} }

// Add registers a target and returns its id for Cut/Restore calls.
func (s *Schedule) Add(t Target) int {
	s.targets = append(s.targets, t)
	s.cuts = append(s.cuts, 0)
	s.restores = append(s.restores, 0)
	return len(s.targets) - 1
}

// Target returns the registered target with id i.
func (s *Schedule) Target(i int) Target { return s.targets[i] }

// Observe records every cut/restore command into sc (counters plus one
// KindPower trace event per edge, named after the target). The clock
// comes from now because the schedule itself is kernel-agnostic.
func (s *Schedule) Observe(sc obs.Scope, now func() sim.Time) {
	if !sc.Enabled() || now == nil {
		return
	}
	s.obsSc = sc
	s.obsCuts = sc.Counter("cuts")
	s.obsRest = sc.Counter("restores")
	s.now = now
}

// Cut commands target i off, counting the command per target and in total.
func (s *Schedule) Cut(i int) {
	s.cuts[i]++
	s.totalCuts++
	s.obsCuts.Inc()
	if s.now != nil {
		s.obsSc.Instant(s.now(), obs.KindPower, s.targets[i].Name(), 1)
	}
	s.targets[i].Cut()
}

// Restore commands target i back on.
func (s *Schedule) Restore(i int) {
	s.restores[i]++
	s.totalRestores++
	s.obsRest.Inc()
	if s.now != nil {
		s.obsSc.Instant(s.now(), obs.KindPower, s.targets[i].Name(), 0)
	}
	s.targets[i].Restore()
}

// Cuts returns the total cut commands across every target — the semantics
// Report.Cuts has always had on the one-PSU platform.
func (s *Schedule) Cuts() int { return s.totalCuts }

// Restores returns the total restore commands across every target.
func (s *Schedule) Restores() int { return s.totalRestores }

// CutsOf returns the cut commands sent to target i.
func (s *Schedule) CutsOf(i int) int { return s.cuts[i] }

// RestoresOf returns the restore commands sent to target i.
func (s *Schedule) RestoresOf(i int) int { return s.restores[i] }
