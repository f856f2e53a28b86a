package core

import (
	"context"
	"fmt"

	"powerfail/internal/fleet"
	"powerfail/internal/obs"
)

// runFleetExperiment is the datacenter-scale path of RunExperiment: instead
// of one device behind one PSU, it runs a fault-domain tree carrying a
// population of redundancy groups with spares and rebuild state machines.
// The spec contributes its name and (for random plans) its fault count; the
// workload and device fields do not apply at fleet scale.
func runFleetExperiment(ctx context.Context, opts Options, spec ExperimentSpec) (*Report, error) {
	cfg := opts.Fleet.WithDefaults()
	if spec.Faults > 0 && len(cfg.Faults.Script) == 0 {
		cfg.Faults.Count = spec.Faults
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	name := spec.Name
	if name == "" {
		name = "fleet"
	}
	f, err := fleet.NewSim(cfg, opts.Seed)
	if err != nil {
		return nil, err
	}
	var set *obs.Set
	if opts.Obs != nil {
		set = obs.NewSet(*opts.Obs)
		f.Observe(set)
	}
	st := f.Run()
	completed := st.FgOps - st.FgFailed
	rep := &Report{
		Name:        name,
		Profile:     fmt.Sprintf("fleet[%dx%d+%ds]", cfg.Arrays, cfg.GroupSize, cfg.Spares),
		Source:      "fleet",
		Spec:        spec,
		SimDuration: cfg.Duration,
		ActiveTime:  cfg.Duration,
		Requests:    int(st.FgOps),
		Completed:   int(completed),
		Errored:     int(st.FgFailed),
		Faults:      st.Cuts,
		Cuts:        st.Cuts,
		Restores:    st.Restores,
		Fleet:       st,
	}
	if cfg.Duration > 0 {
		rep.RespondedIOPS = float64(completed) / cfg.Duration.Seconds()
	}
	if rep.Faults > 0 {
		rep.DataLossPerFault = float64(st.LossEvents) / float64(rep.Faults)
	}
	rep.Events = f.Kernel().Processed()
	if set != nil {
		rep.Obs = set.Summary()
		rep.ObsTrace = set.Trace()
	}
	return rep, nil
}
