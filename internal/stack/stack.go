// Package stack builds the simulated I/O stack a run executes on: one
// engine, the parallel file system on it, the fault campaign scheduled
// against that file system, the provider of the storage tier, and the
// reduce stage pushed on the provider, always in that order. Reset makes
// a used stack fresh again, rebuilding nothing above the file system, so
// a caller running many jobs of one shape builds it once; a Lender lends
// such stacks, with their rank harnesses, to the jobs of one run.
package stack

import (
	"fmt"

	"pioeval/internal/des"
	"pioeval/internal/faults"
	"pioeval/internal/pfs"
	"pioeval/internal/reduce"
	"pioeval/internal/storage"
)

// Config describes one stack.
type Config struct {
	Cluster  pfs.Config
	Seed     int64  // the engine seed
	Tier     string // direct ("" too), bb or nodelocal
	Compress string // a reduce preset; "" or "none" pushes no stage
	Faults   string // a faults.ParseCampaign spec; "" schedules none
}

// Stack is one engine and what New built on it. Its fields are read
// only.
type Stack struct {
	E        *des.Engine
	FS       *pfs.FS
	Provider *storage.Provider // always set, tier direct when none is given
	Stage    *reduce.Stage     // nil without compression
	Faults   *faults.Scheduler // nil without a fault campaign

	campaign faults.Campaign // the parsed Faults, without events when there are none
}

// New builds the stack cfg describes. A fault campaign that does not
// parse, an unknown tier or an unknown compressor fails it with the
// error of faults.ParseCampaign, storage.NewProvider or reduce.New.
func New(cfg Config) (*Stack, error) {
	s := new(Stack)
	if cfg.Faults != "" {
		c, err := faults.ParseCampaign(cfg.Faults)
		if err != nil {
			return nil, err
		}
		s.campaign = c
	}
	s.E = des.NewEngine(cfg.Seed)
	s.FS = pfs.New(s.E, cfg.Cluster)
	err := s.schedule()
	if err != nil {
		return nil, err
	}
	if s.Provider, err = storage.NewProvider(s.E, s.FS, cfg.Tier, storage.ProviderConfig{}); err != nil {
		return nil, err
	}
	if cfg.Compress != "" && cfg.Compress != "none" {
		if s.Stage, err = reduce.New(cfg.Compress); err != nil {
			return nil, err
		}
		s.Provider.Push(s.Stage)
	}
	return s, nil
}

// Reset makes s what New builds with seed as the engine seed, rebuilding
// nothing above the file system. The engine and file system are reset in
// place, keeping their fabric, devices and free lists; the parsed fault
// campaign is scheduled again; the provider is reset in place
// (storage.Provider.Reset), keeping its tier targets, burst buffers and
// stage wrappers for the next job's ranks, and the stage's accounting is
// zeroed (reduce.Stage.Reset). A tier or stage handle opened before the
// reset is stale.
func (s *Stack) Reset(seed int64) {
	s.E.Reset(seed)
	s.FS.Reset()
	if err := s.schedule(); err != nil {
		panic(fmt.Sprintf("stack: rescheduling a fault campaign New accepted: %v", err))
	}
	s.Provider.Reset()
	if s.Stage != nil {
		s.Stage.Reset()
	}
}

// schedule schedules the parsed fault campaign, if there is one, on the
// engine and file system.
func (s *Stack) schedule() (err error) {
	s.Faults = nil
	if s.campaign.Events != nil {
		s.Faults, err = faults.Run(s.E, s.FS, s.campaign)
	}
	return err
}
