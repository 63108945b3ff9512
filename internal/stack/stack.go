// Package stack builds the simulated I/O stack a run executes on: one
// engine, the parallel file system on it, the fault campaign scheduled
// against that file system, the provider of the storage tier, and the
// reduce stage pushed on the provider, always in that order. Reset makes
// a used stack fresh again, so a caller running many jobs of one shape
// builds it once.
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

	tier, compress string
	campaign       faults.Campaign // the parsed Faults, without events when there are none
}

// New builds the stack cfg describes. A fault campaign that does not
// parse, an unknown tier or an unknown compressor fails it with the
// error of faults.ParseCampaign, storage.NewProvider or reduce.New.
func New(cfg Config) (*Stack, error) {
	s := &Stack{tier: cfg.Tier, compress: cfg.Compress}
	if s.compress == "none" {
		s.compress = ""
	}
	if cfg.Faults != "" {
		c, err := faults.ParseCampaign(cfg.Faults)
		if err != nil {
			return nil, err
		}
		s.campaign = c
	}
	s.E = des.NewEngine(cfg.Seed)
	s.FS = pfs.New(s.E, cfg.Cluster)
	if err := s.mount(); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset makes s what New builds with seed as the engine seed. The engine
// and file system are reset in place, keeping their fabric, devices and
// free lists; the parsed fault campaign is scheduled again, and the
// provider and stage are new.
func (s *Stack) Reset(seed int64) {
	s.E.Reset(seed)
	s.FS.Reset()
	if err := s.mount(); err != nil {
		panic(fmt.Sprintf("stack: remounting a configuration New accepted: %v", err))
	}
}

// mount layers the fault campaign, the provider and the stage onto the
// engine and file system.
func (s *Stack) mount() (err error) {
	s.Faults, s.Stage = nil, nil
	if s.campaign.Events != nil {
		if s.Faults, err = faults.Run(s.E, s.FS, s.campaign); err != nil {
			return err
		}
	}
	if s.Provider, err = storage.NewProvider(s.E, s.FS, s.tier, storage.ProviderConfig{}); err != nil {
		return err
	}
	if s.compress != "" {
		if s.Stage, err = reduce.New(s.compress); err != nil {
			return err
		}
		s.Provider.Push(s.Stage)
	}
	return nil
}
