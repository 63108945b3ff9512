package cli

import (
	"errors"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles holds the -cpuprofile and -memprofile flags an entry point
// offers: Register installs them, and Run profiles the command's body.
type Profiles struct {
	cpuPath, memPath string
	cpu              *os.File
}

// Register installs -cpuprofile and -memprofile on fs.
func (p *Profiles) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.cpuPath, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&p.memPath, "memprofile", "", "write a pprof heap profile at exit to this file")
}

// Run starts the CPU profile when -cpuprofile is set, runs body, and
// then writes the heap profile when -memprofile is set and stops the CPU
// profile. The first error wins: body's, or else the profiles'. body
// does not run when the CPU profile cannot be started.
func (p *Profiles) Run(body func() error) error {
	if err := p.start(); err != nil {
		return err
	}
	err := body()
	if serr := p.stop(); err == nil {
		err = serr
	}
	return err
}

// start begins CPU profiling when -cpuprofile is set.
func (p *Profiles) start() error {
	if p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(p.cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cpu = f
	return nil
}

// stop writes the heap profile when -memprofile is set, then stops and
// closes the CPU profile. The CPU profile is completed even when the heap
// profile cannot be written; the errors of both steps are joined.
func (p *Profiles) stop() error {
	var errs []error
	if p.memPath != "" {
		errs = append(errs, writeHeapProfile(p.memPath))
	}
	if p.cpu != nil {
		pprof.StopCPUProfile()
		errs = append(errs, p.cpu.Close())
		p.cpu = nil
	}
	return errors.Join(errs...)
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
