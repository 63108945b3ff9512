package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// Main runs the command name and exits with ExitCode of run's error. It
// prefixes the log with "name: ", hands run a context that the first
// SIGINT or SIGTERM cancels, and prints run's error unless the command
// has already reported it (Reported). Once that context is cancelled the
// signals are no longer captured, so a second SIGINT or SIGTERM kills the
// process the default way while run winds down: a campaign writing its
// partial report, or a daemon draining. The signals are captured only
// from the moment run first watches the context (calls its Done or Err),
// so a command that never does dies on the first signal, as it would
// without Main.
func Main(name string, run func(ctx context.Context, args []string, stdout, stderr io.Writer) error) {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	ctx, cancel := context.WithCancel(context.Background())
	err := run(&signalContext{Context: ctx, cancel: cancel}, os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.As(err, new(reported)) {
		log.Print(err)
	}
	os.Exit(ExitCode(err))
}

// signalContext is Main's context: the first call of Done or Err starts
// capturing SIGINT and SIGTERM, and the first signal captured releases
// them and then cancels the context.
type signalContext struct {
	context.Context
	cancel context.CancelFunc
	once   sync.Once
}

func (c *signalContext) capture() {
	c.once.Do(func() {
		sig, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		context.AfterFunc(sig, func() { stop(); c.cancel() })
	})
}

func (c *signalContext) Done() <-chan struct{} {
	c.capture()
	return c.Context.Done()
}

func (c *signalContext) Err() error {
	c.capture()
	return c.Context.Err()
}

// Parse parses args into fs. A -h or -help request returns flag.ErrHelp,
// on which ExitCode is 0; any other parse error is an ErrUsage error.
// Either way fs has already written its diagnostic, so Main prints
// nothing more.
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, flag.ErrHelp):
		return Reported(err)
	}
	return Reported(fmt.Errorf("%w: %w", ErrUsage, err))
}

// reported wraps an error whose message the command has already written.
type reported struct{ error }

func (r reported) Unwrap() error { return r.error }

// Reported marks err as already written to the user (a failed invariant
// or oracle the report lists, say): Main exits with ExitCode(err) without
// printing it again.
func Reported(err error) error { return reported{err} }
