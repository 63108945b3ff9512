// Command surveyfig regenerates the paper's Figure 3 from the encoded
// survey corpus: the percentage distribution of the 51 included papers over
// venue types, publishers, years, and taxonomy categories.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"pioeval/internal/cli"
	"pioeval/internal/corpus"
)

func main() { cli.Main("surveyfig", run) }

// run is the whole command behind a testable seam: flags come from args,
// all output goes to the supplied writers, and failures return as errors
// instead of exiting.
func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("surveyfig", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listPapers := fs.Bool("papers", false, "list the full corpus")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if err := cli.MaxArgs(fs, 0); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "Survey corpus: %d included papers (Figure 3)\n\n", corpus.Count())
	section := func(title string, shares []corpus.Share) {
		fmt.Fprintf(stdout, "%s\n", title)
		for _, s := range shares {
			bar := strings.Repeat("#", int(s.Percent/2+0.5))
			fmt.Fprintf(stdout, "  %-26s %5.1f%% (%2d) %s\n", s.Label, s.Percent, s.Count, bar)
		}
		fmt.Fprintln(stdout)
	}
	section("By venue type:", corpus.ByVenueType())
	section("By publisher:", corpus.ByPublisher())
	section("By year:", corpus.ByYear())
	section("By taxonomy category (multi-label):", corpus.ByCategory())

	if *listPapers {
		fmt.Fprintln(stdout, "Included papers:")
		for _, p := range corpus.Papers() {
			fmt.Fprintf(stdout, "  [%s] %s (%s %d, %s/%s)\n", p.Key, p.Title, p.Venue, p.Year, p.Type, p.Publisher)
		}
	}
	return nil
}
