package corpus

import (
	"math"
	"testing"
)

func TestCorpusHas51Papers(t *testing.T) {
	if Count() != 51 {
		t.Fatalf("corpus = %d papers, the survey includes 51", Count())
	}
}

func TestCorpusWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Papers() {
		if p.Key == "" || p.Title == "" || p.FirstAuthor == "" || p.Venue == "" {
			t.Errorf("incomplete paper: %+v", p)
		}
		if seen[p.Key] {
			t.Errorf("duplicate key %q", p.Key)
		}
		seen[p.Key] = true
		if p.Year < 2013 || p.Year > 2020 {
			t.Errorf("%s: year %d outside survey range", p.Key, p.Year)
		}
		switch p.Type {
		case Journal, Conference, Workshop:
		default:
			t.Errorf("%s: bad venue type %q", p.Key, p.Type)
		}
		switch p.Publisher {
		case IEEE, ACM, Springer, Elsevier, USENIX, Other:
		default:
			t.Errorf("%s: bad publisher %q", p.Key, p.Publisher)
		}
		if len(p.Categories) == 0 {
			t.Errorf("%s: no taxonomy category", p.Key)
		}
	}
}

func sumPercent(shares []Share) float64 {
	var s float64
	for _, sh := range shares {
		s += sh.Percent
	}
	return s
}

func TestDistributionsSumTo100(t *testing.T) {
	for name, shares := range map[string][]Share{
		"venue":     ByVenueType(),
		"publisher": ByPublisher(),
		"year":      ByYear(),
		"category":  ByCategory(),
	} {
		if s := sumPercent(shares); math.Abs(s-100) > 1e-9 {
			t.Errorf("%s distribution sums to %.4f%%", name, s)
		}
		// Sorted descending by count.
		for i := 1; i < len(shares); i++ {
			if shares[i].Count > shares[i-1].Count {
				t.Errorf("%s distribution not sorted", name)
			}
		}
	}
}

func TestFig3Shape(t *testing.T) {
	// The survey's qualitative shape: conference papers dominate, and
	// IEEE + ACM together publish the majority.
	vt := ByVenueType()
	if vt[0].Label != string(Conference) {
		t.Errorf("dominant venue type = %s, want conference", vt[0].Label)
	}
	var ieeeAcm float64
	for _, s := range ByPublisher() {
		if s.Label == string(IEEE) || s.Label == string(ACM) {
			ieeeAcm += s.Percent
		}
	}
	if ieeeAcm < 50 {
		t.Errorf("IEEE+ACM share = %.1f%%, want majority", ieeeAcm)
	}
}

func TestWindowFilter(t *testing.T) {
	// The survey focuses on 2015-2020; only the two pre-window
	// foundational papers (Luu 2013 CLUSTER, plus none other) fall out.
	in := 0
	for _, p := range Papers() {
		if p.Year >= 2015 && p.Year <= 2020 {
			in++
		}
	}
	if in < Count()-2 {
		t.Errorf("window 2015-2020 keeps %d of %d", in, Count())
	}
}

func TestEmergingCategoryPresence(t *testing.T) {
	// Section V exists because emerging-workload papers are a visible
	// minority of the corpus.
	var emerging int
	for _, p := range Papers() {
		for _, c := range p.Categories {
			if c == CatEmerging {
				emerging++
			}
		}
	}
	if emerging < 5 {
		t.Errorf("emerging papers = %d, want >= 5", emerging)
	}
	if emerging > Count()/2 {
		t.Errorf("emerging papers = %d, should be a minority", emerging)
	}
}
