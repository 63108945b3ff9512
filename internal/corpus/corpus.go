// Package corpus encodes the survey corpus behind the paper's Figure 3:
// the 51 research articles (2013–2020, centered on the 2015–2020 window)
// that the survey includes, with venue type, publisher, year, and the
// taxonomy categories each paper falls into. The percentage distributions
// Figure 3 plots are regenerated from this dataset.
package corpus

import (
	"fmt"
	"sort"
)

// VenueType classifies publication venues.
type VenueType string

// Venue types.
const (
	Journal    VenueType = "journal"
	Conference VenueType = "conference"
	Workshop   VenueType = "workshop"
)

// Publisher identifies the publishing body.
type Publisher string

// Publishers.
const (
	IEEE     Publisher = "IEEE"
	ACM      Publisher = "ACM"
	Springer Publisher = "Springer"
	Elsevier Publisher = "Elsevier"
	USENIX   Publisher = "USENIX"
	Other    Publisher = "Other"
)

// Category maps a paper into the taxonomy of Figure 4.
type Category string

// Taxonomy categories (Section IV/V of the paper).
const (
	CatWorkloads   Category = "measurement/workloads"  // benchmarks, proxy apps, skeletons
	CatMonitoring  Category = "measurement/monitoring" // tracing, profiling, server-side stats
	CatStatistics  Category = "modeling/statistics"    // systematic analysis studies
	CatPredictive  Category = "modeling/predictive"    // ML / analytical prediction
	CatReplay      Category = "modeling/replay"        // replay-based modeling
	CatWorkloadGen Category = "modeling/workload-gen"  // workload generation
	CatSimulation  Category = "simulation"             // DES / trace / execution driven
	CatEmerging    Category = "emerging-workloads"     // AI / analytics / workflows
)

// Paper is one surveyed article.
type Paper struct {
	Key         string // short citation key
	Title       string
	FirstAuthor string
	Year        int
	Venue       string
	Type        VenueType
	Publisher   Publisher
	Categories  []Category
}

// Papers returns the encoded 51-article corpus.
func Papers() []Paper { return append([]Paper(nil), corpus...) }

// Count returns the corpus size.
func Count() int { return len(corpus) }

var corpus = []Paper{
	{"messer18", "MiniApps derived from production HPC applications", "Messer", 2018, "IJHPCA", Journal, Other, []Category{CatWorkloads}},
	{"herbein16", "Performance characterization of irregular I/O at the extreme scale", "Herbein", 2016, "Parallel Computing", Journal, Elsevier, []Category{CatStatistics}},
	{"dickson16", "Replicating HPC I/O workloads with proxy applications", "Dickson", 2016, "PDSW-DISCS", Workshop, IEEE, []Category{CatWorkloads, CatReplay}},
	{"dickson17", "Enabling portable I/O analysis of commercially sensitive HPC applications", "Dickson", 2017, "CUG", Conference, Other, []Category{CatWorkloads, CatReplay}},
	{"logan17", "Extending Skel to support next generation I/O systems", "Logan", 2017, "CLUSTER", Conference, IEEE, []Category{CatWorkloads}},
	{"hao19", "Automatic generation of benchmarks for I/O-intensive parallel applications", "Hao", 2019, "JPDC", Journal, Elsevier, []Category{CatReplay, CatWorkloadGen}},
	{"luo15", "HPC I/O trace extrapolation", "Luo", 2015, "ESPT", Workshop, ACM, []Category{CatMonitoring, CatReplay}},
	{"luo17", "ScalaIOExtrap: elastic I/O tracing and extrapolation", "Luo", 2017, "IPDPS", Conference, IEEE, []Category{CatMonitoring, CatReplay}},
	{"haghdoost17fast", "On the accuracy and scalability of intensive I/O workload replay", "Haghdoost", 2017, "FAST", Conference, USENIX, []Category{CatReplay}},
	{"haghdoost17tos", "hfplayer: scalable replay for intensive block I/O workloads", "Haghdoost", 2017, "TOS", Journal, ACM, []Category{CatReplay}},
	{"snyder15", "Techniques for modeling large-scale HPC I/O workloads", "Snyder", 2015, "PMBS", Workshop, ACM, []Category{CatWorkloadGen, CatSimulation}},
	{"carothers17", "Durango: scalable synthetic workload generation", "Carothers", 2017, "SIGSIM-PADS", Conference, ACM, []Category{CatWorkloadGen, CatSimulation}},
	{"xu17", "DXT: Darshan eXtended tracing", "Xu", 2017, "CUG", Conference, Other, []Category{CatMonitoring}},
	{"chien20", "tf-Darshan: fine-grained I/O in ML workloads", "Chien", 2020, "CLUSTER", Conference, IEEE, []Category{CatMonitoring, CatEmerging}},
	{"luu13", "A multi-level approach for understanding I/O activity", "Luu", 2013, "CLUSTER", Conference, IEEE, []Category{CatMonitoring}},
	{"wang20", "Recorder 2.0: efficient parallel I/O tracing and analysis", "Wang", 2020, "IPDPSW", Workshop, IEEE, []Category{CatMonitoring}},
	{"paul17pdsw", "Toward scalable monitoring on large-scale storage", "Paul", 2017, "PDSW-DISCS", Workshop, ACM, []Category{CatMonitoring}},
	{"paul19", "FSMonitor: scalable file system monitoring", "Paul", 2019, "CLUSTER", Conference, IEEE, []Category{CatMonitoring}},
	{"paul17bigdata", "I/O load balancing for big data HPC applications", "Paul", 2017, "BigData", Conference, IEEE, []Category{CatMonitoring, CatEmerging}},
	{"luu15", "A multiplatform study of I/O behavior on petascale supercomputers", "Luu", 2015, "HPDC", Conference, ACM, []Category{CatMonitoring, CatStatistics}},
	{"snyder16", "Modular HPC I/O characterization with Darshan", "Snyder", 2016, "ESPT", Workshop, IEEE, []Category{CatMonitoring}},
	{"rodrigo17", "Towards understanding HPC users and systems: a NERSC case study", "Rodrigo", 2017, "JPDC", Journal, Elsevier, []Category{CatStatistics}},
	{"khetawat19", "Evaluating burst buffer placement in HPC systems", "Khetawat", 2019, "CLUSTER", Conference, IEEE, []Category{CatSimulation, CatStatistics}},
	{"saif18", "IOscope: a flexible I/O tracer", "Saif", 2018, "ISC Workshops", Workshop, Springer, []Category{CatMonitoring}},
	{"he15", "PIONEER: parallel I/O workload characterization and generation", "He", 2015, "CCGrid", Conference, IEEE, []Category{CatMonitoring, CatWorkloadGen}},
	{"sangaiah18", "SynchroTrace: synchronization-aware architecture-agnostic traces", "Sangaiah", 2018, "TACO", Journal, ACM, []Category{CatSimulation, CatReplay}},
	{"azevedo19", "Improving fairness in a large scale HTC system", "Azevedo", 2019, "Euro-Par", Conference, Springer, []Category{CatSimulation, CatReplay}},
	{"vazhkudai17", "GUIDE: a scalable information directory service", "Vazhkudai", 2017, "SC", Conference, ACM, []Category{CatMonitoring, CatStatistics}},
	{"yildiz16", "On the root causes of cross-application I/O interference", "Yildiz", 2016, "IPDPS", Conference, IEEE, []Category{CatStatistics}},
	{"di17", "LOGAIDER: mining potential correlations of HPC log events", "Di", 2017, "CCGRID", Conference, IEEE, []Category{CatMonitoring}},
	{"lockwood18tokio", "TOKIO on ClusterStor: holistic I/O performance analysis", "Lockwood", 2018, "CUG", Conference, Other, []Category{CatMonitoring}},
	{"park17", "Big data meets HPC log analytics", "Park", 2017, "CLUSTER", Conference, IEEE, []Category{CatMonitoring, CatEmerging}},
	{"lockwood17umami", "UMAMI: meaningful metrics through holistic I/O analysis", "Lockwood", 2017, "PDSW-DISCS", Workshop, ACM, []Category{CatMonitoring}},
	{"yang19", "End-to-end I/O monitoring on a leading supercomputer", "Yang", 2019, "NSDI", Conference, USENIX, []Category{CatMonitoring}},
	{"wadhwa19", "iez: resource contention aware load balancing", "Wadhwa", 2019, "IPDPS", Conference, IEEE, []Category{CatMonitoring}},
	{"lockwood18year", "A year in the life of a parallel file system", "Lockwood", 2018, "SC", Conference, IEEE, []Category{CatStatistics}},
	{"luettgau18", "Toward understanding I/O behavior in HPC workflows", "Luettgau", 2018, "PDSW-DISCS", Workshop, IEEE, []Category{CatStatistics, CatEmerging}},
	{"wang18", "IOMiner: large-scale analytics framework for I/O logs", "Wang", 2018, "CLUSTER", Conference, IEEE, []Category{CatStatistics}},
	{"xie17", "Predicting output performance of a petascale supercomputer", "Xie", 2017, "HPDC", Conference, ACM, []Category{CatPredictive}},
	{"obaida18", "Parallel application performance prediction using analysis based models", "Obaida", 2018, "SIGSIM-PADS", Conference, ACM, []Category{CatPredictive, CatSimulation}},
	{"gunasekaran15", "Comparative I/O workload characterization of two leadership class storage clusters", "Gunasekaran", 2015, "PDSW", Workshop, ACM, []Category{CatStatistics}},
	{"patel19", "Revisiting I/O behavior in large-scale storage systems", "Patel", 2019, "SC", Conference, ACM, []Category{CatStatistics, CatEmerging}},
	{"paul20", "Understanding HPC application I/O behavior using system level statistics", "Paul", 2020, "HiPC", Conference, IEEE, []Category{CatStatistics, CatMonitoring}},
	{"dorier16", "Omnisc'IO: grammar-based I/O prediction", "Dorier", 2016, "TPDS", Journal, IEEE, []Category{CatPredictive}},
	{"schmid16", "Predicting I/O performance in HPC using artificial neural networks", "Schmid", 2016, "SFI", Journal, Other, []Category{CatPredictive}},
	{"sun20", "Automated performance modeling of HPC applications using machine learning", "Sun", 2020, "TC", Journal, IEEE, []Category{CatPredictive}},
	{"chowdhury20", "Emulating I/O behavior in scientific workflows", "Chowdhury", 2020, "PDSW", Workshop, IEEE, []Category{CatPredictive, CatEmerging}},
	{"liu17", "Performance evaluation and modeling of HPC I/O on non-volatile memory", "Liu", 2017, "NAS", Conference, IEEE, []Category{CatSimulation, CatStatistics}},
	{"xenopoulos16", "Big data analytics on HPC architectures", "Xenopoulos", 2016, "BigData", Conference, IEEE, []Category{CatEmerging}},
	{"xuan17", "Accelerating big data analytics on HPC clusters using two-level storage", "Xuan", 2017, "Parallel Computing", Journal, Elsevier, []Category{CatEmerging}},
	{"chowdhury19", "I/O characterization and performance evaluation of BeeGFS for deep learning", "Chowdhury", 2019, "ICPP", Conference, ACM, []Category{CatEmerging, CatStatistics}},
}

// Share is one slice of a percentage distribution.
type Share struct {
	Label   string
	Count   int
	Percent float64
}

// distribution tallies keys and converts to sorted percentage shares.
func distribution(keys []string) []Share {
	counts := map[string]int{}
	for _, k := range keys {
		counts[k]++
	}
	total := len(keys)
	out := make([]Share, 0, len(counts))
	for k, n := range counts {
		out = append(out, Share{Label: k, Count: n, Percent: 100 * float64(n) / float64(total)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// ByVenueType returns the Figure-3 distribution over venue types.
func ByVenueType() []Share {
	keys := make([]string, len(corpus))
	for i, p := range corpus {
		keys[i] = string(p.Type)
	}
	return distribution(keys)
}

// ByPublisher returns the Figure-3 distribution over publishers.
func ByPublisher() []Share {
	keys := make([]string, len(corpus))
	for i, p := range corpus {
		keys[i] = string(p.Publisher)
	}
	return distribution(keys)
}

// ByYear returns the publication-year distribution.
func ByYear() []Share {
	keys := make([]string, len(corpus))
	for i, p := range corpus {
		keys[i] = fmt.Sprintf("%d", p.Year)
	}
	return distribution(keys)
}

// ByCategory returns the taxonomy-category distribution. Papers may fall
// into several categories, so percentages are over category assignments.
func ByCategory() []Share {
	var keys []string
	for _, p := range corpus {
		for _, c := range p.Categories {
			keys = append(keys, string(c))
		}
	}
	return distribution(keys)
}
