// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 6) on this repository's
// synthetic dataset stand-ins. Every experiment draws its graphs from one
// roster (this file) and its runs from one catalogue (frameworks.go);
// cmd/benchtab drives it from the command line.
package bench

import (
	"fmt"
	"sync"

	"graphit/internal/gen"
	"graphit/internal/graph"
)

// Scale selects dataset sizes. The paper's graphs span 1.2M–3.9B edges;
// this repository defaults to laptop-scale stand-ins whose *structure*
// (degree skew, diameter) matches each class, which is what the relative
// results depend on.
type Scale string

const (
	// ScaleSmall is for tests and quick runs (seconds).
	ScaleSmall Scale = "small"
	// ScaleMedium is the default benchmarking scale (tens of seconds).
	ScaleMedium Scale = "medium"
	// ScaleLarge stresses the engines (minutes).
	ScaleLarge Scale = "large"
)

// Graph classes of the roster.
const (
	ClassSocial = "social"
	ClassRoad   = "road"
)

// Dataset is one named graph at one scale, with its paper counterpart.
type Dataset struct {
	// Name is the stand-in name, e.g. "LJ-sim".
	Name string
	// PaperName is the dataset it substitutes (Table 3).
	PaperName string
	// Class is ClassSocial or ClassRoad.
	Class string
	Graph *graph.Graph
	// BestDeltaExp is the hand-tuned ∆ exponent for ∆-stepping (paper
	// §6.2: social 1–100, road 2^13–2^17; scaled-down graphs want
	// correspondingly smaller road deltas).
	BestDeltaExp int

	mu      sync.Mutex
	derived [LogWeighted + 1]*graph.Graph // by Variant, built on first use
}

// Variant is a form of a dataset's graph that an algorithm runs on.
type Variant uint8

const (
	// Base is the generated graph.
	Base Variant = iota
	// Symmetrized is the symmetric graph the paper gives k-core and
	// SetCover.
	Symmetrized
	// LogWeighted has weights in [1, log n), the wBFS convention (paper
	// Table 4's † graphs).
	LogWeighted
)

// shape is how a stand-in is generated.
type shape uint8

const (
	rmatLight shape = iota // Graph500 R-MAT skew
	rmatHeavy              // the same skew, denser
	web                    // stronger skew: web graphs' deeper power-law tails
	road                   // perturbed grid with coordinates and travel-time weights
)

// tables is the set of experiments a roster dataset appears in.
type tables uint8

const (
	headline tables = 1 << iota // Fig. 1, Fig. 4, Fig. 11, ∆ sweep, autotuner, ablations
	table4                      // the full Table 3 roster
	table6                      // bucket fusion
	table7                      // eager vs lazy
)

// roster is paper Table 3's datasets, each with the experiments that use
// it, in the order tables list them.
var roster = []struct {
	name, paper string
	shape       shape
	seed        int64
	side        float64 // road grid side as a fraction of roadSide
	in          tables
}{
	{"LJ-sim", "LiveJournal", rmatLight, 101, 0, headline | table4 | table7},
	{"TW-sim", "Twitter", rmatHeavy, 202, 0, headline | table4 | table6 | table7},
	{"OK-sim", "Orkut", rmatHeavy, 404, 0, table4},
	{"FT-sim", "Friendster", rmatHeavy, 505, 0, table4 | table6 | table7},
	{"WB-sim", "WebGraph", web, 606, 0, table4 | table6 | table7},
	{"RD-sim", "RoadUSA", road, 303, 1.0, headline | table4 | table6 | table7},
	{"GE-sim", "Germany", road, 707, 0.7, table4},
	{"MA-sim", "Massachusetts", road, 808, 0.25, table4},
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*Dataset{} // by name/scale
)

// rmatSize returns (scale, edgeFactor) per Scale for a social stand-in.
func rmatSize(s Scale, heavy bool) (int, int) {
	switch s {
	case ScaleSmall:
		if heavy {
			return 12, 16
		}
		return 12, 8
	case ScaleLarge:
		if heavy {
			return 18, 24
		}
		return 18, 12
	default:
		if heavy {
			return 15, 20
		}
		return 15, 10
	}
}

func roadSide(s Scale) int {
	switch s {
	case ScaleSmall:
		return 100
	case ScaleLarge:
		return 900
	default:
		return 350
	}
}

// datasets returns the roster's datasets that appear in any of in, in
// roster order.
func datasets(s Scale, in tables) ([]*Dataset, error) {
	var ds []*Dataset
	for i := range roster {
		if roster[i].in&in == 0 {
			continue
		}
		d, err := load(i, s)
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// load generates roster entry i at scale s, once per process.
func load(i int, s Scale) (*Dataset, error) {
	e := &roster[i]
	key := e.name + "/" + string(s)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if d, ok := cache[key]; ok {
		return d, nil
	}
	// Social networks want small deltas (paper: 1–100).
	d := &Dataset{Name: e.name, PaperName: e.paper, Class: ClassSocial, BestDeltaExp: 4}
	var err error
	if e.shape == road {
		side := max(int(float64(roadSide(s))*e.side), 20)
		d.Graph, err = gen.Road(gen.RoadOptions{
			Rows: side, Cols: side, DeleteFrac: 0.1, DiagFrac: 0.05, Seed: e.seed,
		})
		// Road networks want large deltas (paper: 2^13–2^17 at city/continent
		// scale; the grid stand-ins peak around 2^10–2^13).
		d.Class, d.BestDeltaExp = ClassRoad, 11
	} else {
		opt := gen.DefaultRMAT(0, 0, e.seed)
		opt.Scale, opt.EdgeFac = rmatSize(s, e.shape != rmatLight)
		if e.shape == web {
			opt.A, opt.B, opt.C = 0.65, 0.15, 0.15
		}
		d.Graph, err = gen.RMAT(opt)
	}
	if err != nil {
		return nil, fmt.Errorf("bench: generating %s: %w", e.name, err)
	}
	d.derived[Base] = d.Graph
	cache[key] = d
	return d, nil
}

// As returns d's graph in variant v, deriving it on first use. A dataset
// is one (name, scale) pair, so every derived graph is keyed by name,
// scale and variant; the base graph is never modified.
func (d *Dataset) As(v Variant) (*graph.Graph, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if g := d.derived[v]; g != nil {
		return g, nil
	}
	var g *graph.Graph
	var err error
	switch {
	case v == Symmetrized && d.Graph.Symmetric():
		g = d.Graph
	case v == Symmetrized:
		if g, err = d.Graph.Symmetrized(); err != nil {
			return nil, fmt.Errorf("bench: symmetrizing %s: %w", d.Name, err)
		}
	default:
		g, err = graph.Build(d.Graph.Edges(), graph.BuildOptions{
			NumVertices: d.Graph.NumVertices(), Weighted: true, InEdges: true,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: reweighting %s: %w", d.Name, err)
		}
		gen.LogWeights(g, 42)
	}
	d.derived[v] = g
	return g, nil
}
