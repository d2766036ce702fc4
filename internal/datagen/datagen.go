// Package datagen generates the synthetic datasets standing in for the
// paper's evaluation graphs (Table III): a Microsoft-style provenance
// graph (prov), a DBLP-style publication network (dblp), a road network
// (roadnet-usa), and a power-law social network (soc-livejournal).
//
// The generators preserve what the experiments depend on — schema shape,
// heterogeneity, degree-distribution family (power-law vs. near-constant),
// and the properties queries touch (CPU, pipelineName, edge timestamps) —
// at laptop scales. All generators are deterministic given a seed, and
// edges are emitted in a deterministically shuffled order so that
// first-n-edges prefixes (Fig. 5's x-axis sweeps) are representative
// subgraphs rather than generation-order artifacts.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"kaskade/internal/graph"
)

// Dataset names as used by the benchmark harness and CLI.
const (
	NameProv    = "prov"
	NameDBLP    = "dblp"
	NameRoadNet = "roadnet"
	NameSocial  = "soc"
)

// pendingEdge buffers an edge during generation so the full edge set can
// be shuffled before insertion.
type pendingEdge struct {
	from, to graph.VertexID
	etype    string
}

// addShuffled shuffles pending edges deterministically and adds them to g
// with increasing timestamps. Every schema here declares `ts` on every
// edge type, so AddEdge stores it in the graph's int64 edge column and
// keeps no map: one scratch map carries it for every edge.
func addShuffled(g *graph.Graph, edges []pendingEdge, rng *rand.Rand) error {
	perm := rng.Perm(len(edges))
	ts := graph.Properties{}
	for i, pi := range perm {
		e := edges[pi]
		ts["ts"] = int64(i)
		if _, err := g.AddEdge(e.from, e.to, e.etype, ts); err != nil {
			return err
		}
	}
	return nil
}

// declareEdgeTS declares the int64 `ts` addShuffled stamps on every
// edge type of s.
func declareEdgeTS(s *graph.Schema) *graph.Schema {
	for _, et := range s.EdgeTypes() {
		if err := s.DeclareProperty(et.Name, "ts", graph.PropInt); err != nil {
			panic(err)
		}
	}
	return s
}

// zipfDegree samples a power-law degree in [1, max] with the given
// exponent (s > 1).
func zipfDegree(rng *rand.Rand, s float64, max uint64) int {
	if max < 1 {
		return 1
	}
	z := rand.NewZipf(rng, s, 1, max-1)
	return int(z.Uint64()) + 1
}

// --- provenance graph (heterogeneous, the paper's §I-A scenario) ---

// ProvConfig sizes the provenance graph. The raw graph includes the
// satellite entity types (tasks, machines, users) that dominate raw size
// and get stripped by the schema-level summarizer, mirroring how the
// paper's 3.2B-vertex raw graph summarizes to 7M jobs+files.
type ProvConfig struct {
	Jobs        int
	Files       int
	TasksPerJob int // tasks spawned per job (raw graph bulk)
	Machines    int
	Users       int
	MaxReads    uint64 // max jobs reading a file (power-law)
	Pipelines   int    // distinct pipelineName values
	Seed        int64
}

// DefaultProvConfig returns laptop-scale defaults preserving the raw vs.
// summarized ratio of Table III (satellites ≫ jobs+files).
func DefaultProvConfig() ProvConfig {
	return ProvConfig{
		Jobs:        2_000,
		Files:       5_000,
		TasksPerJob: 120,
		Machines:    400,
		Users:       100,
		MaxReads:    60,
		Pipelines:   50,
		Seed:        1,
	}
}

// ProvSchema is the data-lineage schema of §I-A / Fig. 3: jobs produce
// and consume files (no file-file or job-job edges), jobs spawn tasks,
// tasks transfer data to tasks and run on machines, users submit jobs.
func ProvSchema() *graph.Schema {
	s := graph.MustSchema(
		[]string{"Job", "File", "Task", "Machine", "User"},
		[]graph.EdgeType{
			{From: "Job", To: "File", Name: "WRITES_TO"},
			{From: "File", To: "Job", Name: "IS_READ_BY"},
			{From: "Job", To: "Task", Name: "SPAWNS"},
			{From: "Task", To: "Task", Name: "TRANSFERS_TO"},
			{From: "Task", To: "Machine", Name: "RUNS_ON"},
			{From: "User", To: "Job", Name: "SUBMITTED"},
		},
	)
	// Declared property kinds match what Prov generates exactly; the
	// declarations opt these properties into the graph's property
	// columns.
	for _, d := range []struct {
		typ, prop string
		kind      graph.PropKind
	}{
		{"Job", "name", graph.PropString},
		{"Job", "CPU", graph.PropInt},
		{"Job", "pipelineName", graph.PropString},
		{"File", "name", graph.PropString},
		{"File", "size", graph.PropInt},
		{"Machine", "name", graph.PropString},
		{"User", "name", graph.PropString},
	} {
		if err := s.DeclareProperty(d.typ, d.prop, d.kind); err != nil {
			panic(err)
		}
	}
	return declareEdgeTS(s)
}

// Prov generates the raw provenance graph.
func Prov(cfg ProvConfig) (*graph.Graph, error) {
	if cfg.Jobs < 1 || cfg.Files < 1 {
		return nil, fmt.Errorf("datagen: prov needs at least one job and one file")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.NewGraph(ProvSchema())

	jobs := make([]graph.VertexID, cfg.Jobs)
	for i := range jobs {
		jobs[i] = g.MustAddVertex("Job", graph.Properties{
			"name":         fmt.Sprintf("job%d", i),
			"CPU":          int64(1 + rng.Intn(1000)),
			"pipelineName": fmt.Sprintf("pipeline%d", rng.Intn(max(1, cfg.Pipelines))),
		})
	}
	files := make([]graph.VertexID, cfg.Files)
	for i := range files {
		files[i] = g.MustAddVertex("File", graph.Properties{
			"name": fmt.Sprintf("file%d", i),
			"size": int64(1 + rng.Intn(1_000_000)),
		})
	}
	machines := make([]graph.VertexID, max(1, cfg.Machines))
	for i := range machines {
		machines[i] = g.MustAddVertex("Machine", graph.Properties{"name": fmt.Sprintf("m%d", i)})
	}
	users := make([]graph.VertexID, max(1, cfg.Users))
	for i := range users {
		users[i] = g.MustAddVertex("User", graph.Properties{"name": fmt.Sprintf("u%d", i)})
	}

	var edges []pendingEdge
	// Lineage core: a temporal DAG, like a real provenance graph — a
	// file is written by exactly one job and can only be read by jobs
	// submitted later (data cannot flow backwards in time). Job index is
	// submission order. Writers are power-law skewed (hub jobs produce
	// many files) and so are reader counts (hot files feed many jobs).
	// DAG-ness is what makes connector rewritings exactly equivalent
	// (walks in a DAG never reuse edges).
	for _, f := range files {
		wIdx := zipfDegree(rng, 1.5, uint64(cfg.Jobs)) - 1
		edges = append(edges, pendingEdge{from: jobs[wIdx], to: f, etype: "WRITES_TO"})
		if wIdx == cfg.Jobs-1 {
			continue // last job's outputs have no later readers
		}
		r := zipfDegree(rng, 1.8, cfg.MaxReads) - 1 // many files unread
		for k := 0; k < r; k++ {
			rIdx := wIdx + 1 + rng.Intn(cfg.Jobs-wIdx-1)
			edges = append(edges, pendingEdge{from: f, to: jobs[rIdx], etype: "IS_READ_BY"})
		}
	}
	// Satellite bulk: tasks (the raw graph's dominant type), machines,
	// users.
	var allTasks []graph.VertexID
	for _, j := range jobs {
		n := 1 + rng.Intn(max(1, 2*cfg.TasksPerJob))
		var prev graph.VertexID = graph.NoVertex
		for k := 0; k < n; k++ {
			t := g.MustAddVertex("Task", nil)
			allTasks = append(allTasks, t)
			edges = append(edges, pendingEdge{from: j, to: t, etype: "SPAWNS"})
			edges = append(edges, pendingEdge{from: t, to: machines[rng.Intn(len(machines))], etype: "RUNS_ON"})
			if prev != graph.NoVertex {
				edges = append(edges, pendingEdge{from: prev, to: t, etype: "TRANSFERS_TO"})
			}
			prev = t
		}
	}
	for _, j := range jobs {
		edges = append(edges, pendingEdge{from: users[rng.Intn(len(users))], to: j, etype: "SUBMITTED"})
	}
	if err := addShuffled(g, edges, rng); err != nil {
		return nil, err
	}
	return g, nil
}

// --- DBLP-style publication network (heterogeneous) ---

// DBLPConfig sizes the publication graph.
type DBLPConfig struct {
	Authors      int
	Papers       int
	Venues       int
	MaxPerAuthor uint64 // power-law cap on papers per author
	Seed         int64
}

// DefaultDBLPConfig returns laptop-scale defaults.
func DefaultDBLPConfig() DBLPConfig {
	return DBLPConfig{Authors: 3_000, Papers: 6_000, Venues: 150, MaxPerAuthor: 80, Seed: 2}
}

// DBLPSchema: authors write papers (both directions are materialized so
// author-to-author co-authorship 2-hop connectors exist, like GraphDBLP),
// and papers appear in venues.
func DBLPSchema() *graph.Schema {
	return declareEdgeTS(graph.MustSchema(
		[]string{"Author", "Paper", "Venue"},
		[]graph.EdgeType{
			{From: "Author", To: "Paper", Name: "AUTHORED"},
			{From: "Paper", To: "Author", Name: "AUTHORED_BY"},
			{From: "Paper", To: "Venue", Name: "PUBLISHED_IN"},
		},
	))
}

// DBLP generates the publication network. Author participation follows a
// power law (a few prolific authors), authors per paper is 1..5.
func DBLP(cfg DBLPConfig) (*graph.Graph, error) {
	if cfg.Authors < 1 || cfg.Papers < 1 || cfg.Venues < 1 {
		return nil, fmt.Errorf("datagen: dblp needs authors, papers, and venues")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.NewGraph(DBLPSchema())

	authors := make([]graph.VertexID, cfg.Authors)
	for i := range authors {
		authors[i] = g.MustAddVertex("Author", graph.Properties{"name": fmt.Sprintf("author%d", i)})
	}
	papers := make([]graph.VertexID, cfg.Papers)
	for i := range papers {
		papers[i] = g.MustAddVertex("Paper", graph.Properties{
			"title": fmt.Sprintf("paper%d", i),
			"year":  int64(1990 + rng.Intn(30)),
		})
	}
	venues := make([]graph.VertexID, cfg.Venues)
	for i := range venues {
		venues[i] = g.MustAddVertex("Venue", graph.Properties{"name": fmt.Sprintf("venue%d", i)})
	}

	maxPer := int(cfg.MaxPerAuthor)
	if maxPer < 1 {
		maxPer = 80
	}
	perAuthor := make(map[graph.VertexID]int, cfg.Authors)
	var edges []pendingEdge
	for _, p := range papers {
		// Authors per paper is skewed toward single-author papers
		// (zipf over 1..5), which keeps the co-authorship connector
		// about an order of magnitude smaller than the base graph, the
		// dblp shape of the paper's Fig. 6.
		na := zipfDegree(rng, 2.2, 5)
		seen := map[graph.VertexID]bool{}
		for k := 0; k < na; k++ {
			// Power-law author pick: low indexes are prolific, but a
			// cap keeps the most prolific author realistic relative to
			// the corpus (real DBLP hubs hold a tiny fraction of all
			// papers; without the cap one hub would dominate every
			// 2-hop path count).
			a := authors[zipfDegree(rng, 1.5, uint64(cfg.Authors))-1]
			if perAuthor[a] >= maxPer {
				a = authors[rng.Intn(cfg.Authors)]
			}
			if seen[a] || perAuthor[a] >= maxPer {
				continue
			}
			seen[a] = true
			perAuthor[a]++
			edges = append(edges, pendingEdge{from: a, to: p, etype: "AUTHORED"})
			edges = append(edges, pendingEdge{from: p, to: a, etype: "AUTHORED_BY"})
		}
		edges = append(edges, pendingEdge{from: p, to: venues[rng.Intn(cfg.Venues)], etype: "PUBLISHED_IN"})
	}
	if err := addShuffled(g, edges, rng); err != nil {
		return nil, err
	}
	return g, nil
}

// --- road network (homogeneous, near-constant degree, long paths) ---

// RoadNetConfig sizes the road network as a W×H perturbed grid.
type RoadNetConfig struct {
	Width, Height int
	DropFraction  float64 // fraction of grid edges randomly dropped
	Seed          int64
}

// DefaultRoadNetConfig returns laptop-scale defaults.
func DefaultRoadNetConfig() RoadNetConfig {
	return RoadNetConfig{Width: 120, Height: 120, DropFraction: 0.08, Seed: 3}
}

// RoadNetSchema: a homogeneous graph with one vertex and one edge type.
func RoadNetSchema() *graph.Schema {
	return declareEdgeTS(graph.MustSchema(
		[]string{"Intersection"},
		[]graph.EdgeType{{From: "Intersection", To: "Intersection", Name: "ROAD"}},
	))
}

// RoadNet generates a directed grid road network: neighbors are
// connected in both directions (two directed edges), with a fraction of
// segments dropped for irregularity. Degrees are nearly constant (≤ 4),
// matching roadnet-usa's non-power-law distribution (Fig. 8).
func RoadNet(cfg RoadNetConfig) (*graph.Graph, error) {
	if cfg.Width < 2 || cfg.Height < 2 {
		return nil, fmt.Errorf("datagen: roadnet needs at least a 2x2 grid")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.NewGraph(RoadNetSchema())
	ids := make([]graph.VertexID, cfg.Width*cfg.Height)
	for i := range ids {
		ids[i] = g.MustAddVertex("Intersection", nil)
	}
	at := func(x, y int) graph.VertexID { return ids[y*cfg.Width+x] }
	var edges []pendingEdge
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			if x+1 < cfg.Width && rng.Float64() >= cfg.DropFraction {
				edges = append(edges, pendingEdge{from: at(x, y), to: at(x+1, y), etype: "ROAD"})
				edges = append(edges, pendingEdge{from: at(x+1, y), to: at(x, y), etype: "ROAD"})
			}
			if y+1 < cfg.Height && rng.Float64() >= cfg.DropFraction {
				edges = append(edges, pendingEdge{from: at(x, y), to: at(x, y+1), etype: "ROAD"})
				edges = append(edges, pendingEdge{from: at(x, y+1), to: at(x, y), etype: "ROAD"})
			}
		}
	}
	if err := addShuffled(g, edges, rng); err != nil {
		return nil, err
	}
	return g, nil
}

// --- social network (homogeneous, power-law) ---

// SocialConfig sizes the Chung-Lu style power-law social graph.
type SocialConfig struct {
	Users    int
	Edges    int
	Exponent float64 // degree-weight power-law exponent (≈2.3 for soc-lj)
	// MaxDegree caps the expected degree of the largest hub (0 = no
	// cap). At laptop scales an uncapped power law concentrates a far
	// larger *fraction* of edges on the top hub than a web-scale graph
	// does, which would distort hub-sensitive statistics (e.g. Fig. 5's
	// percentile-bracketing of 2-hop path counts).
	MaxDegree int
	Seed      int64
}

// DefaultSocialConfig returns laptop-scale defaults.
func DefaultSocialConfig() SocialConfig {
	return SocialConfig{Users: 8_000, Edges: 60_000, Exponent: 2.3, MaxDegree: 250, Seed: 4}
}

// SocialSchema: a homogeneous graph with one vertex and one edge type.
func SocialSchema() *graph.Schema {
	return declareEdgeTS(graph.MustSchema(
		[]string{"User"},
		[]graph.EdgeType{{From: "User", To: "User", Name: "FOLLOWS"}},
	))
}

// SocialNetwork generates a directed Chung-Lu graph: endpoints are drawn
// proportionally to power-law weights w_i = i^(-1/(γ-1)), so both in- and
// out-degrees follow a power law with exponent ≈ γ like soc-livejournal's.
func SocialNetwork(cfg SocialConfig) (*graph.Graph, error) {
	if cfg.Users < 2 || cfg.Edges < 1 {
		return nil, fmt.Errorf("datagen: social network needs users and edges")
	}
	gamma := cfg.Exponent
	if gamma <= 1.1 {
		gamma = 2.3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.NewGraph(SocialSchema())
	ids := make([]graph.VertexID, cfg.Users)
	for i := range ids {
		ids[i] = g.MustAddVertex("User", nil)
	}
	// Power-law weights, optionally clamped so the top hub's expected
	// degree stays near MaxDegree (fixed-point on the normalizer).
	beta := 1 / (gamma - 1)
	weights := make([]float64, cfg.Users)
	for i := range weights {
		weights[i] = powNeg(float64(i+1), beta)
	}
	if cfg.MaxDegree > 0 {
		for iter := 0; iter < 4; iter++ {
			sum := 0.0
			for _, w := range weights {
				sum += w
			}
			// Each edge draws two endpoints, so a vertex's expected
			// incident count is 2*E*w/sum.
			clamp := float64(cfg.MaxDegree) * sum / (2 * float64(cfg.Edges))
			for i, w := range weights {
				if w > clamp {
					weights[i] = clamp
				}
			}
		}
	}
	// Cumulative weights for inverse-CDF sampling.
	cum := make([]float64, cfg.Users)
	total := 0.0
	for i, w := range weights {
		total += w
		cum[i] = total
	}
	pick := func() graph.VertexID {
		x := rng.Float64() * total
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return ids[lo]
	}
	var edges []pendingEdge
	for len(edges) < cfg.Edges {
		from, to := pick(), pick()
		if from == to {
			continue
		}
		edges = append(edges, pendingEdge{from: from, to: to, etype: "FOLLOWS"})
	}
	if err := addShuffled(g, edges, rng); err != nil {
		return nil, err
	}
	return g, nil
}

// --- prefixes (Fig. 5 sweeps) ---

// Prefix builds the subgraph induced by the first n edges of g (by edge
// ID, which is the deterministic shuffled emission order). Only vertices
// incident to those edges are kept. Vertex properties are shared with the
// original graph; edge properties are copied column to column.
func Prefix(g *graph.Graph, n int) (*graph.Graph, error) {
	if n > g.NumEdges() {
		n = g.NumEdges()
	}
	sub := graph.NewGraph(g.Schema())
	remap := make(map[graph.VertexID]graph.VertexID)
	mapv := func(old graph.VertexID) (graph.VertexID, error) {
		if nv, ok := remap[old]; ok {
			return nv, nil
		}
		v := g.Vertex(old)
		nv, err := sub.AddVertex(v.Type, v.Props)
		if err != nil {
			return graph.NoVertex, err
		}
		remap[old] = nv
		return nv, nil
	}
	for i := 0; i < n; i++ {
		eid := graph.EdgeID(i)
		e := g.Edge(eid)
		from, err := mapv(e.From)
		if err != nil {
			return nil, err
		}
		to, err := mapv(e.To)
		if err != nil {
			return nil, err
		}
		if _, err := sub.AddEdgeFrom(g, eid, from, to); err != nil {
			return nil, err
		}
	}
	return sub, nil
}

// Generate builds a dataset by name with its default configuration,
// scaled by the given factor (0 < scale; 1 = defaults).
func Generate(name string, scale float64, seed int64) (*graph.Graph, error) {
	if scale <= 0 {
		scale = 1
	}
	s := func(n int) int { return max(2, int(float64(n)*scale)) }
	switch name {
	case NameProv:
		cfg := DefaultProvConfig()
		cfg.Jobs, cfg.Files = s(cfg.Jobs), s(cfg.Files)
		cfg.Machines, cfg.Users = s(cfg.Machines), s(cfg.Users)
		if seed != 0 {
			cfg.Seed = seed
		}
		return Prov(cfg)
	case NameDBLP:
		cfg := DefaultDBLPConfig()
		cfg.Authors, cfg.Papers, cfg.Venues = s(cfg.Authors), s(cfg.Papers), s(cfg.Venues)
		if seed != 0 {
			cfg.Seed = seed
		}
		return DBLP(cfg)
	case NameRoadNet:
		cfg := DefaultRoadNetConfig()
		// Scale area linearly: sides scale by sqrt.
		side := func(n int) int { return max(2, int(float64(n)*sqrtish(scale))) }
		cfg.Width, cfg.Height = side(cfg.Width), side(cfg.Height)
		if seed != 0 {
			cfg.Seed = seed
		}
		return RoadNet(cfg)
	case NameSocial:
		cfg := DefaultSocialConfig()
		cfg.Users, cfg.Edges = s(cfg.Users), s(cfg.Edges)
		if seed != 0 {
			cfg.Seed = seed
		}
		return SocialNetwork(cfg)
	}
	return nil, fmt.Errorf("datagen: unknown dataset %q (want prov, dblp, roadnet, or soc)", name)
}

// powNeg computes x^(-b) for positive x via exp/log-free repeated
// squaring on the math library.
func powNeg(x, b float64) float64 { return math.Pow(x, -b) }

func sqrtish(x float64) float64 {
	if x <= 0 {
		return 1
	}
	// Newton's method; avoids importing math for one call site.
	z := x
	for i := 0; i < 20; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
