package algo

import (
	"reflect"
	"testing"

	"kaskade/internal/datagen"
	"kaskade/internal/graph"
)

// TestEdgeColumnPathLengthsMatchTwin pins Q4's kernel on the column
// store: PathLengths over prov, whose ts lives in an int64 edge column,
// equals the same call over a schemaless twin whose edges keep ts in
// their maps — from every Job, with edges added after a freeze too.
func TestEdgeColumnPathLengthsMatchTwin(t *testing.T) {
	g, err := datagen.Prov(datagen.ProvConfig{
		Jobs: 40, Files: 90, TasksPerJob: 2, Machines: 4, Users: 3,
		MaxReads: 8, Pipelines: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	twinOf := func() *graph.Graph {
		tw := graph.NewGraph(nil)
		g.EachVertex(func(v *graph.Vertex) { tw.MustAddVertex(v.Type, v.Props) })
		g.EachEdge(func(e graph.Edge) { tw.MustAddEdge(e.From, e.To, e.Type, g.EdgeProps(e.ID)) })
		return tw
	}
	check := func(phase string) {
		t.Helper()
		twin := twinOf()
		reached := 0
		for _, j := range g.VerticesOfType("Job") {
			got, want := PathLengths(g, j, 4, "ts"), PathLengths(twin, j, 4, "ts")
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: PathLengths from %d = %v, twin %v", phase, j, got, want)
			}
			reached += len(got)
		}
		if reached == 0 {
			t.Fatalf("%s: no path reached anything — vacuous", phase)
		}
	}
	check("loaded")
	g.SetCompactionThreshold(1 << 20)
	g.Freeze()
	jobs, files := g.VerticesOfType("Job"), g.VerticesOfType("File")
	for i := 0; i < 30; i++ {
		ts := graph.Properties{"ts": int64(10_000 - i)}
		g.MustAddEdge(jobs[i%len(jobs)], files[(i*7)%len(files)], "WRITES_TO", ts)
		g.MustAddEdge(files[(i*11)%len(files)], jobs[(i*3)%len(jobs)], "IS_READ_BY", ts)
	}
	check("tail")
}
