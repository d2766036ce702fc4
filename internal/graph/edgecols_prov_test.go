package graph_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"kaskade/internal/datagen"
	"kaskade/internal/graph"
)

// provRecordsDigest is the SHA-256 of the V and E lines graph.Save
// wrote for the prov graph below while every edge kept its ts in a
// property map; the column store must write the same bytes.
const provRecordsDigest = "8c157c41fc85461e1f2daa38a9e79d652d0476727c0475cf438a40b85dfe8829"

// TestEdgeColumnProvSaveMatchesMapStore pins graph.Save over prov, whose
// edges hold their ts only in a column: its V/E lines are the bytes the
// map store wrote, and Load(Save(g)) saves byte-identically.
func TestEdgeColumnProvSaveMatchesMapStore(t *testing.T) {
	g, err := datagen.Prov(datagen.ProvConfig{
		Jobs: 60, Files: 150, TasksPerJob: 2, Machines: 6, Users: 3,
		MaxReads: 10, Pipelines: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	save := func(x *graph.Graph) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := graph.Save(&buf, x); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	out := save(g)
	header, records, _ := bytes.Cut(out, []byte("\n"))
	if !bytes.HasPrefix(header, []byte("S\t")) {
		t.Fatalf("first line %q is not the schema header", header)
	}
	sum := sha256.Sum256(records)
	if got := hex.EncodeToString(sum[:]); got != provRecordsDigest {
		t.Errorf("V/E lines digest %s, want %s", got, provRecordsDigest)
	}
	back, err := graph.Load(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if again := save(back); !bytes.Equal(again, out) {
		t.Error("Load(Save(prov)) saves different bytes")
	}
	back.EachEdge(func(e graph.Edge) {
		if e.Props != nil {
			t.Fatalf("loaded edge %d keeps map %v", e.ID, e.Props)
		}
	})
}
