package exec

import (
	"fmt"
	"strings"
	"time"
)

// StageProfile is one executed stage's actuals: rows it emitted,
// parallel chunks it merged (0 for a stage that ran inline), and the
// wall time attributed to it.
type StageProfile struct {
	Stage  string
	Rows   int64
	Chunks int
	Dur    time.Duration
}

// Profile collects per-stage actuals for one execution — the data
// behind EXPLAIN ANALYZE. Attach a fresh Profile to Executor.Prof
// before executing; the match, aggregation, and relational-tail stages
// record themselves as they complete, and the executor stamps Total
// and Rows when the stream finishes. A Profile is single-use and
// written only from the consuming goroutine (the parallel matcher's
// merge loop runs there), so it needs no synchronization.
//
// Stage semantics: the match stage's Rows are yield events — pattern
// matches fed downstream, before aggregation collapses them; the
// aggregate stage's Rows are the groups it emitted; a SELECT's
// subquery stages appear first, followed by the relational tail
// (filter/project or aggregate, then order/limit). Rows on the final
// stage therefore equals Total rows returned, byte-for-byte what the
// buffered Execute path holds. The tail consumes rows as they are
// produced, so its per-row work is timed inside the stage that feeds
// it; a tail stage's time is what runs after its input ends. A SELECT
// that aggregates inside its MATCH's yield shows the match stage, then
// its "select: aggregate" stage timing the groups' finish.
type Profile struct {
	Workers int
	Stages  []StageProfile
	// Rows is the number of result rows the execution returned; Total
	// is its end-to-end wall time (including stream consumption).
	Rows  int64
	Total time.Duration
}

// add appends one completed stage.
func (p *Profile) add(stage string, rows int64, chunks int, d time.Duration) {
	p.Stages = append(p.Stages, StageProfile{Stage: stage, Rows: rows, Chunks: chunks, Dur: d})
}

// String renders the profile as an aligned per-stage table.
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12s %8s %12s\n", "stage", "rows", "chunks", "time")
	for _, s := range p.Stages {
		chunks := ""
		if s.Chunks > 0 {
			chunks = fmt.Sprintf("%d", s.Chunks)
		}
		fmt.Fprintf(&b, "%-28s %12d %8s %12s\n", s.Stage, s.Rows, chunks, fmtDur(s.Dur))
	}
	fmt.Fprintf(&b, "%-28s %12d %8s %12s\n", "total", p.Rows, "", fmtDur(p.Total))
	return b.String()
}

// fmtDur renders a duration with microsecond-scale precision — stable
// widths for the table without nanosecond noise.
func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}
