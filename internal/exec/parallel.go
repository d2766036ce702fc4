package exec

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kaskade/internal/gql"
	"kaskade/internal/graph"
	"kaskade/internal/par"
)

// The chunked core is streamMatch's schedule for more than one worker.
// It partitions the first node's candidates (firstNodeCandidates, after
// the column prefilter) into contiguous chunks, and runs the same
// candidate loop the inline schedule runs (matcher.matchCands) over
// each chunk, one independent matcher (own binding slots, own
// edge-uniqueness set) per pooled worker. Chunks are merged in
// partition order, so the result rows, aggregation group order, and
// row-limit behavior are identical to one worker walking every
// candidate inline: workers=N is a pure speedup, never a semantic
// change.
//
// How a chunk's yields travel to the merge depends on whether the
// driver runs a fold:
//
//   - Pure projection: workers publish each projected row as it is
//     produced, and the merge streams the front partition's prefix
//     while the chunk is still matching — a streaming consumer sees
//     chunk 0's first row long before chunk 0 (or the full binding
//     space) completes.
//   - A fold (the MATCH's own aggregation, or a SELECT's fused over
//     it): each chunk feeds its own folder, and the merge combines
//     per-chunk states in partition order. Every accumulator merges
//     exactly (SUM and AVG keep an exact running sum), so the combined
//     result is byte-identical to one inline feed, with no per-yield
//     buffer at all.
//
// Cancellation flows through three layers — the pool stops handing out
// chunks (par.DoContext), each in-flight matcher polls the context
// between traversal steps, and the merge loop itself selects on the
// context while waiting for a partition.
//
// Correctness rests on two facts: (1) subtrees of the backtracking
// search rooted at different first-node bindings never share mutable
// state, and (2) graph.Graph is read-only after load, so any number of
// matchers may traverse it concurrently.

// chunkTarget is the number of chunks created per worker. More chunks
// than workers lets fast workers steal the tail of the candidate list,
// which matters on power-law graphs where hub vertices concentrate work
// in a few candidates.
const chunkTarget = 16

// matchChunk holds one partition's yields: projected rows for a pure
// projection, or a chunk-local folder (fd) for a fold. yields counts yield *events*, which can exceed the
// recorded rows by one when the last yield's evaluation errored — the
// merge phase needs the event position to reproduce the inline
// schedule's check-limit-then-evaluate order.
//
// For a projection the worker publishes rows under mu and nudges wake,
// so the merge can stream the chunk's row prefix while the chunk is
// still matching — but only while the chunk is the merge *front* (the
// atomic front index): rows of chunks the merge has not reached yet
// buffer lock-free in the worker and flush when the front arrives or
// the chunk completes, so trailing chunks pay no per-row
// synchronization. A folding chunk writes its fields unlocked and
// publishes once, at chunk completion (the done flag is always set
// under mu, which orders those writes before the merge's reads). err is
// the chunk's terminal error, written by the claim loop before its
// completion hook runs.
type matchChunk struct {
	mu     sync.Mutex
	wake   chan struct{} // cap 1; nudged on publish and completion
	yields int
	rows   []Row
	fd     *folder
	done   bool
	err    error
}

// nudge wakes the merge loop if it is (or is about to start) waiting on
// this chunk. The channel holds at most one token; a pending token
// already guarantees a wakeup, so the send never blocks.
func (ch *matchChunk) nudge() {
	select {
	case ch.wake <- struct{}{}:
	default:
	}
}

// complete marks the chunk finished and wakes the merge. All worker
// writes to the chunk happen before this on the worker's goroutine, so
// the merge — which re-reads state under mu after observing done — sees
// them.
func (ch *matchChunk) complete() {
	ch.mu.Lock()
	ch.done = true
	ch.mu.Unlock()
	ch.nudge()
}

// firstNodeCandidates resolves the binding space of the first node of
// the first pattern in bindNode's enumeration order: the typed vertex
// list when the node is typed (n = len(ids)), every vertex otherwise
// (ids nil: the candidates are the IDs 0..n-1 themselves, so an untyped
// scan allocates nothing). ok is false when there is no first node (no
// patterns, or an empty first pattern); startPattern handles those.
func firstNodeCandidates(g *graph.Graph, patterns []gql.PathPattern) (ids []graph.VertexID, n int, ok bool) {
	if len(patterns) == 0 || len(patterns[0].Nodes) == 0 {
		return nil, 0, false
	}
	if t := patterns[0].Nodes[0].Type; t != "" {
		ids = g.VerticesOfType(t)
		return ids, len(ids), true
	}
	return nil, g.NumVertices(), true
}

// matchChunked is the chunked schedule: the n candidates (see
// matcher.matchCands for ids) fanned out across `workers` goroutines and
// merged back into yield in candidate order, folded by fo when it is
// non-nil. matchStart times the match stage from candidate resolution
// on.
func (ex *Executor) matchChunked(ctx context.Context, q *gql.MatchQuery, f *graph.Frozen, fo *fold, ids []graph.VertexID, n, workers int, matchStart time.Time, yield func(Row, error) bool) {
	// Contiguous chunks in candidate order; concatenating chunk results
	// in chunk-index order reproduces the inline enumeration.
	chunkSize, numChunks := par.Chunks(n, workers, chunkTarget)
	// wctx scopes the workers to this consumption: when the
	// consumer stops early (Rows.Close, broken range loop), the
	// deferred cancel reels the pool back in before the stream
	// returns, so no goroutine outlives the query.
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	chunks := make([]matchChunk, numChunks)
	for i := range chunks {
		chunks[i].wake = make(chan struct{}, 1)
	}
	// The merge target; nil for a pure projection. Workers never
	// touch it — each folding chunk feeds its own.
	fd := fo.newFolder()
	// front is the partition the merge currently consumes. Projecting
	// workers publish per row only while their chunk is the front;
	// it starts at 0, so chunk 0's first row is visible immediately.
	var front atomic.Int64

	poolDone := make(chan struct{})
	go func() {
		defer close(poolDone)
		par.DoContextDone(wctx, numChunks, workers, func(next func() (int, bool)) {
			// One matcher per worker: binding slots and usedEdge
			// drain back to empty between candidates, so the
			// per-matcher state is reusable across chunks without
			// cross-talk.
			m := ex.newMatcher(wctx, q, f)
			defer m.flushPropReads(ex.Metrics)
			for {
				ci, ok := next()
				if !ok {
					return
				}
				lo := ci * chunkSize
				hi := min(lo+chunkSize, n)
				chunks[ci].err = ex.matchChunkRange(m, q, fo, ids, lo, hi, &chunks[ci], ci, &front)
			}
		}, func(ci int) {
			// Chunk-completion hook: the merge loop rendezvouses on
			// this, in partition order.
			chunks[ci].complete()
		})
	}()
	defer func() { cancel(); <-poolDone }()

	// Merge: consume the chunks in partition order, reproducing the
	// inline schedule's row order, aggregation feed order, row-limit
	// check, and first-error position. Only the front partition is
	// ever waited on; for a projection its published prefix streams
	// out while the chunk is still matching.
	rows := 0
	for ci := range numChunks {
		ch := &chunks[ci]
		front.Store(int64(ci))
		consumed := 0 // row entries already yielded (projection)
		for {
			// Under mu, read only what is published incrementally:
			// the done flag always, the row prefix of a projection.
			// A folding chunk writes its fields unlocked and
			// orders them before the merge's reads via complete()'s
			// critical section, so they must not be touched until
			// done is observed.
			ch.mu.Lock()
			done := ch.done
			var published []Row
			if fd == nil {
				published = ch.rows // entries are immutable once appended
			}
			ch.mu.Unlock()

			if fd == nil {
				// Stream the freshly published prefix. The global
				// row count and limit check advance at the position
				// the inline schedule checks them — before
				// evaluation.
				for consumed < len(published) {
					rows++
					if ex.MaxRows > 0 && rows > ex.MaxRows {
						yield(nil, ErrRowLimit)
						return
					}
					if !yield(published[consumed], nil) {
						return
					}
					consumed++
				}
			}

			if done {
				// A done observed under mu happened after the
				// chunk's final publish, so consumed covers every
				// recorded row and the remaining fields are frozen.
				if err := ex.mergeChunk(fd, ch, consumed, &rows, yield); err != nil {
					return // mergeChunk already yielded the terminal error
				}
				break
			}
			select {
			case <-ch.wake:
			case <-wctx.Done():
				// Cancelled while a partition was still matching
				// (the pool may never claim it once the context is
				// done).
				yield(nil, wctx.Err())
				return
			}
		}
	}
	if ex.Prof != nil {
		// rows counts yield events merged across every partition —
		// the inline schedule's pre-aggregation row count.
		ex.Prof.add("match", int64(rows), numChunks, time.Since(matchStart))
	}
	ex.finishFold(fd, yield)
}

// errMergeStop signals mergeChunk's caller that the stream terminated
// (the terminal yield already happened inside mergeChunk).
var errMergeStop = errors.New("exec: merge stopped")

// mergeChunk folds one completed chunk into the merge state. It must
// only run after the chunk's done flag was observed under its mutex, at
// which point every field is frozen. It returns nil when the merge
// should advance to the next partition, errMergeStop when the stream is
// over (terminal error already yielded, or consumer stopped).
func (ex *Executor) mergeChunk(fd *folder, ch *matchChunk, consumed int, rows *int, yield func(Row, error) bool) error {
	yields, chErr := ch.yields, ch.err
	if fd == nil {
		// The streaming loop above already yielded every recorded row;
		// what remains are trailing entry-less events — at most the one
		// whose evaluation errored, or the local-limit overflow event —
		// which must still pass through the limit gate at their global
		// position before the chunk error (if any) surfaces.
		for ; consumed < yields; consumed++ {
			*rows++
			if ex.MaxRows > 0 && *rows > ex.MaxRows {
				yield(nil, ErrRowLimit)
				return errMergeStop
			}
		}
		if chErr != nil {
			yield(nil, chErr)
			return errMergeStop
		}
		return nil
	}
	// The chunk's yields were folded into its folder as they happened;
	// only the event count travels here. The limit gate
	// trips iff the inline schedule would have checked rows > MaxRows at
	// one of this chunk's events — and since a chunk error is positioned
	// at (or after) the chunk's last event, the gate wins exactly when
	// the inline schedule's earlier limit-before-evaluate check would.
	if ex.MaxRows > 0 && *rows+yields > ex.MaxRows {
		yield(nil, ErrRowLimit)
		return errMergeStop
	}
	*rows += yields
	// The chunk's partial is merged before its own error surfaces: the
	// inline schedule fed the rows before that error into the running
	// groups, so a conflict between them and the earlier partitions
	// (MIN over an int64 and a string) is the error it met first.
	if ch.fd != nil {
		if err := fd.merge(ch.fd); err != nil {
			yield(nil, err)
			return errMergeStop
		}
	}
	if chErr != nil {
		yield(nil, chErr)
		return errMergeStop
	}
	return nil
}

// errPartitionLimit aborts a worker whose local yield count alone
// already exceeds MaxRows; the merge loop converts it into the inline
// schedule's ErrRowLimit at the equivalent global row.
var errPartitionLimit = &partitionLimitError{}

type partitionLimitError struct{}

func (*partitionLimitError) Error() string { return "exec: partition row limit" }

// matchChunkRange runs the candidate loop over chunk ci's candidates
// [lo, hi), recording yields into ch. A fold evaluates its rows, group
// keys and argument expressions here, on the worker, and accumulates
// into the chunk's own folder (ch.fd), untouched by anyone else until
// the merge.
//
// Yield-event accounting mirrors the inline schedule's order either
// way: count the row and check the limit BEFORE evaluating any
// expression, so an evaluation error beyond the row limit surfaces as
// ErrRowLimit, not as the eval error the inline schedule never reaches.
// The worker can only apply its local limit (its count is a lower bound
// on the global one); the merge phase re-checks globally.
//
// A projection checks the merge front (one atomic load per yield):
// while this chunk IS the front, each row is appended to ch.rows under
// the mutex and the merge woken — eager streaming; otherwise rows pile
// up in a worker-local pending buffer that is flushed under the mutex
// when the front catches up (at the next yield) or, at the latest, by
// the finalize before the chunk completes. The merge reads ch.yields
// and ch.err only after done, so they need no per-yield
// synchronization.
func (ex *Executor) matchChunkRange(m *matcher, q *gql.MatchQuery, fo *fold, ids []graph.VertexID, lo, hi int, ch *matchChunk, ci int, front *atomic.Int64) error {
	if fo != nil {
		ch.fd = fo.newFolder()
		m.yield = func() error {
			ch.yields++
			if ex.MaxRows > 0 && ch.yields > ex.MaxRows {
				return errPartitionLimit
			}
			return ch.fd.feed(m)
		}
	} else {
		events := 0
		var pending []Row
		// finalize lands everything the merge has not seen yet — pending
		// rows and the final event count (which exceeds the row count by
		// one when the last event's evaluation errored). It runs before
		// the completion hook, whose critical section orders these
		// writes ahead of the merge's post-done reads.
		defer func() {
			ch.mu.Lock()
			ch.rows = append(ch.rows, pending...)
			ch.yields = events
			ch.mu.Unlock()
		}()
		m.yield = func() error {
			events++
			if ex.MaxRows > 0 && events > ex.MaxRows {
				return errPartitionLimit
			}
			row, err := project(q.Return, m)
			if err != nil {
				return err
			}
			if front.Load() != int64(ci) {
				pending = append(pending, row)
				return nil
			}
			ch.mu.Lock()
			if len(pending) > 0 {
				ch.rows = append(ch.rows, pending...)
				pending = pending[:0]
			}
			ch.rows = append(ch.rows, row)
			ch.mu.Unlock()
			ch.nudge()
			return nil
		}
	}
	return m.matchCands(q.Patterns, ids, lo, hi)
}

// effectiveWorkers resolves the Workers knob: 0 and 1 mean one worker,
// negative means one worker per available CPU.
func (ex *Executor) effectiveWorkers() int {
	if ex.Workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return ex.Workers
}
