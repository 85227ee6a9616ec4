package dataset

import (
	"context"
	"fmt"
	"sync"

	"ropuf/internal/fleet"
	"ropuf/internal/rngx"
)

// StreamVT generates the VT dataset one board at a time, invoking fn with
// each board in ID order. Unlike GenerateVT it never materializes the
// corpus: one die and one board are refilled in place for every board, so
// memory is constant in the board count and the steady state allocates no
// die or board storage; the paper-scale 199-board corpus — or a 10k-board
// fleet — streams straight to disk. The board sequence is bit-identical to
// GenerateVT at the same configuration (GenerateVT is StreamVT plus an
// accumulator; the equivalence battery in stream_test.go pins it).
//
// The *Board passed to fn is borrowed: it is valid only until fn returns,
// after which StreamVT refills it with the next board (the
// bufio.Scanner.Bytes idiom). A callback that keeps a board, or any slice
// or map it holds, keeps b.Clone().
func StreamVT(cfg VTConfig, fn func(*Board) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	return streamVT(context.Background(), cfg, rngx.New(cfg.Seed), fn)
}

// streamVT is StreamVT over an explicit root generator and context; the
// golden test drives it directly to pin the post-generation root state.
func streamVT(ctx context.Context, cfg VTConfig, root *rngx.RNG, fn func(*Board) error) error {
	fab := newFabricator(cfg)
	var bb boardBuf
	for id := 0; id < cfg.NumBoards; id++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("dataset: stream cancelled: %w", err)
		}
		brng := root.Split()
		if err := fab.board(id, id >= cfg.NumBoards-cfg.NumEnvBoards, brng, &bb); err != nil {
			return fmt.Errorf("dataset: board %d: %w", id, err)
		}
		if err := fn(&bb.Board); err != nil {
			return err
		}
	}
	return nil
}

// streamWindow is StreamVTParallel's reorder window for a worker count:
// the most boards dispatched but not yet emitted, and so the most boards
// it ever allocates.
func streamWindow(workers int) int { return 2*workers + 2 }

// streamResult carries one generated board from a worker to the in-order
// emitter.
type streamResult struct {
	idx int
	bb  *boardBuf
	err error
}

// StreamVTParallel is StreamVT with board fabrication fanned out over a
// bounded worker pool (fleet.Dispatch). Per-board RNG seeds are drawn
// serially in dispatch order through the prepare hook, so the emitted
// board sequence — order and bits — is identical to StreamVT regardless of
// worker count or scheduling. fn is always invoked from the calling
// goroutine, in board-ID order, with completed boards held in a reorder
// window bounded by the worker count (dispatch is window-throttled, so
// memory stays constant in the board count even when one board runs slow).
// Each worker refabricates one die in place, and boards are recycled
// through a free list once fn returns, so at most streamWindow(workers)
// boards are ever allocated. workers <= 1 degrades to the serial
// generator.
//
// As with StreamVT, the *Board passed to fn is borrowed: it is valid only
// until fn returns, after which a worker refills it. A callback that keeps
// a board keeps b.Clone().
func StreamVTParallel(ctx context.Context, cfg VTConfig, workers int, fn func(*Board) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 1 {
		return streamVT(ctx, cfg, rngx.New(cfg.Seed), fn)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	root := rngx.New(cfg.Seed)
	n := cfg.NumBoards

	// The prepare hook draws seeds in strictly increasing board order (the
	// serial Split stream) and throttles dispatch to the reorder window:
	// a board is only handed to a worker once fewer than `window` boards
	// are dispatched-but-unemitted, which bounds worker-side buffering.
	// A token is returned only after its board is back on the free list,
	// so every allocated board is either free or held by a token: at most
	// `window` boards exist.
	window := streamWindow(workers)
	tokens := make(chan struct{}, window)
	free := make(chan *boardBuf, window)
	var seedMu sync.Mutex
	seeds := make(map[int]uint64, window)
	prepare := func(idx int) {
		select {
		case tokens <- struct{}{}:
		case <-ctx.Done():
			return
		}
		seedMu.Lock()
		seeds[idx] = root.SplitSeed()
		seedMu.Unlock()
	}

	results := make(chan streamResult, window)
	fabs := make([]*fabricator, workers)
	for i := range fabs {
		fabs[i] = newFabricator(cfg)
	}
	run := func(worker, idx int) {
		seedMu.Lock()
		seed, ok := seeds[idx]
		delete(seeds, idx)
		seedMu.Unlock()
		if !ok {
			// prepare was cancelled before drawing this seed; the dispatch
			// loop is about to stop, drop the job.
			return
		}
		var bb *boardBuf
		select {
		case bb = <-free:
		default:
			bb = new(boardBuf)
		}
		err := fabs[worker].board(idx, idx >= n-cfg.NumEnvBoards, rngx.New(seed), bb)
		if err != nil {
			err = fmt.Errorf("dataset: board %d: %w", idx, err)
		}
		select {
		case results <- streamResult{idx: idx, bb: bb, err: err}:
		case <-ctx.Done():
		}
	}

	var dispatchErr error
	go func() {
		dispatchErr = fleet.Dispatch(ctx, n, workers, prepare, run)
		close(results)
	}()

	pending := make(map[int]streamResult, window)
	next := 0
	var emitErr error
	for r := range results {
		pending[r.idx] = r
		for {
			cur, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			// After an error, keep draining so workers never block on a
			// full channel.
			if emitErr == nil {
				if cur.err != nil {
					emitErr = cur.err
				} else {
					emitErr = fn(&cur.bb.Board)
				}
				if emitErr != nil {
					cancel()
				}
			}
			// Recycle the board before releasing its token. Neither
			// operation can block (free has room for every board, and
			// every result holds a token); the selects keep it that way.
			select {
			case free <- cur.bb:
			default:
			}
			select {
			case <-tokens:
			default:
			}
		}
	}
	if emitErr != nil {
		return emitErr
	}
	if dispatchErr != nil {
		return dispatchErr
	}
	if next != n {
		return fmt.Errorf("dataset: stream emitted %d of %d boards", next, n)
	}
	return nil
}
