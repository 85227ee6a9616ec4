package authserve

// Background WAL compaction. The log keeps mutations O(record), but an
// unbounded log makes recovery O(history); the compactor bounds it by
// folding any shard log past StoreOptions.CompactBytes into the shard's
// segment (see the Segments section of wal.go).
//
// # State machine
//
// A compaction of one shard, under that shard's lock, is three steps:
//
//  0. barrier: flush the group-commit queue (wal.flush). With the fsync
//     wait decoupled from the shard lock, in-memory state can be ahead
//     of the durable log; writing such state out would persist
//     mutations whose commit may still fail and roll back. The barrier
//     waits until every previously submitted record has a verdict —
//     and holding the shard lock guarantees no new ones race in.
//  1. segment: write the verifier state durably (temp file, fsync,
//     rename, directory fsync — persistLocked). The segment now
//     contains everything the log does.
//  2. truncate: reset the WAL to empty and fsync the truncation.
//
// Crash anywhere before step 1's rename finishes: the old segment plus
// the full log recover the state. Crash between the rename and step 2:
// the NEW segment plus the full log — replay is idempotent (duplicate
// enrolls skipped, consume re-marks), so recovery converges to the same
// state. Crash after step 2: the new segment plus an empty log. There is
// no ordering in which an acknowledged mutation is lost.
//
// Holding the shard lock for the segment write pauses that one shard's
// requests for the write's duration; the other shards keep serving. The
// alternative (copy-on-write state) buys latency with a full state
// copy — not worth it at the shard sizes the threshold implies.

// compactor owns the background folding goroutine. Appends kick it
// (non-blocking, coalescing) when a shard log passes the threshold; it
// scans all shards on each kick so one signal can fold several logs.
type compactor struct {
	kickc chan struct{}
	stopc chan struct{}
	done  chan struct{}
}

// startCompactor launches the folding goroutine.
func (s *Store) startCompactor() *compactor {
	c := &compactor{
		kickc: make(chan struct{}, 1),
		stopc: make(chan struct{}),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(c.done)
		for {
			select {
			case <-c.stopc:
				return
			case <-c.kickc:
				s.compactOverThreshold()
			}
		}
	}()
	return c
}

// kick wakes the compactor without blocking; a kick while one is already
// pending coalesces.
func (c *compactor) kick() {
	select {
	case c.kickc <- struct{}{}:
	default:
	}
}

func (c *compactor) stopAndWait() {
	close(c.stopc)
	<-c.done
}

// compactOverThreshold folds every shard whose log passed the threshold.
// Errors are not returned — they are counted (snapshotFailures or
// walFailures) and surface through /healthz; the log keeps growing and
// the next kick retries.
func (s *Store) compactOverThreshold() {
	for _, sh := range s.shards {
		if sh.walSize.Load() < s.opt.CompactBytes {
			continue
		}
		sh.mu.Lock()
		_ = s.compactShardLocked(sh)
		sh.mu.Unlock()
	}
}

// compactShardLocked folds one shard's WAL into its segment; the caller
// holds the shard lock. An empty log is a no-op (the segment is already
// current).
func (s *Store) compactShardLocked(sh *shard) error {
	if sh.wal == nil {
		return nil
	}
	if err := sh.wal.flush(); err != nil {
		// A failed barrier means a group commit failed (the WAL is
		// latched broken): the in-memory state contains rolled-back (or
		// about-to-roll-back) mutations and must not be written out.
		return err
	}
	if sh.wal.committedSize() == 0 {
		return nil
	}
	if err := sh.persistLocked(); err != nil {
		s.snapshotFailures.Add(1)
		return err
	}
	if s.testCrashBeforeWALReset {
		return nil
	}
	if err := sh.wal.reset(); err != nil {
		s.walFailures.Add(1)
		return err
	}
	sh.walSize.Store(0)
	s.compactions.Inc()
	return nil
}
