package server

import (
	"log"
	"path/filepath"
	"time"

	"lwcomp/internal/scrub"
	"lwcomp/internal/storage"
)

// This file hosts the background scrubber inside the query server:
// low-priority sweeps that fsck-walk every mounted container from disk
// under a byte-rate budget, quarantining rotten blocks on the mounted
// columns before any query trips over them. With auto-heal enabled the
// sweep also runs salvage repair on each damaged container and swaps
// the healed generation in via reload — the full self-healing loop:
// detect, quarantine, heal or tombstone, re-admit. Like compaction,
// scrub work yields to query traffic and never takes an admission
// slot; the two daemons share one sweep mutex so at most one
// directory-mutating sweep runs at a time.

// scrubResult summarizes one scrub sweep for /-/scrub and the logs.
type scrubResult struct {
	// Containers and Blocks count what the sweep walked.
	Containers int `json:"containers"`
	// Blocks is the number of blocks verified (tombstones included).
	Blocks int `json:"blocks"`
	// Errors counts this sweep's integrity findings.
	Errors int `json:"errors"`
	// Quarantined counts blocks newly quarantined on mounted columns.
	Quarantined int `json:"quarantined"`
	// Tombstones counts persisted tombstones seen — known degraded
	// state from earlier repairs, not new findings.
	Tombstones int `json:"tombstones"`
	// Healed counts containers salvage-repaired and swapped in: each
	// is counted once the reload that serves it has succeeded.
	Healed int `json:"healed"`
	// Unrepairable counts containers repair had to leave untouched.
	Unrepairable int `json:"unrepairable"`
	// TombstonedBlocks counts blocks the sweep's heals declared lost.
	TombstonedBlocks int `json:"tombstoned_blocks"`
	// QuarantineCleared counts ledger entries retired by the healed
	// generations' swap.
	QuarantineCleared int `json:"quarantine_cleared"`
	// Reloaded reports whether any healed container was re-mounted.
	Reloaded bool `json:"reloaded"`
	// Aborted reports a sweep cut short by server shutdown.
	Aborted bool `json:"aborted"`
}

// scrubOptions maps the serving config onto the scrubber's knobs.
func (c Config) scrubOptions() scrub.Options {
	return scrub.Options{
		RateBytesPerSec: c.ScrubRateBytes,
		Retry:           c.retryPolicy(),
		WrapReader:      c.FaultInjection,
	}
}

// repairOptions maps the serving config onto salvage repair's knobs.
func (c Config) repairOptions() scrub.RepairOptions {
	return scrub.RepairOptions{
		Retry:      c.retryPolicy(),
		WrapReader: c.FaultInjection,
	}
}

// scrubLoop is the daemon: one sweep per interval until Close.
func (s *Server) scrubLoop() {
	defer close(s.scrubDone)
	t := time.NewTicker(s.cfg.ScrubInterval)
	defer t.Stop()
	for {
		select {
		case <-s.scrubStop:
			return
		case <-t.C:
			res := s.scrubSweep(s.cfg.ScrubHeal)
			if res.Errors > 0 || res.Healed > 0 || res.Unrepairable > 0 {
				log.Printf("lwcd: scrub sweep: %d container(s), %d error(s), %d quarantined, %d healed, %d unrepairable",
					res.Containers, res.Errors, res.Quarantined, res.Healed, res.Unrepairable)
			}
		}
	}
}

// scrubTarget is one mounted container the sweep verifies: its path on
// disk and its mounted column handles (for quarantine propagation).
type scrubTarget struct {
	path string
	cols []storage.BlockedColumn
}

// scrubSweep fsck-walks every mounted container once, quarantining
// bad blocks on the mounted columns, and — when heal is set — salvage-
// repairing damaged containers, reloading after each one so a healed
// file is never on disk while its predecessor's quarantine still
// serves. Findings in containers scrubbed after such a reload
// quarantine the sweep's snapshot, not the new set; the next sweep
// finds them again. Only one sweep (scrub or compact) runs at a time;
// a tick that lands mid-sweep is dropped.
func (s *Server) scrubSweep(heal bool) scrubResult {
	var res scrubResult
	if !s.sweepMu.TryLock() {
		return res
	}
	defer s.sweepMu.Unlock()
	s.scrubSweeps.Add(1)

	// Snapshot the mounted set and hold a reference for the whole
	// sweep so the column handles stay valid under a concurrent
	// reload.
	ms := s.acquireMounts()
	defer ms.release()
	var targets []scrubTarget
	for _, name := range ms.names {
		mt := ms.tables[name]
		for ci, cf := range mt.containers {
			targets = append(targets, scrubTarget{
				path: filepath.Join(s.cfg.Dir, mt.files[ci]),
				cols: cf.Columns(),
			})
		}
	}

	for _, tg := range targets {
		if !s.idleYield(s.scrubStop) {
			res.Aborted = true
			s.scrubAborted.Add(1)
			return res
		}
		rep, err := s.scrubber.ScrubFile(tg.path)
		if err != nil {
			// Environmental (a container deleted mid-sweep): log and
			// move on — the next sweep retries.
			log.Printf("lwcd: scrubbing %s: %v", tg.path, err)
			continue
		}
		res.Containers++
		res.Blocks += rep.Blocks
		res.Errors += len(rep.Issues)
		res.Tombstones += len(rep.Tombstones)
		for _, iss := range rep.Issues {
			if iss.Block < 0 {
				continue
			}
			if bc := findMountedColumn(tg.cols, iss.Column); bc != nil && bc.Col.Quarantine(iss.Block, iss.Err) {
				res.Quarantined++
				s.scrubQuarantined.Add(1)
			}
		}
		if !heal || len(rep.Issues) == 0 {
			continue
		}
		rr, err := scrub.RepairFile(tg.path, s.cfg.repairOptions())
		if err != nil {
			log.Printf("lwcd: repairing %s: %v", tg.path, err)
			continue
		}
		switch rr.Action {
		case scrub.ActionRepaired:
			log.Printf("lwcd: healed %s: %d preserved, %d reread, %d stats fixed, %d checksums fixed, %d tombstoned",
				tg.path, rr.Preserved, rr.Reread, rr.StatsFixed, rr.ChecksumsFixed, rr.Tombstoned)
			cleared := 0
			for _, bc := range tg.cols {
				cleared += bc.Col.QuarantineCount()
			}
			// The generation swap, one healed container at a time:
			// retired mount sets drain on their open descriptors (their
			// quarantine ledgers retiring with them), new queries open
			// the healed file with a clean ledger. The heal counts as
			// done only once the healed generation serves.
			if err := s.Reload(); err != nil {
				log.Printf("lwcd: reload after healing %s failed (still serving the previous set): %v", tg.path, err)
				continue
			}
			res.Healed++
			res.TombstonedBlocks += rr.Tombstoned
			res.QuarantineCleared += cleared
			res.Reloaded = true
			s.scrubHealed.Add(1)
		case scrub.ActionUnrepairable:
			res.Unrepairable++
			s.scrubUnrepairable.Add(1)
			log.Printf("lwcd: %s is unrepairable, left untouched: %s", tg.path, rr.Err)
		}
	}
	s.scrubber.MarkSweepDone()
	return res
}

// findMountedColumn resolves a verify finding's column name to the
// mounted handle. A single-column container matches unconditionally —
// under the <table>.<column>.lwc convention the served name comes from
// the filename and the container's internal name is an encode-time
// artifact.
func findMountedColumn(cols []storage.BlockedColumn, name string) *storage.BlockedColumn {
	if len(cols) == 1 {
		return &cols[0]
	}
	for i := range cols {
		if cols[i].Name == name {
			return &cols[i]
		}
	}
	return nil
}
