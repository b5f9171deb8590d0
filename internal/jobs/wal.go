package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// The WAL is JSON-lines, one record per line, appended at every state
// transition and fsynced at each one but start: a lost start record
// replays the job as queued, and replay requeues queued and running jobs
// alike, so syncing it would change nothing a replay produces (the next
// synced append flushes it anyway). Record shapes (fields omitted when
// empty):
//
//	{"op":"submit","id":"j…","kind":"sweep","req":{…},"cost":65536,"key":"<sha256>","t":"…"}
//	{"op":"start","id":"j…","t":"…"}
//	{"op":"done","id":"j…","key":"<sha256>","cached":true,"t":"…"}
//	{"op":"fail","id":"j…","error":"…","t":"…"}
//	{"op":"cancel","id":"j…","t":"…"}
//	{"op":"gc","id":"j…","t":"…"}
//
// Replay folds the records forward: submit creates (or revives) a job,
// start marks it running, done/fail/cancel terminate it, gc forgets it.
// After the fold, every job still queued or running is requeued — the
// crash-recovery guarantee — and the WAL is compacted to one submit
// (plus one terminal record) per surviving job, rewritten atomically via
// temp file + rename, so the journal cannot grow without bound across
// restarts. A torn or garbage tail ends the fold; the compaction rewrite
// then drops it.
type walRecord struct {
	Op   string          `json:"op"`
	ID   string          `json:"id"`
	Kind string          `json:"kind,omitempty"`
	Req  json.RawMessage `json:"req,omitempty"`
	Cost int64           `json:"cost,omitempty"`
	Key  string          `json:"key,omitempty"`
	// Tenant stamps submit records for per-tenant admission accounting.
	// omitempty keeps old journals replayable: a record without it folds
	// to the anonymous tenant.
	Tenant string `json:"tenant,omitempty"`
	// Prio stamps submit records with the job's priority class. The
	// normal class is the empty string and is omitted, so pre-priority
	// journals replay unchanged and priority-absent journals stay
	// byte-identical to the old format; an unknown value folds to
	// normal rather than tearing the tail (forgiving replay).
	Prio   string    `json:"prio,omitempty"`
	Error  string    `json:"error,omitempty"`
	Cached bool      `json:"cached,omitempty"`
	T      time.Time `json:"t"`
}

// appendWAL journals records with one write and one sync (callers hold
// q.mu). The sync is what makes Submit's ack a durability promise.
func (q *Queue) appendWAL(recs ...walRecord) error {
	return q.writeWAL(true, recs)
}

// writeWAL journals records with one write, synced when sync is set
// (callers hold q.mu). A failed write (ENOSPC mid-record, say) is clipped
// back to the pre-append offset — tracked in q.walSize, so the hot ack
// path pays no stat syscall — so a partial record cannot sit mid-file and
// merge with a later append into garbage that replay would treat as the
// torn tail, silently discarding every acked record after it.
func (q *Queue) writeWAL(sync bool, recs []walRecord) error {
	if q.opts.Observe != nil {
		// One "wal_append" sample per append, any sync included — the
		// disk's contribution to every ack, state transition and GC sweep.
		t0 := time.Now()
		defer func() { q.opts.Observe("wal_append", time.Since(t0)) }()
	}
	var line []byte
	for _, rec := range recs {
		if q.walAppendHook != nil {
			if err := q.walAppendHook(rec.Op); err != nil {
				return err
			}
		}
		data, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("jobs: encoding WAL record: %w", err)
		}
		line = append(append(line, data...), '\n')
	}
	if _, err := q.wal.Write(line); err != nil {
		_ = q.wal.Truncate(q.walSize) // best-effort clip of the partial record
		return fmt.Errorf("jobs: appending WAL record: %w", err)
	}
	q.walSize += int64(len(line))
	q.walBytes += int64(len(line)) // journal fill rate, for self-analysis
	if !sync {
		return nil
	}
	if err := q.wal.Sync(); err != nil {
		// The record is whole in the page cache; leave it — replay
		// parses it fine whether or not it reached the platter.
		return fmt.Errorf("jobs: syncing WAL: %w", err)
	}
	return nil
}

// validRecordOp guards the fold against JSON that parses but is not a
// record we wrote.
func validRecordOp(op string) bool {
	switch op {
	case "submit", "start", "done", "fail", "cancel", "gc":
		return true
	}
	return false
}

// replayWAL folds a journal into the job table it describes. It never
// panics whatever the bytes: a line that is not valid JSON, parses to a
// non-record, or references structure that is not there simply ends the
// fold (torn-tail semantics) or is skipped (dangling reference). The
// returned jobs have their live states as journaled — requeueing is the
// caller's decision.
func replayWAL(data []byte) map[string]*Job {
	jobs := make(map[string]*Job)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil || !validRecordOp(rec.Op) || rec.ID == "" {
			// Torn or foreign tail: everything before it already folded.
			return jobs
		}
		switch rec.Op {
		case "submit":
			// An unknown priority spelling folds to normal: a journal
			// from a newer (or corrupted) writer must replay, not tear.
			prio, perr := ParsePriority(rec.Prio)
			if perr != nil {
				prio = PriorityNormal
			}
			if j, ok := jobs[rec.ID]; ok {
				// A resubmit record revives a dead job in place.
				j.State = Queued
				j.Cost = rec.Cost
				j.Tenant = rec.Tenant
				j.Priority = prio
				j.Error = ""
				j.Cached = false
				j.SubmittedAt = rec.T
				j.StartedAt = time.Time{}
				j.FinishedAt = time.Time{}
				continue
			}
			jobs[rec.ID] = &Job{
				ID: rec.ID, Kind: rec.Kind,
				Request: append(json.RawMessage(nil), rec.Req...),
				Key:     rec.Key, Cost: rec.Cost, Tenant: rec.Tenant,
				Priority: prio, State: Queued, SubmittedAt: rec.T,
			}
		case "start":
			if j, ok := jobs[rec.ID]; ok && j.State == Queued {
				j.State = Running
				j.StartedAt = rec.T
			}
		case "done":
			if j, ok := jobs[rec.ID]; ok && !j.State.Terminal() {
				j.State = Done
				j.Request = nil
				j.Cached = rec.Cached
				j.FinishedAt = rec.T
			}
		case "fail":
			if j, ok := jobs[rec.ID]; ok && !j.State.Terminal() {
				j.State = Failed
				j.Error = rec.Error
				j.FinishedAt = rec.T
			}
		case "cancel":
			if j, ok := jobs[rec.ID]; ok && !j.State.Terminal() {
				j.State = Canceled
				j.FinishedAt = rec.T
			}
		case "gc":
			delete(jobs, rec.ID)
		}
	}
	return jobs
}

// replayAndCompact rebuilds the queue's state from the WAL, requeues live
// jobs, and rewrites the journal compacted. Called once from Open, before
// the append handle opens and the workers start.
func (q *Queue) replayAndCompact() error {
	data, err := os.ReadFile(q.walPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("jobs: reading WAL: %w", err)
	}
	q.jobs = replayWAL(data)
	q.rebuildIndexLocked()

	// Requeue the jobs the last process never finished — the queued ones
	// it acked and the running ones it died under — oldest submission
	// first (the index's order), so replay preserves submission fairness:
	// scheduler sequence numbers are assigned in this order.
	for _, j := range q.order {
		switch j.State {
		case Queued, Running:
			j.State = Queued
			j.StartedAt = time.Time{}
			q.memInUse += j.Cost
			q.memByTenant[j.Tenant] += j.Cost
			q.sched.push(j)
			q.replayed++
		}
	}
	return q.compact()
}

// compact rewrites the WAL to the minimal journal describing the current
// table: one submit per job plus its terminal record, oldest submission
// first. Atomic via temp file + rename; a crash during compaction leaves
// the old journal intact.
func (q *Queue) compact() error {
	tmp, err := os.CreateTemp(q.dir, "wal-*")
	if err != nil {
		return fmt.Errorf("jobs: compacting WAL: %w", err)
	}
	w := bufio.NewWriter(tmp)
	writeRec := func(rec walRecord) error {
		data, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		_, err = w.Write(append(data, '\n'))
		return err
	}
	for _, j := range q.order {
		err := writeRec(walRecord{Op: "submit", ID: j.ID, Kind: j.Kind,
			Req: j.Request, Cost: j.Cost, Key: j.Key, Tenant: j.Tenant,
			Prio: string(j.Priority), T: j.SubmittedAt})
		if err == nil {
			switch j.State {
			case Done:
				err = writeRec(walRecord{Op: "done", ID: j.ID, Key: j.Key, Cached: j.Cached, T: j.FinishedAt})
			case Failed:
				err = writeRec(walRecord{Op: "fail", ID: j.ID, Error: j.Error, T: j.FinishedAt})
			case Canceled:
				err = writeRec(walRecord{Op: "cancel", ID: j.ID, T: j.FinishedAt})
			}
		}
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("jobs: compacting WAL: %w", err)
		}
	}
	if err := w.Flush(); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: compacting WAL: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: compacting WAL: %w", err)
	}
	if err := os.Rename(tmp.Name(), q.walPath()); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: compacting WAL: %w", err)
	}
	return nil
}
