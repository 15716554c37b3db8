package serve

import (
	"encoding/json"

	"csb/internal/journal"
)

// Journal record kinds: serve is the journal's only writer, and a job's
// spec is all a restart needs to rebuild its bytes.
const (
	journalJobAccepted = "job.accepted" // payload: normalized spec JSON
	journalJobDone     = "job.done"
	journalJobFailed   = "job.failed"
	journalJobCanceled = "job.canceled"
)

// journalAppend records one lifecycle event. Append failures (disk full,
// journal closed during shutdown) are counted, not fatal: durability
// degrades to in-memory behavior rather than taking the daemon down.
func (s *Server) journalAppend(kind, key string, payload []byte) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(journal.Record{Kind: kind, Key: key, Payload: payload}); err != nil {
		s.journalErrs.Add(1)
	}
}

// resumeFromJournal replays the WAL: any job that was accepted but never
// reached a terminal state is re-submitted, so a daemon killed mid-build
// converges to the same artifacts after restart. Called from New once the
// workers are running; content addressing makes the replay idempotent — a
// resumed job carries the same artifact ID, so its bytes are identical to
// what the interrupted run would have produced.
func (s *Server) resumeFromJournal() {
	type pending struct {
		spec     []byte
		complete bool
	}
	byKey := make(map[string]*pending)
	var order []string
	for _, rec := range s.journal.Records() {
		switch rec.Kind {
		case journalJobAccepted:
			p, ok := byKey[rec.Key]
			if !ok {
				p = &pending{}
				byKey[rec.Key] = p
				order = append(order, rec.Key)
			}
			// A re-accept after a terminal state (e.g. resubmit after cache
			// eviction) reopens the job; the latest spec payload wins.
			p.complete = false
			if len(rec.Payload) > 0 {
				p.spec = rec.Payload
			}
		case journalJobDone, journalJobFailed, journalJobCanceled:
			if p, ok := byKey[rec.Key]; ok {
				p.complete = true
			}
		}
	}
	incomplete := make(map[string]bool)
	for key, p := range byKey {
		if !p.complete && len(p.spec) > 0 {
			incomplete[key] = true
		}
	}

	// Drop the terminal noise before re-submitting: keep only the accepted
	// records of incomplete jobs (they are the recovery source of truth
	// until those jobs finish). Every other kind goes, including records
	// of kinds this daemon no longer writes. A failed rewrite leaves the
	// old log in place, so it is counted and the resume goes on.
	if err := s.journal.Compact(func(r journal.Record) bool {
		return r.Kind == journalJobAccepted && incomplete[r.Key]
	}); err != nil {
		s.journalErrs.Add(1)
	}

	for _, key := range order {
		p := byKey[key]
		if p.complete || len(p.spec) == 0 {
			continue
		}
		var spec Spec
		if err := json.Unmarshal(p.spec, &spec); err != nil {
			s.journalErrs.Add(1)
			continue
		}
		if _, err := s.Submit(&spec); err != nil {
			// Queue full or spec no longer admissible: surfaced as a
			// counter; the accepted record stays for the next restart.
			s.journalErrs.Add(1)
			continue
		}
		s.resumed.Add(1)
	}
}
