package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"atf"
)

// resumeSpecJSON is a run slow enough to interrupt mid-flight: ~1ms per
// cost-cache miss, 300 evaluations, a stateful technique, and parallel
// evaluation — the hardest case for deterministic resume.
const resumeSpecJSON = `{
	"name": "resume test",
	"parameters": [
		{"name": "X", "range": {"interval": {"begin": 1, "end": 400}}},
		{"name": "Y", "range": {"interval": {"begin": 1, "end": 40}}}
	],
	"cost": {"kind": "expr", "expr": "(X - 312) * (X - 312) + (Y - 7) * (Y - 7)", "delay_ns": 1000000},
	"technique": {"kind": "annealing"},
	"abort": {"evaluations": 300},
	"seed": 11,
	"parallelism": 3
}`

func parseResumeSpec(t *testing.T) *atf.Spec {
	t.Helper()
	spec, err := atf.ParseSpec([]byte(resumeSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// runUninterrupted executes the spec start-to-finish under one manager and
// returns the finished session plus its journaled evaluation keys.
func runUninterrupted(t *testing.T, spec *atf.Spec) (Status, []string) {
	t.Helper()
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	s, err := m.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	s.Wait()
	st := s.Status()
	if st.State != StateDone {
		t.Fatalf("uninterrupted run ended %s (%s)", st.State, st.Error)
	}
	return st, journalKeys(t, m, s.ID)
}

func journalKeys(t *testing.T, m *Manager, id string) []string {
	t.Helper()
	d, err := ReadJournalFile(m.journalPath(id))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(d.Evals))
	for i, ev := range d.Evals {
		keys[i] = ev.Key
	}
	return keys
}

// TestManagerResumeDeterminism is the checkpoint/resume contract: a run
// interrupted by daemon shutdown and resumed by a fresh manager on the
// same journal directory finishes with the same best configuration, best
// cost, and evaluation sequence as the same spec run uninterrupted.
func TestManagerResumeDeterminism(t *testing.T) {
	spec := parseResumeSpec(t)
	want, wantKeys := runUninterrupted(t, spec)

	dir := t.TempDir()
	m1, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := m1.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let the run commit a real prefix, then pull the plug. Shutdown is
	// the SIGKILL-equivalent for the journal: no done record is written.
	waitForEvals(t, s1, 40)
	m1.Shutdown()
	st1 := s1.Status()
	if st1.State != StateInterrupted {
		t.Fatalf("interrupted run ended %s", st1.State)
	}
	if st1.Evaluations == 0 || st1.Evaluations >= want.Evaluations {
		t.Fatalf("interrupted after %d evaluations (want mid-run of %d)",
			st1.Evaluations, want.Evaluations)
	}

	// A fresh manager on the same directory resumes the journal.
	m2, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown()
	resumed, err := m2.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 {
		t.Fatalf("resumed %d sessions, want 1", len(resumed))
	}
	s2 := resumed[0]
	if s2.ID != s1.ID {
		t.Errorf("resumed session id %q, want %q", s2.ID, s1.ID)
	}
	s2.Wait()
	st2 := s2.Status()
	if st2.State != StateDone {
		t.Fatalf("resumed run ended %s (%s)", st2.State, st2.Error)
	}
	if st2.Divergence != "" {
		t.Fatalf("resumed run diverged: %s", st2.Divergence)
	}
	if st2.ResumedEvaluations != int(st1.Evaluations) {
		t.Errorf("resumed %d evaluations, journal had %d",
			st2.ResumedEvaluations, st1.Evaluations)
	}

	if st2.Evaluations != want.Evaluations || st2.Valid != want.Valid {
		t.Errorf("resumed counters %d/%d, uninterrupted %d/%d",
			st2.Evaluations, st2.Valid, want.Evaluations, want.Valid)
	}
	if !st2.Best.Equal(want.Best) || st2.BestCost.String() != want.BestCost.String() {
		t.Errorf("resumed best %v/%v, uninterrupted %v/%v",
			st2.Best, st2.BestCost, want.Best, want.BestCost)
	}
	gotKeys := journalKeys(t, m2, s2.ID)
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("journal has %d evaluations, uninterrupted %d", len(gotKeys), len(wantKeys))
	}
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("evaluation %d: resumed journal %q, uninterrupted %q",
				i, gotKeys[i], wantKeys[i])
		}
	}

	// The finished journal is terminal: a third manager resumes nothing.
	m3, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Shutdown()
	again, err := m3.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Errorf("finished session resumed again: %d", len(again))
	}
}

func TestManagerCancelIsTerminal(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	s, err := m.Create(parseResumeSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	waitForEvals(t, s, 5)
	if err := m.Cancel(s.ID); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.State != StateCanceled {
		t.Fatalf("canceled session is %s", st.State)
	}
	if err := m.Cancel(s.ID); err == nil {
		t.Error("second cancel succeeded")
	}

	// Unlike an interrupted session, a canceled one must not resume.
	m2, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown()
	resumed, err := m2.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 0 {
		t.Errorf("canceled session resumed: %d", len(resumed))
	}
}

func TestManagerRejectsBadSpec(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	spec := parseResumeSpec(t)
	spec.Cost.Expr = "X + NOPE"
	if _, err := m.Create(spec); err == nil ||
		!strings.Contains(err.Error(), "unknown parameter") {
		t.Errorf("bad spec accepted: %v", err)
	}
	if len(m.List()) != 0 {
		t.Error("failed create left a session behind")
	}
}

// waitForEvals blocks until the session has committed at least n
// evaluations (or fails the test after a generous deadline).
func waitForEvals(t *testing.T, s *Session, n uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := s.Status()
		if st.Evaluations >= n {
			return
		}
		if st.State != StateRunning {
			t.Fatalf("session ended %s after %d evaluations, waiting for %d",
				st.State, st.Evaluations, n)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("session never reached %d evaluations", n)
}

// TestManagerJournalsBatchMarks: a parallel session journals one batch
// mark per dispatched batch, and the marks survive interrupt/resume as a
// single deduplicated, contiguous sequence covering every evaluation.
func TestManagerJournalsBatchMarks(t *testing.T) {
	spec := parseResumeSpec(t)

	dir := t.TempDir()
	m1, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := m1.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitForEvals(t, s1, 40)
	m1.Shutdown()

	m2, err := NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown()
	resumed, err := m2.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 {
		t.Fatalf("resumed %d sessions, want 1", len(resumed))
	}
	resumed[0].Wait()
	st := resumed[0].Status()
	if st.State != StateDone {
		t.Fatalf("resumed run ended %s (%s)", st.State, st.Error)
	}

	d, err := ReadJournalFile(m2.journalPath(s1.ID))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Batches) == 0 {
		t.Fatal("parallel session journaled no batch marks")
	}
	for i, b := range d.Batches {
		if b.Index != uint64(i) {
			t.Fatalf("batch mark %d has index %d (marks must dedup to a dense ascending sequence)", i, b.Index)
		}
		if b.Size <= 0 {
			t.Fatalf("batch mark %d has size %d", i, b.Size)
		}
		if i > 0 {
			prev := d.Batches[i-1]
			if b.StartEval != prev.StartEval+uint64(prev.Size) {
				t.Fatalf("batch mark %d starts at eval %d, previous covered [%d, %d)",
					i, b.StartEval, prev.StartEval, prev.StartEval+uint64(prev.Size))
			}
		}
	}
	// Marks are written before dispatch, so the final mark may cover the
	// batch the abort cut short: it starts at or before the last committed
	// evaluation count and its range reaches at least that far.
	last := d.Batches[len(d.Batches)-1]
	evals := uint64(len(d.Evals))
	if last.StartEval > evals || last.StartEval+uint64(last.Size) < evals {
		t.Fatalf("batch marks cover [0, %d..%d), journal has %d evaluations",
			last.StartEval, last.StartEval+uint64(last.Size), evals)
	}
}

// TestSessionFailsOnJournalWriteError: when the journal's writes start
// failing mid-run, the session stops evaluating, ends failed with the
// journal error in its status, and reports no more evaluations than the
// journal holds — sequential (per-evaluation records only) and parallel
// (batch marks too) alike.
func TestSessionFailsOnJournalWriteError(t *testing.T) {
	for _, par := range []int{1, 3} {
		t.Run(fmt.Sprintf("parallelism-%d", par), func(t *testing.T) {
			spec := parseResumeSpec(t)
			spec.Parallelism = par
			m, err := NewManager(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer m.Shutdown()
			s, err := m.Create(spec)
			if err != nil {
				t.Fatal(err)
			}
			waitForEvals(t, s, 20)
			// Break the journal under the running session: every later
			// write fails.
			s.journal.mu.Lock()
			s.journal.f.Close()
			s.journal.mu.Unlock()
			s.Wait()

			st := s.Status()
			if st.State != StateFailed {
				t.Fatalf("session ended %s, want %s", st.State, StateFailed)
			}
			if !strings.Contains(st.Error, "journal") {
				t.Fatalf("status error %q does not name the journal", st.Error)
			}
			if st.Evaluations >= 300 {
				t.Fatalf("session kept evaluating to %d after the journal failed", st.Evaluations)
			}
			if journaled := uint64(len(journalKeys(t, m, s.ID))); st.Evaluations > journaled {
				t.Fatalf("status reports %d evaluations, journal holds %d", st.Evaluations, journaled)
			}
		})
	}
}
