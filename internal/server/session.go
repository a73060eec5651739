package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"atf"
	"atf/internal/core"
	"atf/internal/state"
)

// State is a session's lifecycle state.
type State string

const (
	// StateRunning: exploration in progress.
	StateRunning State = "running"
	// StateDone: exploration finished; the journal is closed.
	StateDone State = "done"
	// StateCanceled: a client canceled the session; terminal.
	StateCanceled State = "canceled"
	// StateFailed: the run errored (bad device, empty space, journal I/O).
	StateFailed State = "failed"
	// StateInterrupted: the daemon shut down mid-run; the journal has no
	// done record, so the session resumes on the next start.
	StateInterrupted State = "interrupted"
)

// Session is one tuning job owned by the Manager.
type Session struct {
	ID            string
	Name          string
	CreatedUnixNs int64
	Spec          *atf.Spec

	cancel  context.CancelFunc
	ctx     context.Context
	journal *Journal
	done    chan struct{}
	metrics *sessionMetrics

	// compacted is the count of journaled evaluations folded away by
	// segment compaction before this process started: evals[i] has
	// absolute evaluation index compacted+i, and the folded prefix
	// survives only as compactOutcomes (for replay) plus the seeded
	// valid/best counters. Immutable after newSession.
	compacted       uint64
	compactOutcomes []CompactOutcome

	mu           sync.Mutex
	cond         *sync.Cond
	state        State
	evals        []EvalRecord // committed evaluations, in order
	replayed     int          // prefix of evals loaded from the journal
	valid        uint64
	best         *atf.Config
	bestCost     atf.Cost
	spaceSize    uint64
	rawSpaceSize string
	runErr       error
	journalErr   error // first failed journal append; stops the run
	divergence   error
	userCanceled bool
}

// Status is the JSON status snapshot the API serves.
type Status struct {
	ID                 string      `json:"id"`
	Name               string      `json:"name,omitempty"`
	State              State       `json:"state"`
	CreatedUnixNs      int64       `json:"created_unix_ns,omitempty"`
	SpaceSize          uint64      `json:"space_size,omitempty"`
	RawSpaceSize       string      `json:"raw_space_size,omitempty"`
	Evaluations        uint64      `json:"evaluations"`
	Valid              uint64      `json:"valid"`
	Best               *atf.Config `json:"best,omitempty"`
	BestCost           atf.Cost    `json:"best_cost,omitempty"`
	ResumedEvaluations int         `json:"resumed_evaluations,omitempty"`
	Divergence         string      `json:"divergence,omitempty"`
	Error              string      `json:"error,omitempty"`
	// Sweep reports exhaustive-sweep progress (set only for sessions whose
	// technique walks the whole space and whose space size is known).
	Sweep *SweepProgress `json:"sweep,omitempty"`
}

// SweepProgress is an exhaustive session's progress through its space.
type SweepProgress struct {
	Evaluated uint64  `json:"evaluated"`
	Total     uint64  `json:"total"`
	Percent   float64 `json:"percent"`
}

// Status snapshots the session under its lock.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		ID:                 s.ID,
		Name:               s.Name,
		State:              s.state,
		CreatedUnixNs:      s.CreatedUnixNs,
		SpaceSize:          s.spaceSize,
		RawSpaceSize:       s.rawSpaceSize,
		Evaluations:        s.compacted + uint64(len(s.evals)),
		Valid:              s.valid,
		Best:               s.best,
		BestCost:           s.bestCost,
		ResumedEvaluations: int(s.compacted) + s.replayed,
	}
	if k := s.Spec.Technique.Kind; (k == "" || k == "exhaustive") && s.spaceSize > 0 {
		st.Sweep = &SweepProgress{
			Evaluated: st.Evaluations,
			Total:     s.spaceSize,
			Percent:   100 * float64(st.Evaluations) / float64(s.spaceSize),
		}
	}
	if s.divergence != nil {
		st.Divergence = s.divergence.Error()
	}
	if s.runErr != nil {
		st.Error = s.runErr.Error()
	}
	return st
}

// EvalsSince blocks until the session has committed more than `from`
// evaluations or reached a terminal state, then returns the new suffix and
// whether the session is terminal. A canceled ctx returns early. Indices
// below the compacted prefix (whose eval records no longer exist) clamp to
// the oldest retained evaluation.
func (s *Session) EvalsSince(ctx context.Context, from int) ([]EvalRecord, bool, error) {
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()

	s.mu.Lock()
	defer s.mu.Unlock()
	rel := from - int(s.compacted)
	if rel < 0 {
		rel = 0
	}
	for len(s.evals) <= rel && s.state == StateRunning && ctx.Err() == nil {
		s.cond.Wait()
	}
	if err := ctx.Err(); err != nil && len(s.evals) <= rel {
		return nil, false, err
	}
	if rel > len(s.evals) {
		return nil, false, fmt.Errorf("server: evaluation index %d beyond %d",
			from, s.compacted+uint64(len(s.evals)))
	}
	suffix := append([]EvalRecord(nil), s.evals[rel:]...)
	return suffix, s.state != StateRunning, nil
}

// Wait blocks until the session leaves StateRunning (tests, shutdown).
func (s *Session) Wait() { <-s.done }

// Manager owns the sessions of one daemon process and their journals.
type Manager struct {
	dir string

	// Evaluator, when set, supplies each session's batch evaluator — the
	// hook atfd uses to plug in the distributed worker fleet without this
	// package importing it. The factory receives the session id, its
	// spec, the session's cost function (already wrapped for journal
	// replay — the evaluator's local fallback) and the replayed outcomes
	// by configuration key (so resumed evaluations are never dispatched
	// remotely). If the returned evaluator implements io.Closer it is
	// closed when the session's run ends. Set before Create/Resume.
	Evaluator func(session string, spec *atf.Spec, local atf.CostFunction, replay map[string]atf.Outcome) atf.BatchEvaluator

	// MaxSpaceBytes is the default per-session memory bound on lazy space
	// construction, applied when a spec does not set max_space_bytes
	// itself (atfd's -max-space-bytes flag). 0 leaves lazy spaces
	// unbounded. Set before Create/Resume.
	MaxSpaceBytes int64

	// SharedCostCacheBytes budgets the daemon-wide cost-outcome cache
	// shared across sessions (atfd -shared-cost-cache-bytes). 0 disables
	// cross-session outcome sharing; < 0 leaves the cache unbounded.
	// Specs that set cache_costs=false opt their sessions out. Set before
	// Create/Resume.
	SharedCostCacheBytes int64

	// SpaceCacheEntries bounds the generated-space cache (atfd
	// -space-cache-entries): re-submitted specs skip space generation and
	// the lazy census pass entirely. 0 disables the cache; < 0 leaves it
	// unbounded. Set before Create/Resume.
	SpaceCacheEntries int

	// MaxSessions caps concurrently running sessions; Create returns
	// *OverloadedError beyond it (the HTTP layer answers 429 with
	// Retry-After). Resume ignores the cap — interrupted work is owed.
	// 0 = unlimited. Set before Create/Resume.
	MaxSessions int

	// MaxEvalsInFlight caps concurrent cost evaluations across ALL
	// sessions: every non-replayed, non-cached evaluation takes a slot
	// before running, so a thousand admitted sessions contend for a fixed
	// evaluation bandwidth instead of a thousand uncoordinated pools.
	// 0 = unlimited. Set before Create/Resume.
	MaxEvalsInFlight int

	// RotateBytes rolls each session's journal into numbered segments
	// once the active file exceeds this size; 0 never rotates. Set
	// before Create/Resume.
	RotateBytes int64

	// Pipeline turns on pipelined batch dispatch (Tuner.Pipeline) for
	// every session; it only engages for cost-oblivious techniques. Set
	// before Create/Resume.
	Pipeline bool

	// CompactSegments rewrites each rotated journal segment down to its
	// deduplicated outcome map (atfd -journal-compact): resume keeps its
	// determinism (replay serves outcomes by key, the technique's walk
	// regenerates the order) while long sessions' disk footprint stays
	// proportional to distinct configurations. Set before Create/Resume.
	CompactSegments bool

	// Persistent warm-start store (state.go); nil until OpenState.
	stateStore *state.Store
	stateStop  chan struct{}
	stateOnce  sync.Once // closes stateStop exactly once
	stateWG    sync.WaitGroup

	mu       sync.Mutex
	sessions map[string]*Session
	order    []string // creation/resume order for stable listings
	running  int      // sessions currently in StateRunning
	closed   bool

	sharedOnce  sync.Once
	sharedCosts *outcomeCache // nil when SharedCostCacheBytes == 0
	spaces      *spaceCache   // nil when SpaceCacheEntries == 0
	evalSlots   chan struct{} // nil when MaxEvalsInFlight == 0

	wg sync.WaitGroup
}

// sharedInit materializes the cross-session structures on first use, so
// the knobs stay plain fields settable after NewManager.
func (m *Manager) sharedInit() {
	m.sharedOnce.Do(func() {
		if m.SharedCostCacheBytes != 0 {
			m.sharedCosts = newOutcomeCache(m.SharedCostCacheBytes)
		}
		if m.SpaceCacheEntries != 0 {
			max := m.SpaceCacheEntries
			if max < 0 {
				max = 0 // unbounded
			}
			m.spaces = newSpaceCache(max)
		}
		if m.MaxEvalsInFlight > 0 {
			m.evalSlots = make(chan struct{}, m.MaxEvalsInFlight)
		}
	})
}

// NewManager creates a session manager journaling under dir (created if
// missing). Call Resume to restart interrupted sessions from a previous
// process, and Shutdown before exit.
func NewManager(dir string) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating journal dir: %w", err)
	}
	return &Manager{dir: dir, sessions: make(map[string]*Session)}, nil
}

// Dir returns the journal directory.
func (m *Manager) Dir() string { return m.dir }

// Create validates the spec, opens its journal, and starts the tuning run.
// When the daemon is at MaxSessions running sessions it returns
// *OverloadedError instead — admission control, so load beyond capacity
// queues at the clients rather than thrashing inside the process.
func (m *Manager) Create(spec *atf.Spec) (*Session, error) {
	build, err := spec.Build()
	if err != nil {
		return nil, err
	}
	name := sanitizeName(spec.Name)
	id := name + "-" + randomSuffix()
	created := time.Now().UnixNano()
	j, err := CreateJournal(m.journalPath(id), id, spec.Name, spec, created)
	if err != nil {
		return nil, err
	}
	j.RotateBytes = m.RotateBytes
	j.Compact = m.CompactSegments
	s := m.newSession(id, spec, created, j, nil)
	if err := m.register(s, true); err != nil {
		j.Close()
		os.Remove(j.Path())
		return nil, err
	}
	mSessionsCreated.Inc()
	m.start(s, build, nil)
	return s, nil
}

// Resume scans the journal directory and restarts every session whose
// journal lacks a done record. Already-journaled evaluations are served
// from the journal instead of the cost function, and the search continues
// past them deterministically (same seed, same technique walk). Returns
// the resumed sessions.
func (m *Manager) Resume() ([]*Session, error) {
	paths, err := ListJournals(m.dir)
	if err != nil {
		return nil, err
	}
	var resumed []*Session
	var errs []error
	for _, path := range paths {
		d, err := ReadSessionJournal(path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if d.Done != nil {
			continue // terminal; nothing to resume
		}
		if d.Spec == nil {
			errs = append(errs, fmt.Errorf("server: journal %s has no spec", path))
			continue
		}
		build, err := d.Spec.Build()
		if err != nil {
			errs = append(errs, fmt.Errorf("server: journal %s: %w", path, err))
			continue
		}
		j, err := OpenJournalAppend(path, Record{
			Type: "spec", Session: d.Session, Name: d.Name,
			CreatedUnixNs: d.CreatedUnixNs, Spec: d.Spec,
		})
		if err != nil {
			errs = append(errs, err)
			continue
		}
		j.RotateBytes = m.RotateBytes
		j.Compact = m.CompactSegments
		id := d.Session
		if id == "" {
			id = strings.TrimSuffix(filepath.Base(path), ".jsonl")
		}
		s := m.newSession(id, d.Spec, d.CreatedUnixNs, j, d)
		if err := m.register(s, false); err != nil {
			j.Close()
			errs = append(errs, err)
			continue
		}
		m.start(s, build, d.Evals)
		resumed = append(resumed, s)
	}
	return resumed, errors.Join(errs...)
}

// Get returns a session by ID.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// List returns all sessions in creation order.
func (m *Manager) List() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Session, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.sessions[id])
	}
	return out
}

// Cancel terminates a session on a client's request: exploration stops at
// the next commit boundary and the journal is closed with a canceled done
// record, so the session will NOT resume on restart.
func (m *Manager) Cancel(id string) error {
	s, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("server: no session %q", id)
	}
	s.mu.Lock()
	if s.state != StateRunning {
		s.mu.Unlock()
		return fmt.Errorf("server: session %q is %s", id, s.state)
	}
	s.userCanceled = true
	s.mu.Unlock()
	s.cancel()
	s.Wait()
	return nil
}

// Shutdown interrupts all running sessions without writing done records —
// the SIGTERM path. Interrupted journals stay resumable; a later Manager
// on the same directory picks the runs back up. Safe to call more than
// once.
func (m *Manager) Shutdown() {
	m.mu.Lock()
	m.closed = true
	sessions := make([]*Session, 0, len(m.order))
	for _, id := range m.order {
		sessions = append(sessions, m.sessions[id])
	}
	m.mu.Unlock()
	for _, s := range sessions {
		s.cancel()
	}
	m.wg.Wait()
	for _, s := range sessions {
		s.journal.WaitCompaction()
	}
	m.closeState()
}

func (m *Manager) journalPath(id string) string {
	return filepath.Join(m.dir, id+".jsonl")
}

func (m *Manager) newSession(id string, spec *atf.Spec, created int64, j *Journal, data *JournalData) *Session {
	ctx, cancel := context.WithCancel(context.Background())
	var replayed []EvalRecord
	if data != nil {
		replayed = data.Evals
	}
	s := &Session{
		ID:            id,
		Name:          spec.Name,
		CreatedUnixNs: created,
		Spec:          spec,
		ctx:           ctx,
		cancel:        cancel,
		journal:       j,
		done:          make(chan struct{}),
		state:         StateRunning,
		evals:         append([]EvalRecord(nil), replayed...),
		replayed:      len(replayed),
		metrics:       newSessionMetrics(),
	}
	s.cond = sync.NewCond(&s.mu)
	if data != nil {
		// Seed the counters with the compacted prefix's running totals;
		// the replayed suffix below then continues them.
		s.compacted = data.Compacted
		s.compactOutcomes = data.Outcomes
		s.valid = data.CompactValid
		s.best, s.bestCost = data.CompactBest, data.CompactBestCost
	}
	// Rebuild the live counters and metrics from the replayed prefix.
	var prevAtNs int64
	for i := range s.evals {
		rec := &s.evals[i]
		s.metrics.record(rec, prevAtNs)
		prevAtNs = rec.AtNs
		if len(rec.Cost) > 0 && !rec.Cost.IsInf() {
			s.valid++
			if s.best == nil || rec.Cost.Less(s.bestCost) {
				s.best, s.bestCost = rec.Config, rec.Cost
			}
		}
	}
	return s
}

// register adds the session to the manager's tables; with admit set it
// also enforces the MaxSessions cap (Create goes through admission,
// Resume does not).
func (m *Manager) register(s *Session, admit bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("server: manager is shut down")
	}
	if admit && m.MaxSessions > 0 && m.running >= m.MaxSessions {
		mSessionsRejected.Inc()
		return &OverloadedError{Limit: m.MaxSessions, RetryAfter: time.Second}
	}
	if _, dup := m.sessions[s.ID]; dup {
		return fmt.Errorf("server: duplicate session id %q", s.ID)
	}
	m.sessions[s.ID] = s
	m.order = append(m.order, s.ID)
	m.running++
	mSessionsActive.Set(int64(m.running))
	return nil
}

// sessionDone releases the session's admission slot when its run ends.
func (m *Manager) sessionDone() {
	m.mu.Lock()
	m.running--
	mSessionsActive.Set(int64(m.running))
	m.mu.Unlock()
}

// start launches the session's exploration goroutine.
func (m *Manager) start(s *Session, build *atf.SpecBuild, replayed []EvalRecord) {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer close(s.done)
		defer m.sessionDone()
		m.run(s, build, replayed)
	}()
}

// run executes one session end to end: generate the space (or take it
// from the shared space cache), wrap the cost function with the shared
// layers and journal replay, explore, and journal the outcome.
//
// The wrapper chain is, outermost first,
//
//	replay( shared( slot( build.Cost ) ) )
//
// so replayed evaluations cost nothing, shared-cache hits skip both the
// eval slot and the device, and only genuinely new evaluations contend
// for the daemon's evaluation bandwidth.
func (m *Manager) run(s *Session, build *atf.SpecBuild, replayed []EvalRecord) {
	m.sharedInit()
	tuner := build.Tuner
	if tuner.MaxSpaceBytes == 0 {
		tuner.MaxSpaceBytes = m.MaxSpaceBytes
	}
	spaceKey := specSpaceHash(s.Spec, tuner.MaxSpaceBytes)
	gen := func() (*atf.Space, error) {
		// Warm start: a persisted census snapshot (keyed by the same hash
		// as the space cache) lets lazy generation skip its counting pass;
		// a cold generation persists its census for the next daemon.
		tuner.SpaceCensus = m.loadCensus(spaceKey)
		sp, err := tuner.GenerateSpace(atf.G(build.Params...))
		if err == nil {
			m.saveCensus(spaceKey, sp)
		}
		return sp, err
	}
	var space *atf.Space
	var err error
	if m.spaces != nil {
		space, err = m.spaces.getOrGenerate(spaceKey, gen)
	} else {
		space, err = gen()
	}
	if err != nil {
		s.finish(StateFailed, nil, err)
		return
	}
	s.mu.Lock()
	s.spaceSize = space.Size()
	s.rawSpaceSize = space.RawSize().String()
	s.mu.Unlock()

	cf := build.Cost
	if m.evalSlots != nil {
		cf = &slotCostFunction{inner: cf, slots: m.evalSlots}
	}
	if m.sharedCosts != nil && tuner.CacheCosts {
		// cache_costs=false is the spec's way of saying "my cost function
		// is not a pure function of the configuration" — such sessions
		// must not share outcomes either.
		cf = &sharedCostFunction{inner: cf, cache: m.sharedCosts, scope: specCostHash(s.Spec)}
	}
	replay := replayOutcomes(s.compactOutcomes, replayed)
	if replay != nil {
		cf = &replayCostFunction{inner: cf, replay: replay}
	}

	tuner.Pipeline = m.Pipeline
	tuner.Context = s.ctx
	tuner.OnEvaluation = s.onEvaluation
	switch {
	case m.Evaluator != nil:
		// Fleet-backed session: the factory's evaluator substitutes the
		// in-process pool, with the replay-wrapped cost function as its
		// local fallback and the journaled outcomes resolved up front.
		ev := m.Evaluator(s.ID, s.Spec, cf, replay)
		if c, ok := ev.(io.Closer); ok {
			defer c.Close()
		}
		tuner.Evaluator = ev
		tuner.OnBatch = s.onBatch
	case tuner.Parallelism != 0 && tuner.Parallelism != 1:
		// Parallel sessions journal their batch boundaries too, so a
		// crash mid-batch is attributable to a specific dispatch.
		tuner.OnBatch = s.onBatch
	}
	res, err := tuner.Explore(space, cf)
	if err != nil {
		s.finish(StateFailed, nil, err)
		return
	}

	canceled := s.ctx.Err() != nil
	s.mu.Lock()
	user, journalFailed := s.userCanceled, s.journalErr != nil
	s.mu.Unlock()
	switch {
	case journalFailed:
		// The run was stopped at its first unjournaled evaluation; its
		// result may include evaluations past that point, so the session
		// reports only what the journal holds.
		s.finish(StateFailed, nil, nil)
	case user:
		s.finish(StateCanceled, res, nil)
	case canceled:
		// Daemon shutdown: leave the journal without a done record so the
		// next process resumes the run.
		s.finish(StateInterrupted, res, nil)
	default:
		s.finish(StateDone, res, nil)
	}
}

// onBatch is the Tuner.OnBatch hook: it journals each batch boundary
// before the batch is dispatched. Marks inside the replayed prefix were
// journaled by the interrupted run and are skipped; the mark at the
// replay boundary is appended again (readers dedup by batch index).
func (s *Session) onBatch(mark atf.BatchMark) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if mark.StartEval < s.compacted+uint64(s.replayed) {
		return
	}
	if s.journalErr != nil {
		return
	}
	rec := BatchRecord{Index: mark.Index, StartEval: mark.StartEval, Size: mark.Size}
	if err := s.journal.Append(Record{Type: "batch", Batch: &rec}); err != nil {
		s.failJournalLocked(err)
	}
}

// failJournalLocked stops the run at its first failed journal append: a
// session whose evaluations cannot be made durable must not keep
// evaluating, and it finishes failed with the error in its status. The
// caller holds s.mu.
func (s *Session) failJournalLocked(err error) {
	s.metrics.journalErrs.Inc()
	s.journalErr = err
	if s.runErr == nil {
		s.runErr = err
	}
	s.cancel()
}

// replayOutcomes indexes journaled evaluations — the compacted prefix's
// outcome map plus the retained eval records — by configuration key
// (first outcome wins, matching the cost cache), or returns nil when
// nothing was journaled. The one map serves both the replay cost
// function and the fleet evaluator.
func replayOutcomes(compact []CompactOutcome, evals []EvalRecord) map[string]atf.Outcome {
	if len(compact) == 0 && len(evals) == 0 {
		return nil
	}
	replay := make(map[string]atf.Outcome, len(compact)+len(evals))
	for _, o := range compact {
		if _, dup := replay[o.Key]; dup {
			continue
		}
		out := atf.Outcome{Cost: o.Cost}
		if o.Error != "" {
			out.Err = errors.New(o.Error)
		}
		replay[o.Key] = out
	}
	for _, rec := range evals {
		if _, dup := replay[rec.Key]; dup {
			continue
		}
		out := atf.Outcome{Cost: rec.Cost}
		if rec.Error != "" {
			out.Err = errors.New(rec.Error)
		}
		replay[rec.Key] = out
	}
	return replay
}

// onEvaluation is the Tuner.OnEvaluation hook: it mirrors each committed
// evaluation into the in-memory stream and the journal. Evaluations the
// resumed technique re-proposes inside the replayed prefix are only
// checked against the journal (the determinism guard), never re-journaled.
func (s *Session) onEvaluation(ev atf.Evaluation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.Index < s.compacted {
		// The folded prefix: its outcomes replayed by key, but the eval
		// records (and their keys-by-index) are gone, so there is nothing
		// left to check the proposal order against.
		return
	}
	if s.journalErr != nil {
		return // stopped: evaluations still in flight are not recorded
	}
	if rel := ev.Index - s.compacted; rel < uint64(s.replayed) {
		want := s.evals[rel].Key
		if got := ev.Config.Key(); got != want && s.divergence == nil {
			s.divergence = fmt.Errorf(
				"resumed run diverged at evaluation %d: journal has %q, technique proposed %q",
				ev.Index, want, got)
		}
		return
	}
	rec := EvalRecord{
		Index:  ev.Index,
		Key:    ev.Config.Key(),
		Config: ev.Config,
		Cost:   ev.Cost,
		Cached: ev.Cached,
		AtNs:   ev.At.Nanoseconds(),
	}
	if ev.Err != nil {
		rec.Error = ev.Err.Error()
	}
	if err := s.journal.Append(Record{Type: "eval", Eval: &rec}); err != nil {
		s.failJournalLocked(err)
		return
	}
	var prevAtNs int64
	if n := len(s.evals); n > 0 {
		prevAtNs = s.evals[n-1].AtNs
	}
	s.metrics.record(&rec, prevAtNs)
	s.evals = append(s.evals, rec)
	if len(rec.Cost) > 0 && !rec.Cost.IsInf() {
		s.valid++
		if s.best == nil || rec.Cost.Less(s.bestCost) {
			s.best, s.bestCost = rec.Config, rec.Cost
		}
	}
	s.cond.Broadcast()
}

// finish moves the session to a terminal (or interrupted) state, writes
// the done record where appropriate, and closes the journal.
func (s *Session) finish(state State, res *atf.Result, err error) {
	s.mu.Lock()
	s.state = state
	if err != nil && s.runErr == nil {
		s.runErr = err
	}
	if res != nil && res.Best != nil {
		s.best, s.bestCost = res.Best, res.BestCost
	}
	done := &DoneRecord{
		State:       string(state),
		Evaluations: s.compacted + uint64(len(s.evals)),
		Valid:       s.valid,
		Best:        s.best,
		BestCost:    s.bestCost,
	}
	if s.runErr != nil {
		done.Error = s.runErr.Error()
	}
	writeDone := state == StateDone || state == StateCanceled || state == StateFailed
	s.cond.Broadcast()
	s.mu.Unlock()

	if writeDone {
		s.journal.Append(Record{Type: "done", Done: done})
	}
	s.journal.Close()
}

// replayCostFunction serves journaled evaluations from memory and
// delegates everything past the checkpoint to the real cost function; it
// preserves the inner function's cloneability so parallel workers keep
// their per-worker instances.
type replayCostFunction struct {
	inner  core.CostFunction
	replay map[string]atf.Outcome
}

// Cost implements core.CostFunction.
func (r *replayCostFunction) Cost(cfg *core.Config) (core.Cost, error) {
	if out, ok := r.replay[cfg.Key()]; ok {
		return out.Cost, out.Err
	}
	return r.inner.Cost(cfg)
}

// Clone implements core.CloneableCostFunction; the replay map is read-only
// during exploration and safely shared across workers.
func (r *replayCostFunction) Clone() (core.CostFunction, error) {
	cl, ok := r.inner.(core.CloneableCostFunction)
	if !ok {
		return r, nil
	}
	inner, err := cl.Clone()
	if err != nil {
		return nil, err
	}
	return &replayCostFunction{inner: inner, replay: r.replay}, nil
}

// randomSuffix is a short collision-resistant id component.
func randomSuffix() string {
	var b [5]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unheard of; fall back to the clock.
		return fmt.Sprintf("%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}
