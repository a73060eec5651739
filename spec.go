// This file defines the declarative tuning-spec surface: the JSON form
// of a tuning run that the atfd daemon's API accepts and the tuning
// journal persists (see Spec).

package atf

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"atf/internal/clblast"
	"atf/internal/core"
	"atf/internal/opencl"
)

// Spec is the declarative description of one tuning run — the JSON form
// the atfd daemon's POST /v1/sessions accepts and the tuning journal
// persists. It names the paper's three ingredients — tuning parameters
// with constrained ranges, a cost function, and a search technique with
// an abort condition — as data instead of Go code, so any program that
// can speak JSON can drive the tuner. The saxpy space of the paper's
// Listing 2 as a spec:
//
//	{
//	  "name": "saxpy",
//	  "parameters": [
//	    {"name": "WPT", "range": {"interval": {"begin": 1, "end": 4096}},
//	     "constraints": [{"op": "divides", "expr": "4096"}]},
//	    {"name": "LS", "range": {"interval": {"begin": 1, "end": 4096}},
//	     "constraints": [{"op": "divides", "expr": "4096 / WPT"}]}
//	  ],
//	  "cost": {"kind": "saxpy", "device": "K20c", "n": 4096},
//	  "technique": {"kind": "annealing"},
//	  "abort": {"evaluations": 200}
//	}
//
// Decode and validate with ParseSpec; run in-process with Run, or POST
// the JSON to atfd for a journaled, resumable session.
type Spec struct {
	// Name labels the run (journal files, session listings).
	Name string `json:"name,omitempty"`
	// Parameters declare the search space in order; constraints may
	// reference previously declared parameters by name. For the "gemm"
	// cost kind an empty list selects the built-in XgemmDirect space.
	Parameters []ParamSpec `json:"parameters,omitempty"`
	// Cost selects and configures the cost function.
	Cost CostSpec `json:"cost"`
	// Technique selects the search technique (default exhaustive).
	Technique TechniqueSpec `json:"technique,omitempty"`
	// Abort combines the set conditions with OR; all-zero means the
	// default evaluations(S).
	Abort AbortSpec `json:"abort,omitempty"`
	// Seed makes randomized techniques reproducible (0 = fixed default).
	Seed int64 `json:"seed,omitempty"`
	// Parallelism is the number of concurrent cost evaluators
	// (Tuner.Parallelism: 0/1 one evaluator, -1 = NumCPU).
	Parallelism int `json:"parallelism,omitempty"`
	// Workers bounds space-generation parallelism (0 = NumCPU).
	Workers int `json:"workers,omitempty"`
	// SpaceMode selects space construction: "" or "auto" (lazy only for
	// astronomically large groups), "eager", or "lazy".
	SpaceMode string `json:"space_mode,omitempty"`
	// MaxSpaceBytes bounds the memory a lazy space keeps resident in
	// expanded sibling blocks — the per-session memory bound of
	// memory-bounded atfd sessions (0 = the daemon default, or unbounded
	// when running in-process).
	MaxSpaceBytes int64 `json:"max_space_bytes,omitempty"`
	// CacheCosts memoizes cost evaluations per configuration; unset
	// defaults to true — services revisit configurations constantly.
	CacheCosts *bool `json:"cache_costs,omitempty"`
	// Record retains the full evaluation history on the result.
	Record bool `json:"record,omitempty"`
}

// ParamSpec declares one tuning parameter: the JSON counterpart of the
// paper's tp(name, range, constraint) form (and of TP in Go).
type ParamSpec struct {
	// Name is the parameter's unique name, referenced by later
	// parameters' constraint expressions.
	Name string `json:"name"`
	// Range is the raw candidate range the constraints filter.
	Range RangeSpec `json:"range"`
	// Constraints combine conjunctively; each may reference previously
	// declared parameters by name.
	Constraints []ConstraintSpec `json:"constraints,omitempty"`
}

// RangeSpec declares a parameter's raw range; exactly one field is set.
type RangeSpec struct {
	// Interval is an integer interval with optional step.
	Interval *IntervalSpec `json:"interval,omitempty"`
	// Set lists the range elements explicitly (ints, floats, bools or
	// strings).
	Set []Value `json:"set,omitempty"`
	// Bools selects the {false, true} range.
	Bools bool `json:"bools,omitempty"`
}

// IntervalSpec is the integer interval [Begin, End] with optional Step.
type IntervalSpec struct {
	Begin int64 `json:"begin"`
	End   int64 `json:"end"`
	Step  int64 `json:"step,omitempty"`
}

// ConstraintSpec applies one alias of the paper's constraint table
// (divides, is_multiple_of, less_than, greater_than, less_equal,
// greater_equal, equal, unequal) to an integer expression over previously
// declared parameters, e.g. {"op":"divides","expr":"4096 / WPT"}.
type ConstraintSpec struct {
	Op   string `json:"op"`
	Expr string `json:"expr"`
}

// TechniqueSpec selects a search technique by kind: "exhaustive" (the
// default), "annealing", "random", "opentuner" or "local".
type TechniqueSpec struct {
	Kind string `json:"kind,omitempty"`
	// Temperature and Cooling configure annealing (0 = paper defaults).
	Temperature float64 `json:"temperature,omitempty"`
	Cooling     float64 `json:"cooling,omitempty"`
	// Patience configures local search (restart threshold).
	Patience int `json:"patience,omitempty"`
}

// AbortSpec describes an abort condition; set fields combine with OR.
type AbortSpec struct {
	// Evaluations stops after this many tested configurations.
	Evaluations uint64 `json:"evaluations,omitempty"`
	// DurationMs stops after this much wall-clock time.
	DurationMs int64 `json:"duration_ms,omitempty"`
	// Fraction stops after this fraction of the search space (0, 1].
	Fraction float64 `json:"fraction,omitempty"`
	// CostBelow stops once a configuration scores below this cost.
	CostBelow *float64 `json:"cost_below,omitempty"`
}

// CostSpec selects a cost function kind:
//
//   - "expr": a synthetic cost — the integer expression Expr evaluated
//     over the configuration (plus an optional per-evaluation DelayNs,
//     for demos and tests that need tunable evaluation latency).
//   - "saxpy": the bundled CLBlast saxpy kernel on a simulated OpenCL
//     device; requires parameters named WPT and LS (paper, Listing 2).
//   - "gemm": the CLBlast XgemmDirect evaluator on a simulated device;
//     with no declared parameters the built-in XgemmDirect space
//     (RangeCap-capped) is used.
type CostSpec struct {
	Kind string `json:"kind"`

	// expr kind.
	Expr    string `json:"expr,omitempty"`
	DelayNs int64  `json:"delay_ns,omitempty"`

	// saxpy and gemm kinds.
	Platform string `json:"platform,omitempty"`
	Device   string `json:"device,omitempty"`
	Seed     int64  `json:"seed,omitempty"`

	// saxpy kind.
	N int64 `json:"n,omitempty"`

	// gemm kind.
	M        int64 `json:"m,omitempty"`
	K        int64 `json:"k,omitempty"`
	GemmN    int64 `json:"gemm_n,omitempty"`
	RangeCap int64 `json:"range_cap,omitempty"`
}

// ParseSpec decodes and validates a JSON spec; unknown fields are
// rejected so typos fail loudly instead of silently selecting defaults.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("atf: bad spec: %w", err)
	}
	if _, err := s.Build(); err != nil {
		return nil, err
	}
	return &s, nil
}

// SpecBuild is a spec assembled into runnable pieces: the configured
// Tuner, the declared parameters, and the cost function. Callers that
// need more control than Spec.Run — the atfd session manager attaches a
// context, an OnEvaluation journal hook and a pre-generated space — run
// the pieces themselves.
type SpecBuild struct {
	// Tuner carries the technique, abort condition, seed, parallelism
	// and cache settings from the spec.
	Tuner Tuner
	// Params is the declared (or built-in, for the gemm kind) space.
	Params []*Param
	// Cost is the configured cost function.
	Cost CostFunction
}

// Build validates the spec and assembles the tuner, the parameters and
// the cost function. The spec-driven counterpart of writing the paper's
// three steps in Go.
func (s *Spec) Build() (*SpecBuild, error) {
	params, err := s.buildParams()
	if err != nil {
		return nil, err
	}
	cf, err := s.buildCost(params)
	if err != nil {
		return nil, err
	}
	tech, err := s.Technique.build()
	if err != nil {
		return nil, err
	}
	cache := true
	if s.CacheCosts != nil {
		cache = *s.CacheCosts
	}
	mode, err := parseSpaceMode(s.SpaceMode)
	if err != nil {
		return nil, err
	}
	if s.MaxSpaceBytes < 0 {
		return nil, fmt.Errorf("atf: max_space_bytes must be >= 0, got %d", s.MaxSpaceBytes)
	}
	return &SpecBuild{
		Tuner: Tuner{
			Technique:     tech,
			Abort:         s.Abort.build(),
			Seed:          s.Seed,
			Workers:       s.Workers,
			SpaceMode:     mode,
			MaxSpaceBytes: s.MaxSpaceBytes,
			Parallelism:   s.Parallelism,
			CacheCosts:    cache,
			Record:        s.Record,
		},
		Params: params,
		Cost:   cf,
	}, nil
}

// Run builds the spec and executes the tuning run; ctx cancels it early.
func (s *Spec) Run(ctx context.Context) (*Result, error) {
	b, err := s.Build()
	if err != nil {
		return nil, err
	}
	b.Tuner.Context = ctx
	return b.Tuner.Tune(b.Cost, b.Params...)
}

func (s *Spec) buildParams() ([]*Param, error) {
	if len(s.Parameters) == 0 {
		if s.Cost.Kind == "gemm" {
			return s.gemmParams()
		}
		return nil, fmt.Errorf("atf: spec declares no tuning parameters")
	}
	var params []*Param
	var declared []string
	for _, ps := range s.Parameters {
		if ps.Name == "" {
			return nil, fmt.Errorf("atf: spec parameter %d has no name", len(params))
		}
		r, err := ps.Range.build(ps.Name)
		if err != nil {
			return nil, err
		}
		var constraints []Constraint
		for _, cs := range ps.Constraints {
			e, refs, err := core.ParseExpr(cs.Expr)
			if err != nil {
				return nil, fmt.Errorf("atf: parameter %q constraint: %w", ps.Name, err)
			}
			for _, ref := range refs {
				if !containsName(declared, ref) {
					return nil, fmt.Errorf(
						"atf: parameter %q constraint references %q, which is not declared earlier (constraints may only use previously declared parameters)",
						ps.Name, ref)
				}
			}
			ct, err := core.ConstraintByName(cs.Op, e)
			if err != nil {
				return nil, fmt.Errorf("atf: parameter %q: %w", ps.Name, err)
			}
			constraints = append(constraints, ct)
		}
		params = append(params, TP(ps.Name, r, constraints...))
		declared = append(declared, ps.Name)
	}
	return params, nil
}

func (r *RangeSpec) build(param string) (Range, error) {
	set := 0
	if r.Interval != nil {
		set++
	}
	if len(r.Set) > 0 {
		set++
	}
	if r.Bools {
		set++
	}
	if set != 1 {
		return nil, fmt.Errorf("atf: parameter %q must set exactly one of range.interval, range.set, range.bools", param)
	}
	switch {
	case r.Interval != nil:
		iv := r.Interval
		if iv.Step > 1 {
			return SteppedInterval(iv.Begin, iv.End, iv.Step), nil
		}
		return Interval(iv.Begin, iv.End), nil
	case len(r.Set) > 0:
		vals := make([]any, len(r.Set))
		for i, v := range r.Set {
			vals[i] = v
		}
		return Set(vals...), nil
	default:
		return Bools(), nil
	}
}

func (t *TechniqueSpec) build() (Technique, error) {
	switch t.Kind {
	case "", "exhaustive":
		return Exhaustive(), nil
	case "annealing":
		if t.Temperature != 0 || t.Cooling != 0 {
			temp, cooling := t.Temperature, t.Cooling
			if temp == 0 {
				temp = 4
			}
			if cooling == 0 {
				cooling = 1
			}
			return SimulatedAnnealingT(temp, cooling), nil
		}
		return SimulatedAnnealing(), nil
	case "random":
		return RandomSearch(), nil
	case "opentuner":
		return OpenTunerSearch(), nil
	case "local":
		patience := t.Patience
		if patience == 0 {
			patience = 10
		}
		return LocalSearch(patience), nil
	default:
		return nil, fmt.Errorf("atf: unknown technique kind %q", t.Kind)
	}
}

func (a *AbortSpec) build() AbortCondition {
	var conds []AbortCondition
	if a.Evaluations > 0 {
		conds = append(conds, Evaluations(a.Evaluations))
	}
	if a.DurationMs > 0 {
		conds = append(conds, Duration(time.Duration(a.DurationMs)*time.Millisecond))
	}
	if a.Fraction > 0 {
		conds = append(conds, Fraction(a.Fraction))
	}
	if a.CostBelow != nil {
		conds = append(conds, CostBelow(*a.CostBelow))
	}
	switch len(conds) {
	case 0:
		return nil // the default evaluations(S)
	case 1:
		return conds[0]
	default:
		return AbortOr(conds...)
	}
}

func (s *Spec) buildCost(params []*Param) (CostFunction, error) {
	switch s.Cost.Kind {
	case "expr":
		return s.exprCost(params)
	case "saxpy":
		return s.saxpyCost(params)
	case "gemm":
		return s.gemmCost()
	case "":
		return nil, fmt.Errorf("atf: spec has no cost.kind")
	default:
		return nil, fmt.Errorf("atf: unknown cost kind %q (expr, saxpy, gemm)", s.Cost.Kind)
	}
}

func (s *Spec) exprCost(params []*Param) (CostFunction, error) {
	if s.Cost.Expr == "" {
		return nil, fmt.Errorf(`atf: cost kind "expr" needs cost.expr`)
	}
	e, refs, err := core.ParseExpr(s.Cost.Expr)
	if err != nil {
		return nil, fmt.Errorf("atf: cost.expr: %w", err)
	}
	var names []string
	for _, p := range params {
		names = append(names, p.Name)
	}
	for _, ref := range refs {
		if !containsName(names, ref) {
			return nil, fmt.Errorf("atf: cost.expr references unknown parameter %q", ref)
		}
	}
	delay := time.Duration(s.Cost.DelayNs)
	return CostFunc(func(cfg *Config) (Cost, error) {
		if delay > 0 {
			time.Sleep(delay)
		}
		return core.SingleCost(float64(e.Eval(cfg))), nil
	}), nil
}

func (s *Spec) saxpyCost(params []*Param) (CostFunction, error) {
	for _, need := range []string{"WPT", "LS"} {
		found := false
		for _, p := range params {
			if p.Name == need {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf(`atf: cost kind "saxpy" needs a parameter named %q`, need)
		}
	}
	n := s.Cost.N
	if n == 0 {
		n = 1 << 22
	}
	device := s.Cost.Device
	if device == "" {
		device = "K20c"
	}
	return (&OpenCL{
		Platform: s.Cost.Platform, Device: device,
		Source: clblast.SaxpySource, Kernel: "saxpy",
		Args: []KernelArg{
			Scalar(int32(n)), RandomScalar(),
			RandomBuffer(int(n)), RandomBuffer(int(n)),
		},
		GlobalSize: func(c *Config) []int64 { return []int64{n / c.Int("WPT")} },
		LocalSize:  func(c *Config) []int64 { return []int64{c.Int("LS")} },
		Seed:       s.Cost.Seed,
	}).CostFunction()
}

func (s *Spec) gemmCost() (CostFunction, error) {
	dev, err := s.gemmDevice()
	if err != nil {
		return nil, err
	}
	shape := s.gemmShape()
	seed := s.Cost.Seed
	if seed == 0 {
		seed = 1
	}
	return clblast.NewGemmEvaluator(dev, shape, seed).CostFunction(), nil
}

// gemmParams is the built-in XgemmDirect space used when a gemm spec
// declares no parameters of its own.
func (s *Spec) gemmParams() ([]*Param, error) {
	dev, err := s.gemmDevice()
	if err != nil {
		return nil, err
	}
	rangeCap := s.Cost.RangeCap
	if rangeCap == 0 {
		rangeCap = 64
	}
	return clblast.XgemmDirectParams(clblast.SpaceOptions{
		RangeCap:         rangeCap,
		MaxWorkGroupSize: int64(dev.Desc.MaxWorkGroupSize),
		LocalMemBytes:    int64(dev.Desc.LocalMemBytes),
	}), nil
}

func (s *Spec) gemmDevice() (*opencl.Device, error) {
	device := s.Cost.Device
	if device == "" {
		device = "K20m"
	}
	return opencl.FindDevice(s.Cost.Platform, device)
}

func (s *Spec) gemmShape() clblast.GemmShape {
	shape := clblast.GemmShape{M: s.Cost.M, K: s.Cost.K, N: s.Cost.GemmN}
	if shape.M == 0 {
		shape.M = 10
	}
	if shape.K == 0 {
		shape.K = 64
	}
	if shape.N == 0 {
		shape.N = 500
	}
	return shape
}

func parseSpaceMode(s string) (SpaceMode, error) {
	switch s {
	case "", "auto":
		return SpaceAuto, nil
	case "eager":
		return SpaceEager, nil
	case "lazy":
		return SpaceLazy, nil
	default:
		return SpaceAuto, fmt.Errorf("atf: unknown space_mode %q (auto, eager, lazy)", s)
	}
}

func containsName(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}
