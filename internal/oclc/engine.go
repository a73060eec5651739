package oclc

import (
	"fmt"
	"sync/atomic"
)

// Engine selects how Launch executes work-items. The lockstep-vectorized
// bytecode VM (vm-vec) is the production engine; the tree-walking
// interpreter stays as the reference implementation for differential
// testing and as the fallback for programs without bytecode
// (results/interp.md).
type Engine uint8

const (
	// EngineDefault resolves to the process default (SetDefaultEngine).
	EngineDefault Engine = iota
	// EngineWalk executes the AST directly (reference engine).
	EngineWalk
	// EngineVMVec executes define-specialized bytecode in lockstep over a
	// whole work-group (SoA register files, one dispatch per instruction
	// per group), falling back to per-item scalar frames on control-flow
	// divergence (vmvec.go).
	EngineVMVec
)

func (e Engine) String() string {
	switch e {
	case EngineWalk:
		return "walk"
	case EngineVMVec:
		return "vm-vec"
	default:
		return "default"
	}
}

// ParseEngine maps the -engine flag values to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "default":
		return EngineDefault, nil
	case "walk":
		return EngineWalk, nil
	case "vm-vec", "vec":
		return EngineVMVec, nil
	}
	return EngineDefault, fmt.Errorf("oclc: unknown engine %q (want vm-vec or walk)", s)
}

// defaultEngine is the process-wide engine used when ExecOptions.Engine is
// EngineDefault. Stored atomically so tests and harness runs can flip it
// while exploration workers launch kernels concurrently.
var defaultEngine atomic.Int32

func init() { defaultEngine.Store(int32(EngineVMVec)) }

// SetDefaultEngine selects the process-wide execution engine (the
// atf-experiments -engine flag and harness.Options.Engine land here).
func SetDefaultEngine(e Engine) {
	if e == EngineDefault {
		e = EngineVMVec
	}
	defaultEngine.Store(int32(e))
}

// DefaultEngine returns the process-wide execution engine.
func DefaultEngine() Engine { return Engine(defaultEngine.Load()) }

// resolve maps EngineDefault to the process default.
func (e Engine) resolve() Engine {
	if e == EngineDefault {
		return DefaultEngine()
	}
	return e
}
