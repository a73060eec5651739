package oclc

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"
)

// rval is a runtime value of the tree-walking engine: an int/float/bool
// scalar or a pointer to a Memory. It also carries folded constants and
// builtin arguments and results between the engines. The bytecode engines
// do not store rvals: their registers are narrowed to a per-register kind
// plus 8-byte payload words (vmRegs, vm.go). Kept small and passed by
// value so expression evaluation does not allocate. Pointers always
// address a buffer's element 0 — arguments and array declarations are the
// only pointer sources — so there is no offset field.
type rval struct {
	k    ValKind
	i    int64
	f    float64
	mem  *Memory
	dim1 int64 // second-dimension extent for 2-D arrays (0 = 1-D)
}

func intVal(v int64) rval     { return rval{k: KInt, i: v} }
func floatVal(v float64) rval { return rval{k: KFloat, f: v} }

// asInt coerces to int64 with C semantics (float truncation).
func (v rval) asInt() int64 {
	if v.k == KFloat {
		return int64(v.f)
	}
	return v.i
}

// asFloat coerces to float64.
func (v rval) asFloat() float64 {
	if v.k == KFloat {
		return v.f
	}
	return float64(v.i)
}

// truthy implements C truthiness.
func (v rval) truthy() bool {
	if v.k == KFloat {
		return v.f != 0
	}
	return v.i != 0
}

// Memory is a linear buffer of elements in one address space. Elements are
// stored as float64 cells and reinterpreted per the element kind; device
// element size (bytes) feeds the coalescing model's address arithmetic.
type Memory struct {
	ID        int
	Space     AddrSpace
	Elem      ValKind
	ElemBytes int
	Data      []float64
}

// NewGlobalMemory allocates a global buffer of n elements.
func NewGlobalMemory(id int, elem ValKind, elemBytes, n int) *Memory {
	return &Memory{ID: id, Space: SpaceGlobal, Elem: elem, ElemBytes: elemBytes, Data: make([]float64, n)}
}

// Len returns the element count.
func (m *Memory) Len() int { return len(m.Data) }

// Work-items of a group run as goroutines, and OpenCL permits them to
// access the same global/local cell without synchronization (the result is
// whichever write lands last — but each word is written atomically on real
// devices). loadCell/storeCell reproduce exactly that memory model: cells
// are accessed with word-sized atomics, so racy kernels yield an undefined
// *value* without being undefined *behaviour* on the host — and the Go race
// detector stays silent. Host-side accessors (Float32s, SetFloat32s, direct
// Data access in tests) run only while no kernel executes, so they keep the
// plain path.

func (m *Memory) loadCell(i int64) float64 {
	return math.Float64frombits(atomic.LoadUint64((*uint64)(unsafe.Pointer(&m.Data[i]))))
}

func (m *Memory) storeCell(i int64, v float64) {
	atomic.StoreUint64((*uint64)(unsafe.Pointer(&m.Data[i])), math.Float64bits(v))
}

// rangeErr is the out-of-range error of a load or store at index i.
func (m *Memory) rangeErr(op string, i int64) error {
	return fmt.Errorf("oclc: %s buffer %d: %s index %d out of range [0,%d)", m.Space, m.ID, op, i, len(m.Data))
}

// load reads element i.
func (m *Memory) load(i int64) (rval, error) {
	if i < 0 || i >= int64(len(m.Data)) {
		return rval{}, m.rangeErr("load", i)
	}
	if m.Elem == KFloat {
		return floatVal(m.loadCell(i)), nil
	}
	return intVal(int64(m.loadCell(i))), nil
}

// store writes element i.
func (m *Memory) store(i int64, v rval) error {
	if i < 0 || i >= int64(len(m.Data)) {
		return m.rangeErr("store", i)
	}
	if m.Elem == KFloat {
		m.storeCell(i, v.asFloat())
	} else {
		m.storeCell(i, float64(v.asInt()))
	}
	return nil
}

// Float32s returns the buffer contents as float32 (device precision).
func (m *Memory) Float32s() []float32 {
	out := make([]float32, len(m.Data))
	for i, v := range m.Data {
		out[i] = float32(v)
	}
	return out
}

// SetFloat32s fills the buffer from float32 host data.
func (m *Memory) SetFloat32s(xs []float32) {
	for i, v := range xs {
		if i >= len(m.Data) {
			break
		}
		m.Data[i] = float64(v)
	}
}

// Counters aggregates the dynamic operation mix of executed work-items.
// The perfmodel package converts these into cycles.
type Counters struct {
	IntOps        int64 // integer ALU operations
	FloatOps      int64 // floating add/mul/etc. (excluding FMA)
	FMAs          int64 // fused multiply-adds (fma/mad builtins)
	SpecialOps    int64 // sqrt, exp, ... (special function unit)
	GlobalLoads   int64
	GlobalStores  int64
	LocalLoads    int64
	LocalStores   int64
	PrivateAccess int64 // register-array traffic
	Branches      int64
	LoopIters     int64 // loop iterations without an unroll hint
	UnrolledIters int64 // loop iterations under #pragma unroll
	Barriers      int64
	Calls         int64
}

// Add accumulates other into c.
func (c *Counters) Add(o *Counters) {
	c.IntOps += o.IntOps
	c.FloatOps += o.FloatOps
	c.FMAs += o.FMAs
	c.SpecialOps += o.SpecialOps
	c.GlobalLoads += o.GlobalLoads
	c.GlobalStores += o.GlobalStores
	c.LocalLoads += o.LocalLoads
	c.LocalStores += o.LocalStores
	c.PrivateAccess += o.PrivateAccess
	c.Branches += o.Branches
	c.LoopIters += o.LoopIters
	c.UnrolledIters += o.UnrolledIters
	c.Barriers += o.Barriers
	c.Calls += o.Calls
}

// Total returns the total dynamic operation count (a rough IPC proxy).
func (c *Counters) Total() int64 {
	return c.IntOps + c.FloatOps + c.FMAs + c.SpecialOps +
		c.GlobalLoads + c.GlobalStores + c.LocalLoads + c.LocalStores +
		c.PrivateAccess + c.Branches
}

// Access is one recorded global-memory access for coalescing analysis.
type Access struct {
	Site  int
	Addr  uint64 // byte address (buffer-namespaced)
	Store bool
}

// AccessLog collects global-memory accesses of one sampled work-group.
// Each work-item records into its own buffer — no synchronization on the
// access path — and consumers group by site afterwards. The perfmodel
// groups accesses by SIMD batch and counts unique cache lines to derive
// memory transactions.
type AccessLog struct {
	perWI  [][]Access
	bySite [][][]uint64 // site -> wi -> ordered addresses (arena-backed)
	sites  map[int]map[int][]uint64
	once   sync.Once
	mapono sync.Once
}

// NewAccessLog returns a log with buffers for n work-items.
func NewAccessLog(n int) *AccessLog { return &AccessLog{perWI: make([][]Access, n)} }

// record appends one access to the work-item's private buffer.
func (l *AccessLog) record(site, wi int, addr uint64, store bool) {
	l.perWI[wi] = append(l.perWI[wi], Access{Site: site, Addr: addr, Store: store})
}

// SiteAccesses returns the accesses grouped site → work-item → ordered
// address list; built once, after the work-group has finished. Site IDs
// are dense compile-time indices, so the grouping is a counting sort into
// a single address arena — the log is rebuilt for every sampled launch of
// a cost evaluation, which makes this path too hot for map-based grouping.
// Sites with no accesses hold a nil work-item slice.
func (l *AccessLog) SiteAccesses() [][][]uint64 {
	l.once.Do(func() {
		nWI := len(l.perWI)
		maxSite := -1
		total := 0
		for _, accs := range l.perWI {
			for i := range accs {
				if s := accs[i].Site; s > maxSite {
					maxSite = s
				}
			}
			total += len(accs)
		}
		if maxSite < 0 {
			return
		}
		ns := maxSite + 1
		counts := make([]int, ns*nWI)
		for wi, accs := range l.perWI {
			for i := range accs {
				counts[accs[i].Site*nWI+wi]++
			}
		}
		arena := make([]uint64, 0, total)
		cells := make([][]uint64, ns*nWI)
		for ci, c := range counts {
			if c > 0 {
				off := len(arena)
				arena = arena[: off+c : cap(arena)]
				cells[ci] = arena[off : off : off+c]
			}
		}
		for wi, accs := range l.perWI {
			for i := range accs {
				ci := accs[i].Site*nWI + wi
				cells[ci] = append(cells[ci], accs[i].Addr)
			}
		}
		l.bySite = make([][][]uint64, ns)
		for s := 0; s < ns; s++ {
			row := cells[s*nWI : (s+1)*nWI]
			for _, c := range row {
				if c != nil {
					l.bySite[s] = row
					break
				}
			}
		}
	})
	return l.bySite
}

// Sites returns the same grouping as SiteAccesses in map form (site →
// work-item → addresses), omitting empty sites and work-items. Kept for
// consumers that want sparse lookup; derived from the slice form.
func (l *AccessLog) Sites() map[int]map[int][]uint64 {
	l.mapono.Do(func() {
		l.sites = make(map[int]map[int][]uint64)
		for s, row := range l.SiteAccesses() {
			if row == nil {
				continue
			}
			m := make(map[int][]uint64)
			for wi, addrs := range row {
				if len(addrs) > 0 {
					m[wi] = addrs
				}
			}
			l.sites[s] = m
		}
	})
	return l.sites
}

// WIAccesses exposes one work-item's raw access list (tests).
func (l *AccessLog) WIAccesses(wi int) []Access { return l.perWI[wi] }

// byteAddr folds buffer identity and element offset into one address space.
func byteAddr(m *Memory, elemOff int64) uint64 {
	return uint64(m.ID)<<40 | uint64(elemOff*int64(m.ElemBytes))
}
