// Package opencl is a simulated OpenCL host API over the oclc interpreter
// and the perfmodel timing model. It reproduces the slice of the OpenCL
// object model that ATF's pre-implemented OpenCL cost function drives:
// platform/device discovery by name, contexts, buffers, program builds with
// -D options (tuning-parameter substitution), kernels with positional
// arguments, NDRange enqueue, and profiling events that report the
// (simulated) kernel execution time.
package opencl

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"atf/internal/obs"
	"atf/internal/oclc"
	"atf/internal/perfmodel"
)

// Simulated device-queue metrics (DESIGN.md §3c): every EnqueueNDRange is
// one enqueue→profile round trip, the unit tuning cost functions pay per
// configuration.
var (
	mEnqueues = obs.NewCounter("atf_opencl_enqueues_total",
		"Kernel launches enqueued on the simulated device queue")
	mEnqueueFailed = obs.NewCounter("atf_opencl_enqueue_failures_total",
		"Enqueues rejected (bad NDRange, work-group limit) or failed in execution")
	mEnqueueSeconds = obs.NewHistogram("atf_opencl_enqueue_seconds",
		"Wall-clock enqueue-to-profile latency of one simulated kernel launch", nil)
)

// Platform is an OpenCL platform: a vendor name and its devices.
type Platform struct {
	Name    string
	Devices []*Device
}

// Device is a simulated OpenCL device.
type Device struct {
	Desc     *perfmodel.Device
	Platform string
}

// Name returns the device name.
func (d *Device) Name() string { return d.Desc.Name }

// Platforms enumerates the simulated platforms, sorted by name for
// deterministic discovery.
func Platforms() []*Platform {
	cat := perfmodel.Catalog()
	names := make([]string, 0, len(cat))
	for n := range cat {
		names = append(names, n)
	}
	sort.Strings(names)
	var ps []*Platform
	for _, n := range names {
		p := &Platform{Name: n}
		for _, d := range cat[n] {
			p.Devices = append(p.Devices, &Device{Desc: d, Platform: n})
		}
		ps = append(ps, p)
	}
	return ps
}

// FindDevice selects a device directly by platform and device name
// (substring match, case-insensitive) — the convenience ATF offers instead
// of CLTune's numeric platform/device ids (paper, Section III).
func FindDevice(platform, device string) (*Device, error) {
	for _, p := range Platforms() {
		if !strings.Contains(strings.ToLower(p.Name), strings.ToLower(platform)) {
			continue
		}
		for _, d := range p.Devices {
			if strings.Contains(strings.ToLower(d.Name()), strings.ToLower(device)) {
				return d, nil
			}
		}
	}
	return nil, fmt.Errorf("opencl: no device matching platform %q, device %q", platform, device)
}

// Context owns buffers for one device.
type Context struct {
	dev    *Device
	nextID int
}

// NewContext creates a context on the device.
func NewContext(dev *Device) *Context { return &Context{dev: dev} }

// Device returns the context's device.
func (c *Context) Device() *Device { return c.dev }

// Buffer is a device-side float32 buffer.
type Buffer struct {
	mem *oclc.Memory
}

// CreateBuffer allocates an n-element float32 buffer.
func (c *Context) CreateBuffer(n int) *Buffer {
	c.nextID++
	return &Buffer{mem: oclc.NewGlobalMemory(c.nextID, oclc.KFloat, 4, n)}
}

// CreateIntBuffer allocates an n-element int32 buffer.
func (c *Context) CreateIntBuffer(n int) *Buffer {
	c.nextID++
	return &Buffer{mem: oclc.NewGlobalMemory(c.nextID, oclc.KInt, 4, n)}
}

// Len returns the element count.
func (b *Buffer) Len() int { return b.mem.Len() }

// Write uploads host data (the simulated clEnqueueWriteBuffer).
func (b *Buffer) Write(data []float32) { b.mem.SetFloat32s(data) }

// Read downloads the buffer contents.
func (b *Buffer) Read() []float32 { return b.mem.Float32s() }

// FillRandom fills the buffer with deterministic pseudo-random values in
// [-2, 2] — ATF's default input for auto-tuning OpenCL kernels ("random
// data is the default input", Section II).
func (b *Buffer) FillRandom(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range b.mem.Data {
		b.mem.Data[i] = float64(rng.Float32()*4 - 2)
	}
}

// Program is OpenCL program source plus its built form.
type Program struct {
	ctx    *Context
	source string
	built  *oclc.Program
	opts   string
}

// CreateProgram wraps kernel source in a program object.
func (c *Context) CreateProgram(source string) *Program {
	return &Program{ctx: c, source: source}
}

// Build compiles the program with the given macro definitions — exactly
// how ATF substitutes tuning-parameter values: "cf_saxpy replaces in
// kernel's source code the tuning parameters' names by their corresponding
// values ... using the OpenCL preprocessor" (Section II). Builds go through
// oclc's shared compiled-program cache keyed by the define set, so
// rebuilding a previously seen configuration (annealing revisits, parallel
// exploration workers, post-tuning Verify) skips the preprocess/lex/parse
// pipeline entirely — the behaviour of a real OpenCL driver's program
// cache.
func (p *Program) Build(defines map[string]string) error {
	prog, err := oclc.CompileCached(p.source, defines)
	if err != nil {
		return fmt.Errorf("opencl: build failed: %w", err)
	}
	p.built = prog
	p.opts = oclc.BuildDefines(defines)
	return nil
}

// BuildOptions returns the -D option string of the last build (logs,
// tests).
func (p *Program) BuildOptions() string { return p.opts }

// Kernel is a built kernel with bound arguments.
type Kernel struct {
	prog *Program
	name string
	args []oclc.Arg
}

// CreateKernel looks up a __kernel function in the built program.
func (p *Program) CreateKernel(name string) (*Kernel, error) {
	if p.built == nil {
		return nil, fmt.Errorf("opencl: program not built")
	}
	if _, err := p.built.Kernel(name); err != nil {
		return nil, err
	}
	return &Kernel{prog: p, name: name}, nil
}

// SetArgs binds positional kernel arguments: int32/int64/int (integer
// scalars), float32/float64 (float scalars), or *Buffer.
func (k *Kernel) SetArgs(args ...any) error {
	k.args = k.args[:0]
	for i, a := range args {
		switch v := a.(type) {
		case int:
			k.args = append(k.args, oclc.IntArg(int64(v)))
		case int32:
			k.args = append(k.args, oclc.IntArg(int64(v)))
		case int64:
			k.args = append(k.args, oclc.IntArg(v))
		case float32:
			k.args = append(k.args, oclc.FloatArg(float64(v)))
		case float64:
			k.args = append(k.args, oclc.FloatArg(v))
		case *Buffer:
			k.args = append(k.args, oclc.BufArg(v.mem))
		default:
			return fmt.Errorf("opencl: unsupported kernel argument %d of type %T", i, a)
		}
	}
	return nil
}

// Queue issues work to a device.
type Queue struct {
	ctx *Context
	// Functional forces full NDRange execution (correctness checking);
	// the default profiles a sampled work-group and extrapolates, like
	// tuning runs that never read results back (Section II: "we refrain
	// from downloading the data").
	Functional bool
	// Jitter is the relative measurement-noise amplitude (default 1%).
	Jitter float64
}

// NewQueue creates a command queue with profiling enabled.
func NewQueue(ctx *Context) *Queue { return &Queue{ctx: ctx, Jitter: 0.01} }

// Event carries profiling information of one enqueued kernel, as the
// OpenCL profiling API would.
type Event struct {
	Estimate *perfmodel.Estimate
	Exec     *oclc.ExecResult
}

// DurationNs returns the simulated kernel execution time.
func (e *Event) DurationNs() float64 { return e.Estimate.TimeNs }

// EnqueueNDRange launches a kernel over global/local sizes (1 or 2
// dimensions) and blocks until the simulated execution finishes.
func (q *Queue) EnqueueNDRange(k *Kernel, global, local []int64) (*Event, error) {
	start := time.Now()
	ev, err := q.enqueueNDRange(k, global, local)
	mEnqueues.Inc()
	mEnqueueSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		mEnqueueFailed.Inc()
	}
	return ev, err
}

func (q *Queue) enqueueNDRange(k *Kernel, global, local []int64) (*Event, error) {
	if len(global) != len(local) || len(global) < 1 || len(global) > 2 {
		return nil, fmt.Errorf("opencl: global/local must both be 1-D or 2-D")
	}
	var cfg oclc.LaunchConfig
	if len(global) == 1 {
		cfg = oclc.NDRange1D(global[0], local[0])
	} else {
		cfg = oclc.NDRange2D(global[0], global[1], local[0], local[1])
	}

	// Reject work-group sizes beyond the device limit before executing,
	// as clEnqueueNDRangeKernel would.
	if cfg.WorkGroupSize() > int64(q.ctx.dev.Desc.MaxWorkGroupSize) {
		return nil, fmt.Errorf("opencl: CL_INVALID_WORK_GROUP_SIZE: %d > %d",
			cfg.WorkGroupSize(), q.ctx.dev.Desc.MaxWorkGroupSize)
	}

	opts := oclc.ExecOptions{SampleGroups: 1, RecordAccesses: true}
	if q.Functional {
		opts = oclc.ExecOptions{}
	}
	res, err := k.prog.built.Launch(k.name, k.args, cfg, opts)
	if err != nil {
		return nil, err
	}
	model := &perfmodel.Model{Dev: q.ctx.dev.Desc, Jitter: q.Jitter}
	sig := fmt.Sprintf("%s|%s|%v|%v", k.name, k.prog.opts, global, local)
	est, err := model.EstimateLaunch(cfg, res, sig)
	if err != nil {
		return nil, err
	}
	return &Event{Estimate: est, Exec: res}, nil
}
