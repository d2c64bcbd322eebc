// Package sim is the execution-driven machine simulator: an in-order
// interpreter for ir programs that drives the L1 data and instruction cache
// models, a branch predictor, a store buffer, an FP latency scoreboard, and
// the hardware performance counter unit. It stands in for the UltraSPARC
// hardware of the paper: every claim about cycles, cache misses and stalls
// is measured against this machine.
//
// The cost model is deliberately simple and deterministic: one cycle per
// retired instruction, plus fixed penalties for I-cache misses, D-cache load
// misses, branch mispredicts, store-buffer overflow and FP result latency.
// The paper's results depend on *where* events concentrate, not on exact
// UltraSPARC timings, so a stable first-order model suffices.
package sim

import (
	"fmt"
	"math"

	"pathprof/internal/branch"
	"pathprof/internal/cache"
	"pathprof/internal/hpm"
	"pathprof/internal/ir"
	"pathprof/internal/mem"
)

// Config selects machine parameters. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	L1D cache.Config
	L1I cache.Config

	// L2, when SizeBytes > 0, interposes a unified second-level cache on
	// the data path: L1 misses that hit L2 cost L2HitPenalty instead of the
	// full DMissPenalty.
	L2           cache.Config
	L2HitPenalty uint64

	PredictorBits uint
	StoreBufDepth int

	// IssueWidth models a superscalar front end: up to IssueWidth retired
	// instructions share one base cycle (penalties are unaffected). 0 or 1
	// is the scalar in-order default used by all the paper experiments.
	IssueWidth int

	// NumCounters is the PMU bank width K (0 means the UltraSPARC's classic
	// two PICs). Wider banks let instrumentation collect more events per
	// run; a MetricSet wider than the bank needs the multiplexing scheduler
	// (AttachScheduler).
	NumCounters int

	// Penalties, in cycles.
	DMissPenalty      uint64 // load miss stall (memory, or L2 miss)
	IMissPenalty      uint64 // instruction fetch miss stall
	MispredictPenalty uint64
	FPLatency         uint64 // cycles before an FP result is usable
	StoreDrainHit     uint64 // store buffer occupancy per store that hits
	StoreDrainMiss    uint64 // and per store that misses

	// Limits.
	MaxSteps  uint64 // dynamic instruction budget (0 = default)
	MaxDepth  int    // call depth limit (0 = default)
	MaxOutput int    // output buffer limit (0 = default)
}

// Instruction layout constants. Code is laid out sequentially from
// mem.TextBase in block order — InstrBytes per instruction, each procedure
// aligned to a fresh ProcAlign-byte I-cache line — so a program's block
// order determines its instruction addresses, and with them its I-cache
// footprint and branch-predictor indexing. The pgo layout passes rely on
// this model when packing hot chains.
const (
	InstrBytes uint64 = 4
	ProcAlign  uint64 = 32
)

// DefaultConfig returns the UltraSPARC-like default machine.
func DefaultConfig() Config {
	return Config{
		L1D:               cache.DefaultL1D,
		L1I:               cache.DefaultL1I,
		PredictorBits:     12,
		StoreBufDepth:     8,
		DMissPenalty:      6,
		IMissPenalty:      8,
		MispredictPenalty: 4,
		FPLatency:         3,
		StoreDrainHit:     1,
		StoreDrainMiss:    6,
		MaxSteps:          2_000_000_000,
		MaxDepth:          1 << 16,
		MaxOutput:         1 << 22,
	}
}

// ProbeCtx is the restricted machine interface exposed to probe handlers
// (the CCT runtime). Probes charge representative costs so that context
// sensitive profiling has realistic overhead and perturbation.
type ProbeCtx interface {
	// TouchRead simulates a data-cache read of addr, charging any miss
	// penalty and counting events.
	TouchRead(addr uint64)
	// TouchWrite simulates a data-cache write of addr.
	TouchWrite(addr uint64)
	// ChargeInstrs accounts for n inline instrumentation instructions
	// (instructions + cycles), modelling code the probe stands in for.
	ChargeInstrs(n uint64)
	// Mem exposes simulated memory (probes keep runtime state there).
	Mem() *mem.Memory
	// Depth returns the current activation depth (1 = main only).
	Depth() int
	// Cycles returns the current cycle count.
	Cycles() uint64
}

// Probe is a runtime hook invoked by the Probe instruction.
type Probe func(ctx ProbeCtx, arg int64) int64

// UnwindFn is notified when LongJmp discards activations; depth is the
// number of activations remaining after the unwind.
type UnwindFn func(depth int)

// Tracer observes control flow as the machine executes: every CFG edge
// taken (identified by source block and successor slot, so parallel edges
// stay distinct), every procedure entry, and every return. Tests use it to
// build ground-truth path and context profiles to compare instrumentation
// against; baseline profilers use it where the paper's counterparts used
// process-level mechanisms.
type Tracer interface {
	Edge(proc int, from ir.BlockID, slot int)
	Enter(proc int)
	Exit(proc int)
}

// activation is one procedure activation's complete state.
type activation struct {
	proc *ir.Proc
	blk  ir.BlockID
	idx  int // next instruction index within blk
	regs [ir.NumRegs]int64
}

type jmpbuf struct {
	depth int // stack depth (suspended callers) when SetJmp ran
	blk   ir.BlockID
	idx   int // resume index (instruction after the SetJmp)
	rt    ir.Reg
}

// Machine executes one program.
type Machine struct {
	cfg  Config
	prog *ir.Program

	memory *mem.Memory
	l1d    *cache.Cache
	l1i    *cache.Cache
	l2     *cache.Cache // nil when not configured
	pred   *branch.Predictor
	pmu    *hpm.Unit

	cycles uint64
	steps  uint64

	cur   activation
	stack []activation

	// Hot-loop block cache: the current block and its base instruction
	// address, refreshed on every control transfer so the per-instruction
	// path avoids re-indexing proc.Blocks and blockAddr each step.
	curBlock *ir.Block
	curBase  uint64

	// Instruction addresses: base address per (proc, block); instruction i
	// of a block sits at blockAddr + 4*i.
	blockAddr [][]uint64

	// Store buffer slot free times.
	storeFree []uint64

	// Superscalar issue slot accumulator (see Config.IssueWidth).
	issueSlots int

	// FP scoreboard: cycle at which each register's value is ready.
	fpReady [ir.NumRegs]uint64

	probes   map[int64]Probe
	onUnwind []UnwindFn
	tracer   Tracer

	// Counter-multiplexing state (AttachScheduler): the scheduler rotates
	// every muxQuantum retired instructions, so the schedule is a pure
	// function of the instruction stream — deterministic across runs.
	mux        *hpm.Scheduler
	muxQuantum uint64
	muxSpent   uint64

	jmpbufs []jmpbuf

	output []int64
	halted bool
}

// New builds a machine for prog: lays out instruction addresses, maps the
// global segment, and initializes the stack pointer.
func New(prog *ir.Program, cfg Config) *Machine {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultConfig().MaxSteps
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = DefaultConfig().MaxDepth
	}
	if cfg.MaxOutput == 0 {
		cfg.MaxOutput = DefaultConfig().MaxOutput
	}
	if cfg.NumCounters == 0 {
		cfg.NumCounters = 2
	}
	m := &Machine{
		cfg:    cfg,
		prog:   prog,
		memory: mem.New(),
		l1d:    cache.New(cfg.L1D),
		l1i:    cache.New(cfg.L1I),
		pred:   branch.NewPredictor(cfg.PredictorBits),
		pmu:    hpm.NewK(cfg.NumCounters),
		probes: make(map[int64]Probe),
	}
	if cfg.L2.SizeBytes > 0 {
		m.l2 = cache.New(cfg.L2)
	}
	m.storeFree = make([]uint64, cfg.StoreBufDepth)

	addr := mem.TextBase
	m.blockAddr = make([][]uint64, len(prog.Procs))
	for pi, p := range prog.Procs {
		m.blockAddr[pi] = make([]uint64, len(p.Blocks))
		for bi, b := range p.Blocks {
			m.blockAddr[pi][bi] = addr
			addr += uint64(len(b.Instrs)) * InstrBytes
		}
		addr = (addr + ProcAlign - 1) &^ (ProcAlign - 1) // procedures start on fresh cache lines
	}

	base := prog.GlobalBase
	if base == 0 {
		base = mem.GlobalBase
	}
	m.memory.CopyRegion(base, prog.Globals)

	m.cur = activation{proc: prog.Procs[prog.Main]}
	m.cur.regs[ir.RegSP] = int64(mem.StackTop)
	m.reloadBlock()
	return m
}

// reloadBlock refreshes the cached current-block state after any change to
// m.cur's procedure or block.
func (m *Machine) reloadBlock() {
	m.curBlock = m.cur.proc.Blocks[m.cur.blk]
	m.curBase = m.blockAddr[m.cur.proc.ID][m.cur.blk]
}

// PMU returns the machine's performance monitor (to program event
// selections before running).
func (m *Machine) PMU() *hpm.Unit { return m.pmu }

// AttachScheduler multiplexes set over the machine's counter bank for the
// coming run: the bank rotates through the set's groups every quantum
// retired instructions (0 means DefaultMuxQuantum). Because rotation is
// driven by the deterministic instruction stream, the schedule — and the
// scaled estimates — are identical on every run of the same program. Run
// closes the final interval automatically; query the returned scheduler
// for Estimates afterwards. Attach before running, not mid-run.
func (m *Machine) AttachScheduler(set hpm.MetricSet, quantum uint64) *hpm.Scheduler {
	if quantum == 0 {
		quantum = DefaultMuxQuantum
	}
	m.mux = hpm.NewScheduler(m.pmu, set)
	m.muxQuantum = quantum
	m.muxSpent = 0
	return m.mux
}

// DefaultMuxQuantum is the rotation interval, in retired instructions, used
// when AttachScheduler is given a zero quantum. Small enough that even the
// test-scale workloads see every group many times, large enough that
// rotation overhead would be negligible on real hardware.
const DefaultMuxQuantum = 10_000

// EventCatalog returns the countable hardware events the machine model
// exposes, in menu order (EvNone excluded) — the universe a MetricSet can
// draw from.
func EventCatalog() []hpm.Event {
	evs := make([]hpm.Event, 0, hpm.NumEvents-1)
	for e := hpm.Event(1); e < hpm.NumEvents; e++ {
		evs = append(evs, e)
	}
	return evs
}

// RegisterProbe installs fn as the handler for Probe instructions carrying
// id.
func (m *Machine) RegisterProbe(id int64, fn Probe) {
	m.probes[id] = fn
}

// OnUnwind registers a longjmp-unwind listener.
func (m *Machine) OnUnwind(fn UnwindFn) { m.onUnwind = append(m.onUnwind, fn) }

// SetTracer installs a control-flow tracer (nil disables tracing).
func (m *Machine) SetTracer(t Tracer) { m.tracer = t }

// --- ProbeCtx ---

// Mem returns the simulated memory.
func (m *Machine) Mem() *mem.Memory { return m.memory }

// Depth returns the current activation depth (1 = main only).
func (m *Machine) Depth() int { return len(m.stack) + 1 }

// Cycles returns the current cycle count.
func (m *Machine) Cycles() uint64 { return m.cycles }

// CallStack returns the procedure IDs of all live activations, outermost
// first (ending with the currently running procedure). The sampling
// profiler baseline walks it the way Goldberg and Hall walked the process
// stack.
func (m *Machine) CallStack() []int {
	out := make([]int, 0, len(m.stack)+1)
	for _, a := range m.stack {
		out = append(out, a.proc.ID)
	}
	return append(out, m.cur.proc.ID)
}

// TouchRead simulates a D-cache read access.
func (m *Machine) TouchRead(addr uint64) {
	m.pmu.Count(hpm.EvLoads, 1)
	m.pmu.Count(hpm.EvDCacheRead, 1)
	if !m.l1d.Read(addr) {
		m.pmu.Count(hpm.EvDCacheReadMiss, 1)
		m.addCycles(m.missPenalty(addr, false))
	}
}

// missPenalty charges an L1 miss through the L2, when configured.
func (m *Machine) missPenalty(addr uint64, write bool) uint64 {
	if m.l2 == nil {
		return m.cfg.DMissPenalty
	}
	if m.l2.Access(addr, write) {
		m.pmu.Count(hpm.EvL2Hit, 1)
		return m.cfg.L2HitPenalty
	}
	m.pmu.Count(hpm.EvL2Miss, 1)
	return m.cfg.DMissPenalty
}

// TouchWrite simulates a D-cache write access (through the store buffer).
func (m *Machine) TouchWrite(addr uint64) {
	m.pmu.Count(hpm.EvStores, 1)
	m.pmu.Count(hpm.EvDCacheWrite, 1)
	hit := m.l1d.Write(addr)
	if !hit {
		m.pmu.Count(hpm.EvDCacheWriteMiss, 1)
		if m.l2 != nil {
			// Write misses allocate through the L2 (latency is absorbed by
			// the store buffer's drain time, as for L1 write misses).
			m.missPenalty(addr, true)
		}
	}
	m.storeBufferPush(hit)
}

// ChargeInstrs accounts for n instrumentation instructions.
func (m *Machine) ChargeInstrs(n uint64) {
	m.pmu.Count(hpm.EvInsts, n)
	m.addCycles(n)
	for i := uint64(0); i < n; i++ {
		m.pmu.Retire()
	}
}

// --- core accounting ---

func (m *Machine) addCycles(n uint64) {
	m.cycles += n
	m.pmu.Count(hpm.EvCycles, n)
}

func (m *Machine) storeBufferPush(hit bool) {
	// Take a slot that is already free, else the earliest-free one and
	// stall until it frees. Free slots are interchangeable: m.cycles never
	// decreases, so a slot free now stays free and its old time never
	// matters again, and the first free slot found serves as well as the
	// earliest.
	now := m.cycles
	best, free := 0, m.storeFree[0]
	for i, f := range m.storeFree {
		if f <= now {
			best, free = i, f
			break
		}
		if f < free {
			best, free = i, f
		}
	}
	if free > now {
		stall := free - now
		m.addCycles(stall)
		m.pmu.Count(hpm.EvStoreBufStalls, stall)
		now = m.cycles
	}
	drain := m.cfg.StoreDrainHit
	if !hit {
		drain = m.cfg.StoreDrainMiss
	}
	m.storeFree[best] = now + drain
}

func (m *Machine) waitFP(r ir.Reg) {
	if ready := m.fpReady[r]; ready > m.cycles {
		stall := ready - m.cycles
		m.addCycles(stall)
		m.pmu.Count(hpm.EvFPStalls, stall)
	}
}

// Result summarizes a completed run.
type Result struct {
	Cycles   uint64
	Instrs   uint64
	Output   []int64
	Totals   [hpm.NumEvents]uint64
	L1D      cache.Stats
	L1I      cache.Stats
	L2       cache.Stats // zero when no L2 is configured
	MemBytes uint64
}

// Run executes the program to completion (Halt) and returns the result. It
// returns an error for runtime faults: step budget exhausted, call depth
// exceeded, invalid longjmp, or an unknown probe.
func (m *Machine) Run() (Result, error) {
	if m.tracer != nil {
		m.tracer.Enter(m.cur.proc.ID)
	}
	for !m.halted {
		if m.steps >= m.cfg.MaxSteps {
			return Result{}, fmt.Errorf("sim: %s: step budget %d exhausted in %s", m.prog.Name, m.cfg.MaxSteps, m.cur.proc.Name)
		}
		if err := m.step(); err != nil {
			return Result{}, fmt.Errorf("sim: %s: %w", m.prog.Name, err)
		}
	}
	if m.mux != nil && m.muxSpent > 0 {
		m.mux.Finish(m.muxSpent)
		m.muxSpent = 0
	}
	res := Result{
		Cycles:   m.cycles,
		Instrs:   m.pmu.Total(hpm.EvInsts),
		Output:   m.output,
		Totals:   m.pmu.Totals(),
		L1D:      m.l1d.Stats(),
		L1I:      m.l1i.Stats(),
		MemBytes: m.memory.FootprintBytes(),
	}
	if m.l2 != nil {
		res.L2 = m.l2.Stats()
	}
	return res, nil
}

// Step executes exactly one instruction. It is the single-step form of Run
// for debuggers and micro-benchmarks; unlike Run it does not enforce the
// step budget. Stepping a halted machine is a no-op-free error in the sense
// that behaviour is undefined; check Halted first.
func (m *Machine) Step() error { return m.step() }

// Halted reports whether the machine has executed Halt (or returned from
// main).
func (m *Machine) Halted() bool { return m.halted }

// Steps returns the number of instructions executed so far.
func (m *Machine) Steps() uint64 { return m.steps }

func (m *Machine) step() error {
	blk := m.curBlock
	in := &blk.Instrs[m.cur.idx]
	iaddr := m.curBase + uint64(m.cur.idx)*4

	// Fetch.
	if !m.l1i.Read(iaddr) {
		m.pmu.Count(hpm.EvICacheMiss, 1)
		m.addCycles(m.cfg.IMissPenalty)
	}

	// Retire accounting: one instruction; the base cycle is shared across
	// IssueWidth instructions when a superscalar width is configured. The
	// PMU posts the instruction and its base cycle lazily (hpm.Unit.Tick);
	// m.cycles stays eager for RdTick, the store buffer and the FP
	// scoreboard.
	m.steps++
	base := uint64(1)
	if m.cfg.IssueWidth > 1 {
		m.issueSlots++
		if m.issueSlots >= m.cfg.IssueWidth {
			m.issueSlots = 0
		} else {
			base = 0
		}
	}
	m.cycles += base
	m.pmu.Tick(base)

	regs := &m.cur.regs
	advance := true

	switch in.Op {
	case ir.Nop:

	case ir.Add:
		regs[in.Rd] = regs[in.Rs] + regs[in.Rt]
	case ir.Sub:
		regs[in.Rd] = regs[in.Rs] - regs[in.Rt]
	case ir.Mul:
		regs[in.Rd] = regs[in.Rs] * regs[in.Rt]
	case ir.Div:
		if regs[in.Rt] == 0 {
			regs[in.Rd] = 0
		} else {
			regs[in.Rd] = regs[in.Rs] / regs[in.Rt]
		}
	case ir.Rem:
		if regs[in.Rt] == 0 {
			regs[in.Rd] = 0
		} else {
			regs[in.Rd] = regs[in.Rs] % regs[in.Rt]
		}
	case ir.And:
		regs[in.Rd] = regs[in.Rs] & regs[in.Rt]
	case ir.Or:
		regs[in.Rd] = regs[in.Rs] | regs[in.Rt]
	case ir.Xor:
		regs[in.Rd] = regs[in.Rs] ^ regs[in.Rt]
	case ir.Shl:
		regs[in.Rd] = regs[in.Rs] << (uint64(regs[in.Rt]) & 63)
	case ir.Shr:
		regs[in.Rd] = int64(uint64(regs[in.Rs]) >> (uint64(regs[in.Rt]) & 63))

	case ir.AddI:
		regs[in.Rd] = regs[in.Rs] + in.Imm
	case ir.MulI:
		regs[in.Rd] = regs[in.Rs] * in.Imm
	case ir.AndI:
		regs[in.Rd] = regs[in.Rs] & in.Imm
	case ir.OrI:
		regs[in.Rd] = regs[in.Rs] | in.Imm
	case ir.XorI:
		regs[in.Rd] = regs[in.Rs] ^ in.Imm
	case ir.ShlI:
		regs[in.Rd] = regs[in.Rs] << (uint64(in.Imm) & 63)
	case ir.ShrI:
		regs[in.Rd] = int64(uint64(regs[in.Rs]) >> (uint64(in.Imm) & 63))

	case ir.MovI:
		regs[in.Rd] = in.Imm
	case ir.Mov:
		regs[in.Rd] = regs[in.Rs]

	case ir.CmpLT:
		regs[in.Rd] = b2i(regs[in.Rs] < regs[in.Rt])
	case ir.CmpLE:
		regs[in.Rd] = b2i(regs[in.Rs] <= regs[in.Rt])
	case ir.CmpEQ:
		regs[in.Rd] = b2i(regs[in.Rs] == regs[in.Rt])
	case ir.CmpNE:
		regs[in.Rd] = b2i(regs[in.Rs] != regs[in.Rt])
	case ir.CmpLTI:
		regs[in.Rd] = b2i(regs[in.Rs] < in.Imm)
	case ir.CmpLEI:
		regs[in.Rd] = b2i(regs[in.Rs] <= in.Imm)
	case ir.CmpEQI:
		regs[in.Rd] = b2i(regs[in.Rs] == in.Imm)
	case ir.CmpNEI:
		regs[in.Rd] = b2i(regs[in.Rs] != in.Imm)

	case ir.FAdd, ir.FSub, ir.FMul, ir.FDiv, ir.FCmpLT:
		m.waitFP(in.Rs)
		m.waitFP(in.Rt)
		a := math.Float64frombits(uint64(regs[in.Rs]))
		b := math.Float64frombits(uint64(regs[in.Rt]))
		var v float64
		switch in.Op {
		case ir.FAdd:
			v = a + b
		case ir.FSub:
			v = a - b
		case ir.FMul:
			v = a * b
		case ir.FDiv:
			v = a / b
		case ir.FCmpLT:
			regs[in.Rd] = b2i(a < b)
		}
		if in.Op != ir.FCmpLT {
			regs[in.Rd] = int64(math.Float64bits(v))
			m.fpReady[in.Rd] = m.cycles + m.cfg.FPLatency
		}
	case ir.FNeg:
		m.waitFP(in.Rs)
		regs[in.Rd] = int64(math.Float64bits(-math.Float64frombits(uint64(regs[in.Rs]))))
		m.fpReady[in.Rd] = m.cycles + m.cfg.FPLatency
	case ir.FSqrt:
		m.waitFP(in.Rs)
		regs[in.Rd] = int64(math.Float64bits(math.Sqrt(math.Float64frombits(uint64(regs[in.Rs])))))
		m.fpReady[in.Rd] = m.cycles + 2*m.cfg.FPLatency
	case ir.CvtIF:
		regs[in.Rd] = int64(math.Float64bits(float64(regs[in.Rs])))
		m.fpReady[in.Rd] = m.cycles + m.cfg.FPLatency
	case ir.CvtFI:
		m.waitFP(in.Rs)
		f := math.Float64frombits(uint64(regs[in.Rs]))
		regs[in.Rd] = int64(f)

	case ir.Load:
		addr := uint64(regs[in.Rs] + in.Imm)
		if addr&7 != 0 {
			return fmt.Errorf("unaligned load at %#x in %s b%d", addr, m.cur.proc.Name, m.cur.blk)
		}
		m.TouchRead(addr)
		regs[in.Rd] = m.memory.Load(addr)
	case ir.LoadIdx:
		addr := uint64(regs[in.Rs] + regs[in.Rt]*8 + in.Imm)
		if addr&7 != 0 {
			return fmt.Errorf("unaligned load at %#x in %s b%d", addr, m.cur.proc.Name, m.cur.blk)
		}
		m.TouchRead(addr)
		regs[in.Rd] = m.memory.Load(addr)
	case ir.Store:
		addr := uint64(regs[in.Rs] + in.Imm)
		if addr&7 != 0 {
			return fmt.Errorf("unaligned store at %#x in %s b%d", addr, m.cur.proc.Name, m.cur.blk)
		}
		m.TouchWrite(addr)
		m.memory.Store(addr, regs[in.Rd])
	case ir.StoreIdx:
		addr := uint64(regs[in.Rs] + regs[in.Rt]*8 + in.Imm)
		if addr&7 != 0 {
			return fmt.Errorf("unaligned store at %#x in %s b%d", addr, m.cur.proc.Name, m.cur.blk)
		}
		m.TouchWrite(addr)
		m.memory.Store(addr, regs[in.Rd])

	case ir.Call, ir.CallInd:
		target := in.Imm
		if in.Op == ir.CallInd {
			target = regs[in.Rs]
		}
		if target < 0 || int(target) >= len(m.prog.Procs) {
			return fmt.Errorf("call to invalid procedure %d at %s b%d", target, m.cur.proc.Name, m.cur.blk)
		}
		if len(m.stack)+1 >= m.cfg.MaxDepth {
			return fmt.Errorf("call depth limit %d exceeded calling %s", m.cfg.MaxDepth, m.prog.Procs[target].Name)
		}
		m.pmu.Count(hpm.EvCalls, 1)
		m.addCycles(1) // call overhead
		if m.tracer != nil {
			m.tracer.Enter(int(target))
		}
		caller := m.cur
		caller.idx++ // resume after the call
		m.stack = append(m.stack, caller)
		next := activation{proc: m.prog.Procs[target]}
		for r := ir.RegArg0; r < ir.RegArg0+ir.NumArgRegs; r++ {
			next.regs[r] = caller.regs[r]
		}
		next.regs[ir.RegSP] = caller.regs[ir.RegSP]
		m.cur = next
		m.reloadBlock()
		m.fpReady = [ir.NumRegs]uint64{}
		advance = false

	case ir.Ret:
		if m.tracer != nil {
			m.tracer.Exit(m.cur.proc.ID)
		}
		if len(m.stack) == 0 {
			// Returning from main halts the machine.
			m.halted = true
			advance = false
			break
		}
		rv := regs[ir.RegRV]
		sp := regs[ir.RegSP]
		m.cur = m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		m.cur.regs[ir.RegRV] = rv
		m.cur.regs[ir.RegSP] = sp
		m.reloadBlock()
		m.fpReady = [ir.NumRegs]uint64{}
		advance = false

	case ir.Out:
		if len(m.output) >= m.cfg.MaxOutput {
			return fmt.Errorf("output limit %d exceeded", m.cfg.MaxOutput)
		}
		m.output = append(m.output, regs[in.Rs])

	case ir.RdPIC:
		// Imm selects the counter pair; the classic instrumentation leaves
		// it zero (PIC0/PIC1), wider metric sets address pairs 1, 2, ...
		regs[in.Rd] = int64(m.pmu.ReadPair(int(in.Imm)))
	case ir.WrPIC:
		m.pmu.WritePair(int(in.Imm), uint64(regs[in.Rs]))
	case ir.RdTick:
		regs[in.Rd] = int64(m.cycles)

	case ir.SetJmp:
		m.jmpbufs = append(m.jmpbufs, jmpbuf{
			depth: len(m.stack),
			blk:   m.cur.blk,
			idx:   m.cur.idx + 1,
			rt:    in.Rt,
		})
		regs[in.Rd] = int64(len(m.jmpbufs)) // handle (1-based)
		regs[in.Rt] = 0
	case ir.LongJmp:
		h := regs[in.Rs]
		if h < 1 || int(h) > len(m.jmpbufs) {
			return fmt.Errorf("longjmp with invalid handle %d", h)
		}
		buf := m.jmpbufs[h-1]
		if buf.depth > len(m.stack) {
			return fmt.Errorf("longjmp to dead frame (handle %d)", h)
		}
		val := regs[in.Rt]
		for len(m.stack) > buf.depth {
			m.cur = m.stack[len(m.stack)-1]
			m.stack = m.stack[:len(m.stack)-1]
		}
		m.cur.blk = buf.blk
		m.cur.idx = buf.idx
		m.cur.regs[buf.rt] = val
		m.reloadBlock()
		for _, fn := range m.onUnwind {
			fn(len(m.stack) + 1)
		}
		m.fpReady = [ir.NumRegs]uint64{}
		advance = false

	case ir.Probe:
		fn := m.probes[in.Imm]
		if fn == nil {
			return fmt.Errorf("unknown probe %d in %s", in.Imm, m.cur.proc.Name)
		}
		regs[in.Rd] = fn(m, regs[in.Rs])

	case ir.Br:
		taken := regs[in.Rs] != 0
		m.pmu.Count(hpm.EvBranches, 1)
		if !m.pred.Predict(iaddr, taken) {
			m.pmu.Count(hpm.EvMispredict, 1)
			m.pmu.Count(hpm.EvMispredictStalls, m.cfg.MispredictPenalty)
			m.addCycles(m.cfg.MispredictPenalty)
		}
		slot := 1
		if taken {
			slot = 0
		}
		m.issueSlots = 0 // control transfers end an issue group
		if m.tracer != nil {
			m.tracer.Edge(m.cur.proc.ID, m.cur.blk, slot)
		}
		m.cur.blk = blk.Succs[slot]
		m.cur.idx = 0
		m.reloadBlock()
		advance = false

	case ir.Jmp:
		if m.tracer != nil {
			m.tracer.Edge(m.cur.proc.ID, m.cur.blk, 0)
		}
		m.cur.blk = blk.Succs[0]
		m.cur.idx = 0
		m.reloadBlock()
		advance = false

	case ir.Halt:
		m.halted = true
		advance = false

	default:
		return fmt.Errorf("unimplemented opcode %s", in.Op)
	}

	m.pmu.Retire()
	if m.mux != nil {
		m.muxSpent++
		if m.muxSpent >= m.muxQuantum {
			m.mux.Rotate(m.muxSpent)
			m.muxSpent = 0
		}
	}
	if advance {
		m.cur.idx++
	}
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
