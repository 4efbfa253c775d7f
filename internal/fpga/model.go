package fpga

import (
	"fmt"
	"math"
)

// The latency model, calibrated to the paper's HARP2 deployment: a fully
// pipelined design whose critical path is the 512-bit bloom filter (§6.5),
// reached over a CCI channel with a sub-600 ns round trip (§6.2: ~200 ns
// read-hit to LLC from the FPGA, <400 ns write back).
const (
	// clockMHz is the fabric clock.
	clockMHz = 200
	// pipelineDepth is the number of stages a request occupies beyond its
	// address beats: hash, 2×filter, vector, validate, update, 2×queue.
	pipelineDepth = 8
	// addrsPerBeat is how many 64-bit addresses stream per cycle: one
	// 512-bit cache line per beat, §5.2's coincidence.
	addrsPerBeat = 8
	// RoundTripNanos is the CPU↔FPGA queue round trip.
	RoundTripNanos = 600
)

// sigSeed seeds the multiply-shift hash constants of every engine; the CPU
// side signs with the engine's own Hasher, so both agree.
const sigSeed = 0

// requestCycles returns the pipeline occupancy of a request with the given
// footprint: streaming the addresses in line-sized beats plus the fixed
// stage depth.
func requestCycles(reads, writes int) uint64 {
	beats := (reads + addrsPerBeat - 1) / addrsPerBeat
	beats += (writes + addrsPerBeat - 1) / addrsPerBeat
	if beats == 0 {
		beats = 1
	}
	return uint64(beats + pipelineDepth)
}

// cyclesToNanos converts cycles at the fabric clock.
func cyclesToNanos(c uint64) uint64 { return c * 1000 / clockMHz }

// ---------------------------------------------------------------------------
// Resource model (§6.5)

// ResourceReport estimates the FPGA footprint of a ROCoCo engine
// configuration on the paper's Arria 10 (10AX115U3F45E2SGE3).
type ResourceReport struct {
	W, M int

	Registers    int
	RegistersPct float64
	ALMs         int
	ALMsPct      float64
	DSPs         int
	DSPsPct      float64
	BRAMBits     int
	BRAMBitsPct  float64
	FmaxMHz      float64
}

// Device totals implied by the paper's §6.5 percentages (ALM, DSP and
// BRAM match the Arria 10 GX 1150 datasheet; the register total is the
// paper's own arithmetic).
const (
	deviceRegisters = 180421
	deviceALMs      = 427200
	deviceDSPs      = 1518
	deviceBRAMBits  = 55562216
)

// Calibration constants: linear-in-area model
//
//	resource(W, m) = shell + cW·W² + cM·m
//
// fitted so that the W=64, m=512 design point reproduces the paper's
// reported utilization (113485 registers, 249442 ALMs, 223 DSPs,
// 2055802 BRAM bits, 200 MHz).
const (
	regShell, regPerW2, regPerM = 44877, 8.0, 70.0
	almShell, almPerW2, almPerM = 99938, 20.0, 132.0
	dspShell, dspPerM           = 7, 27.0 / 64.0
	bramShell                   = 1990266 // queues, CCI shell buffers
)

// EstimateResources returns the modeled footprint for a window of W
// transactions with m-bit signatures.
func EstimateResources(w, m int) (ResourceReport, error) {
	if w < 1 || m < 64 {
		return ResourceReport{}, fmt.Errorf("fpga: invalid geometry W=%d m=%d", w, m)
	}
	w2 := float64(w * w)
	mf := float64(m)
	r := ResourceReport{
		W: w, M: m,
		Registers: int(regShell + regPerW2*w2 + regPerM*mf),
		ALMs:      int(almShell + almPerW2*w2 + almPerM*mf),
		DSPs:      int(dspShell + dspPerM*mf),
		// Signature history: two m-bit signatures per window entry, on top
		// of the fixed shell.
		BRAMBits: bramShell + 2*w*m,
		// The critical path is the m-bit filter reduction: frequency
		// degrades with the reduction-tree depth, normalized to 200 MHz at
		// m=512 (§6.5 observes 1024-bit costs clock frequency).
		FmaxMHz: 200 * math.Sqrt(512/mf),
	}
	r.RegistersPct = 100 * float64(r.Registers) / deviceRegisters
	r.ALMsPct = 100 * float64(r.ALMs) / deviceALMs
	r.DSPsPct = 100 * float64(r.DSPs) / deviceDSPs
	r.BRAMBitsPct = 100 * float64(r.BRAMBits) / deviceBRAMBits
	return r, nil
}
