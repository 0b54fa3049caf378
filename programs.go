package netemu

import (
	"math/rand"

	"repro/internal/program"
)

// Program is a synchronous message-passing guest program: per-processor
// init plus a deterministic step function over neighbour states.
type Program = program.Program

// Word is a processor state.
type Word = program.Word

// ProgramResult reports an emulated program run: the final states (those
// of the native run) and the host's tick costs.
type ProgramResult = program.EmulatedResult

// NewFloodMax returns the flood-maximum program: after diameter steps every
// processor holds the global maximum.
func NewFloodMax() Program { return &program.FloodMax{} }

// NewSumDiffusion returns the mass-conserving integer diffusion (defined on
// regular guests).
func NewSumDiffusion() Program { return program.SumDiffusion{} }

// NewParityWave returns the XOR wavefront program — a tamper detector for
// the emulation path.
func NewParityWave() Program { return program.ParityWave{} }

// ProgramByName resolves "floodmax", "sumdiffusion", or "paritywave".
func ProgramByName(name string) (Program, error) { return program.ByName(name) }

// RunProgram executes p natively on guest for the given steps and returns
// the final per-processor states.
func RunProgram(p Program, guest *Machine, steps int) []Word {
	return program.Run(p, guest, steps)
}

// RunProgramEmulated executes p on host emulating guest under the direct
// contraction emulation: the states are the native run's, the tick costs
// those of routing the cross-block words on host. steps must be at least 1.
func RunProgramEmulated(p Program, guest, host *Machine, steps int, seed int64) ProgramResult {
	return program.RunEmulated(p, guest, host, steps, rand.New(rand.NewSource(seed)))
}

// NewOddEvenSort returns odd-even transposition sort for a linear-array
// guest of size n — a complete algorithm whose emulated output is checked
// against the sorted oracle.
func NewOddEvenSort(n int) Program { return &program.OddEvenSort{N: n} }

// StatesSorted reports whether a program's final states are ascending.
func StatesSorted(states []Word) bool { return program.Sorted(states) }
