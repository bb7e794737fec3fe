// Package warp models the Warp systolic array machine — the paper's
// reference [1] and the specialized node of its vision application ("The
// application uses a Warp machine for low-level vision analysis", §7).
//
// Warp is a linear array of 10 cells, each sustaining 10 MFLOPS (100
// MFLOPS aggregate), through which data is pumped systolically: after a
// pipeline-fill delay, one result emerges per cell-cycle. The model charges
// that timing and performs the kernel's real arithmetic, so downstream
// consumers (the vision pipeline's feature extraction) operate on genuinely
// computed data.
package warp

import (
	"fmt"

	"repro/internal/sim"
)

// Array is one Warp machine.
type Array struct {
	eng   *sim.Engine
	name  string
	cells int
	// opTime is the time for one cell to perform one operation
	// (10 MFLOPS per cell -> 100 ns per op).
	opTime sim.Time
	// busyUntil serializes kernels through the single array.
	busyUntil sim.Time

	kernelsRun int64
	bytesIn    int64
}

// Prototype Warp parameters (Annaratone et al., 1987).
const (
	DefaultCells      = 10
	DefaultCellOpTime = 100 * sim.Nanosecond // 10 MFLOPS per cell
)

// New returns a Warp array with the prototype configuration.
func New(eng *sim.Engine, name string) *Array {
	return &Array{eng: eng, name: name, cells: DefaultCells, opTime: DefaultCellOpTime}
}

// KernelsRun returns the number of kernels executed.
func (a *Array) KernelsRun() int64 { return a.kernelsRun }

// Kernel is a systolic computation: OpsPerCellPerByte work at every cell
// for every input byte, and a Transform that performs the real arithmetic.
type Kernel struct {
	Name string
	// OpsPerCellPerByte is the per-cell work per input byte.
	OpsPerCellPerByte float64
	// Transform computes the kernel's actual output.
	Transform func(in []byte, width int) []byte
}

// execTime is the systolic pipeline time for n input bytes: fill the
// pipeline (cells stages), then one byte per bottleneck-stage time.
func (a *Array) execTime(k Kernel, n int) sim.Time {
	perByte := sim.Time(k.OpsPerCellPerByte * float64(a.opTime))
	if perByte < 1 {
		perByte = 1
	}
	fill := sim.Time(a.cells) * perByte
	return fill + sim.Time(n)*perByte
}

// Run pumps the input through the array from process context, blocking for
// the systolic execution time (plus queueing if the array is busy), and
// returns the kernel's computed output. width is the row length for 2-D
// kernels.
func (a *Array) Run(p *sim.Proc, k Kernel, in []byte, width int) []byte {
	start := a.eng.Now()
	if start < a.busyUntil {
		start = a.busyUntil
	}
	end := start + a.execTime(k, len(in))
	a.busyUntil = end
	a.kernelsRun++
	a.bytesIn += int64(len(in))
	p.Sleep(end - a.eng.Now())
	return k.Transform(in, width)
}

// Sobel is a 3x3 gradient-magnitude kernel (the classic low-level vision
// stage): ~12 flops per pixel spread across the 10 cells is 1.2 cell-ops
// per byte, putting a 256 KB frame at ~31 ms on the 100 MFLOPS array —
// Warp's published regime for 3x3 convolutions on 512x512 images.
var Sobel = Kernel{
	Name:              "sobel",
	OpsPerCellPerByte: 1.2,
	Transform: func(in []byte, width int) []byte {
		if width <= 0 {
			width = 512
		}
		h := len(in) / width
		out := make([]byte, len(in))
		at := func(x, y int) int {
			return int(in[y*width+x])
		}
		for y := 1; y < h-1; y++ {
			for x := 1; x < width-1; x++ {
				gx := -at(x-1, y-1) - 2*at(x-1, y) - at(x-1, y+1) +
					at(x+1, y-1) + 2*at(x+1, y) + at(x+1, y+1)
				gy := -at(x-1, y-1) - 2*at(x, y-1) - at(x+1, y-1) +
					at(x-1, y+1) + 2*at(x, y+1) + at(x+1, y+1)
				if gx < 0 {
					gx = -gx
				}
				if gy < 0 {
					gy = -gy
				}
				g := gx + gy
				if g > 255 {
					g = 255
				}
				out[y*width+x] = byte(g)
			}
		}
		return out
	},
}

// Threshold binarizes a gradient image (1 op per byte).
func Threshold(level byte) Kernel {
	return Kernel{
		Name:              fmt.Sprintf("threshold-%d", level),
		OpsPerCellPerByte: 1,
		Transform: func(in []byte, width int) []byte {
			out := make([]byte, len(in))
			for i, v := range in {
				if v >= level {
					out[i] = 1
				}
			}
			return out
		},
	}
}

// Feature is a detected image feature.
type Feature struct {
	X, Y  uint16
	Score uint16
}

// ExtractFeatures finds local maxima of a gradient image above a threshold,
// on a stride grid (host-side postprocessing of the systolic output).
func ExtractFeatures(grad []byte, width int, level byte, stride int, limit int) []Feature {
	if width <= 0 || stride <= 0 {
		return nil
	}
	h := len(grad) / width
	var out []Feature
	for y := stride; y < h-stride && len(out) < limit; y += stride {
		for x := stride; x < width-stride && len(out) < limit; x += stride {
			v := grad[y*width+x]
			if v < level {
				continue
			}
			// Local maximum within the stride cell.
			best := true
			for dy := -1; dy <= 1 && best; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if grad[(y+dy)*width+x+dx] > v {
						best = false
						break
					}
				}
			}
			if best {
				out = append(out, Feature{X: uint16(x), Y: uint16(y), Score: uint16(v)})
			}
		}
	}
	return out
}
