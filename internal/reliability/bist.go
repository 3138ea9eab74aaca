package reliability

import (
	"fmt"
	"math"

	"trident/internal/core"
	"trident/internal/device"
	"trident/internal/fixed"
)

// The built-in self-test. A deployed Trident part cannot ask the simulator
// which cells died; all it can do is run calibration vectors through its own
// inference path and compare the photocurrents against what the control
// unit's master weights predict. Feeding basis vector e_n lights up exactly
// column n, so each balanced detector reads (to crosstalk and noise) the
// single weight w_jn — one optical pass localizes a whole column of cells at
// once. A cell whose measured weight deviates from the quantized master copy
// by more than the tolerance is a *suspect*: it may be stuck (wear or
// defect), drift-displaced, or — below a few LSB — just noisy. The
// remediation scheduler decides which.
//
// The sweep covers the whole fabricated bank, not just the logical matrix
// block: edge cells outside the matrix are cycled by the transpose and
// broadcast training layouts and wear out like any other ring. Before
// probing, BIST parks every out-of-matrix cell at ParkWeight (+1, fully
// amorphous) — deliberately the opposite extreme from the stuck-crystalline
// wear signature, so a dead edge cell reads −1 against an expected +1
// instead of blending into a crystalline park value. Matrix cells are
// re-issued at their current levels, which the bank's compare-first write
// logic turns into no-ops.

// DefaultTolerance returns the default BIST deviation threshold: three
// 8-bit levels, comfortably above residual crosstalk mismatch and read
// noise, far below the ~1 weight-unit signature of a stuck cell.
func DefaultTolerance() float64 {
	return 3 * fixed.MustForBits(device.GSTBits).Step()
}

// ParkWeight is the value BIST parks out-of-matrix cells at before probing:
// fully amorphous, the extreme opposite of the stuck-crystalline wear
// signature, so edge-cell deaths stay visible to the self-test.
const ParkWeight = 1.0

// Suspect is one cell the self-test flagged as out of tolerance, localized
// to its fabricated (physical) position.
type Suspect struct {
	Layer, TileRow, TileCol int
	// PhysRow is the physical bank row of the suspect ring — the address
	// that stays put under wear-leveling rotation.
	PhysRow int
	// Row and Col are the tile-local logical coordinates probed (logical
	// row Row was served by PhysRow at test time).
	Row, Col int
	// Measured is the averaged photocurrent readout; Expected is the
	// control unit's prediction from the quantized master weights and the
	// crosstalk calibration.
	Measured, Expected float64
}

// suspectKey identifies a suspect by fabricated position, the identity that
// survives wear-leveling rotation.
type suspectKey struct {
	layer, tileRow, tileCol, physRow, col int
}

func (s Suspect) key() suspectKey {
	return suspectKey{s.Layer, s.TileRow, s.TileCol, s.PhysRow, s.Col}
}

// BankHealth summarizes one PE tile's self-test outcome.
type BankHealth struct {
	Layer, TileRow, TileCol int
	CellsTested             int
	Suspects                int
	MaskedRows              int
}

// BISTReport is the outcome of one full self-test sweep.
type BISTReport struct {
	// Suspects lists every flagged cell in fixed (layer, tileRow, tileCol,
	// probe) order.
	Suspects []Suspect
	// Banks holds one health record per PE tile, in the same fixed order.
	Banks []BankHealth
	// CellsTested counts cells actually probed (masked rows and
	// out-of-matrix edge cells are skipped).
	CellsTested int
}

// SuspectCount returns the number of flagged cells.
func (r *BISTReport) SuspectCount() int { return len(r.Suspects) }

// bistSlot collects one tile's results so concurrent tile sweeps never share
// a writer; slots merge in fixed order afterwards.
type bistSlot struct {
	suspects []Suspect
	health   BankHealth
}

// RunBIST sweeps the whole network: for every layer (forward layout
// re-programmed if stale) and every PE tile, it streams the full basis-probe
// campaign — each basis vector `repeats` times, n-major/rep-minor — through
// the tile's batched MVM path in one call, averages the readouts, and
// compares them against the prediction from the quantized master weights
// plus the band-radius-bounded crosstalk calibration, flagging deviations
// beyond DefaultTolerance. repeats ≤ 0 selects 2. Tiles are swept in
// parallel under the single-writer-per-PE contract; the report is
// deterministic for a fixed network state regardless of worker count.
func RunBIST(net *core.Graph, repeats int) (*BISTReport, error) {
	if net == nil {
		return nil, fmt.Errorf("reliability: nil network")
	}
	tolerance := DefaultTolerance()
	if repeats <= 0 {
		repeats = 2
	}
	quant := fixed.MustForBits(device.GSTBits)
	report := &BISTReport{}
	for li, layer := range net.Layers() {
		if err := layer.EnsureForward(); err != nil {
			return nil, fmt.Errorf("reliability: BIST layer %d: %w", li, err)
		}
		tiles := layer.Tiles()
		rt, ct := len(tiles), len(tiles[0])
		rows, cols := layer.TileDims()
		spec := layer.Spec()
		w := layer.Weights()
		slots := make([]bistSlot, rt*ct)
		err := core.RunTiles(rt, ct, func(r, c int) error {
			pe := tiles[r][c]
			bank := pe.Bank()
			sl := &slots[r*ct+c]
			sl.health = BankHealth{Layer: li, TileRow: r, TileCol: c,
				MaskedRows: bank.MaskedRowCount()}
			j0 := r * rows
			j1 := min(j0+rows, spec.Out)
			i0 := c * cols
			i1 := min(i0+cols, spec.In)
			if j1 <= j0 || i1 <= i0 {
				return nil
			}
			nOut, nIn := j1-j0, i1-i0
			bRows, bCols := pe.Rows(), pe.Cols()
			xtalk := bank.CrosstalkProfile()
			// The control unit's shadow of what it intends the forward bank
			// to hold: the quantized master weight inside the matrix block,
			// ParkWeight on edge cells.
			expectedW := func(j, m int) float64 {
				if j < nOut && m < nIn {
					return quant.Quantize(w[j0+j][i0+m])
				}
				return quant.Quantize(ParkWeight)
			}
			// Park pass: write the full intended block. Matrix cells re-issue
			// their current levels (no-op writes); edge cells move to the
			// park value, which also surfaces any worn edge cell as a fault
			// event through the normal programming path.
			block := make([][]float64, bRows)
			for j := range block {
				row := make([]float64, bCols)
				for i := range row {
					if j < nOut && i < nIn {
						row[i] = w[j0+j][i0+i]
					} else {
						row[i] = ParkWeight
					}
				}
				block[j] = row
			}
			if err := pe.Program(block); err != nil {
				return err
			}
			// The whole probe campaign is one flat basis batch through the
			// PE's batched MVM path: probe (n, rep) is sample n·repeats+rep,
			// the exact n-major/rep-minor order of the historical per-probe
			// loop, so the PE's noise stream, readouts and ledger are
			// bit-identical to issuing the passes one at a time.
			batch := bCols * repeats
			probes := make([]float64, batch*bCols)
			for n := 0; n < bCols; n++ {
				for rep := 0; rep < repeats; rep++ {
					probes[(n*repeats+rep)*bCols+n] = 1
				}
			}
			meas, err := pe.MVMPassBatchInto(nil, probes, batch, bCols, bRows)
			if err != nil {
				return err
			}
			// Crosstalk from probe column n reaches only columns within the
			// bank's effective band radius (constructor-clipped where the
			// leak falls under the detector floor).
			radius := bank.BandRadius()
			sum := make([]float64, bRows)
			for n := 0; n < bCols; n++ {
				for j := range sum {
					sum[j] = 0
				}
				for rep := 0; rep < repeats; rep++ {
					out := meas[(n*repeats+rep)*bRows:]
					for j := 0; j < bRows; j++ {
						sum[j] += out[j]
					}
				}
				m0 := max(n-radius, 0)
				m1 := min(n+radius, bCols-1)
				for j := 0; j < bRows; j++ {
					pr := bank.PhysicalRow(j)
					if bank.RowMasked(pr) {
						continue
					}
					expected := expectedW(j, n)
					for m := m0; m <= m1; m++ {
						d := m - n
						if d < 0 {
							d = -d
						}
						if d == 0 {
							continue
						}
						if leak := xtalk[d]; leak >= 1e-9 {
							expected += expectedW(j, m) * leak
						}
					}
					sl.health.CellsTested++
					got := sum[j] / float64(repeats)
					if math.Abs(got-expected) > tolerance {
						sl.suspects = append(sl.suspects, Suspect{
							Layer: li, TileRow: r, TileCol: c,
							PhysRow: pr, Row: j, Col: n,
							Measured: got, Expected: expected,
						})
					}
				}
			}
			sl.health.Suspects = len(sl.suspects)
			return nil
		})
		if err != nil {
			return nil, err
		}
		for t := range slots {
			report.Suspects = append(report.Suspects, slots[t].suspects...)
			report.Banks = append(report.Banks, slots[t].health)
			report.CellsTested += slots[t].health.CellsTested
		}
	}
	return report, nil
}
