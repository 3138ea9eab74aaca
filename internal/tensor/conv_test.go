package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConv2DSpecValidate(t *testing.T) {
	good := Conv2DSpec{InC: 3, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []Conv2DSpec{
		{InC: 0, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, Groups: 1},
		{InC: 3, InH: 8, InW: 8, OutC: 0, KH: 3, KW: 3, StrideH: 1, StrideW: 1, Groups: 1},
		{InC: 3, InH: 8, InW: 8, OutC: 4, KH: 0, KW: 3, StrideH: 1, StrideW: 1, Groups: 1},
		{InC: 3, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, StrideH: 0, StrideW: 1, Groups: 1},
		{InC: 3, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: -1, Groups: 1},
		{InC: 3, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, Groups: 2},
		{InC: 3, InH: 2, InW: 2, OutC: 4, KH: 5, KW: 5, StrideH: 1, StrideW: 1, Groups: 1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestConvOutputGeometry(t *testing.T) {
	// The canonical VGG first layer: 224×224, 3×3, pad 1, stride 1.
	s := Conv2DSpec{InC: 3, InH: 224, InW: 224, OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}
	if s.OutH() != 224 || s.OutW() != 224 {
		t.Errorf("same-padding output %dx%d, want 224x224", s.OutH(), s.OutW())
	}
	// AlexNet first layer: 227→55 with 11×11 stride 4 (or 224 with pad 2).
	s2 := Conv2DSpec{InC: 3, InH: 227, InW: 227, OutC: 96, KH: 11, KW: 11, StrideH: 4, StrideW: 4, Groups: 1}
	if s2.OutH() != 55 {
		t.Errorf("AlexNet conv1 out = %d, want 55", s2.OutH())
	}
}

func TestConvMACsAndWeights(t *testing.T) {
	// VGG conv1_1: 64×224×224×3×3×3 = 86,704,128 MACs, 1,728 weights.
	s := Conv2DSpec{InC: 3, InH: 224, InW: 224, OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}
	if got := s.MACs(); got != 86704128 {
		t.Errorf("MACs = %d, want 86704128", got)
	}
	if got := s.WeightCount(); got != 1728 {
		t.Errorf("weights = %d, want 1728", got)
	}
	// Depthwise 3×3 on 32 channels: each output channel sees 1 input channel.
	dw := Conv2DSpec{InC: 32, InH: 112, InW: 112, OutC: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 32}
	if got := dw.WeightCount(); got != 32*9 {
		t.Errorf("depthwise weights = %d, want 288", got)
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	// 1×1 convolution with identity weights copies the input.
	s := Conv2DSpec{InC: 2, InH: 4, InW: 4, OutC: 2, KH: 1, KW: 1, StrideH: 1, StrideW: 1, Groups: 1}
	in := New(2, 4, 4)
	rng := rand.New(rand.NewSource(2))
	for i := range in.Data() {
		in.Data()[i] = rng.NormFloat64()
	}
	k := FromSlice([]float64{1, 0, 0, 1}, 2, 2)
	out := Conv2D(in, k, s)
	for i := range in.Data() {
		if out.Data()[i] != in.Data()[i] {
			t.Fatalf("identity conv differs at %d", i)
		}
	}
}

// Property: im2col convolution agrees with the direct reference for random
// shapes, strides, padding and groups.
func TestQuickConvMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		groups := []int{1, 1, 2}[rng.Intn(3)]
		cg := 1 + rng.Intn(3)
		s := Conv2DSpec{
			InC:     groups * cg,
			InH:     4 + rng.Intn(8),
			InW:     4 + rng.Intn(8),
			OutC:    groups * (1 + rng.Intn(3)),
			KH:      1 + rng.Intn(3),
			KW:      1 + rng.Intn(3),
			StrideH: 1 + rng.Intn(2),
			StrideW: 1 + rng.Intn(2),
			PadH:    rng.Intn(2),
			PadW:    rng.Intn(2),
			Groups:  groups,
		}
		if s.Validate() != nil {
			return true // skip degenerate draws
		}
		in := New(s.InC, s.InH, s.InW)
		for i := range in.Data() {
			in.Data()[i] = rng.NormFloat64()
		}
		k := New(s.OutC, s.InC/s.Groups*s.KH*s.KW)
		for i := range k.Data() {
			k.Data()[i] = rng.NormFloat64()
		}
		fast := Conv2D(in, k, s)
		slow := Conv2DNaive(in, k, s)
		for i := range fast.Data() {
			if math.Abs(fast.Data()[i]-slow.Data()[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIm2ColZeroPadding(t *testing.T) {
	s := Conv2DSpec{InC: 1, InH: 2, InW: 2, OutC: 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 1}
	in := FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	cols := Im2Col(nil, in, s, 0)
	if cols.Dim(0) != 9 || cols.Dim(1) != 4 {
		t.Fatalf("im2col shape %v, want [9 4]", cols.Shape())
	}
	// Kernel center (row 4) over output (0,0) is input (0,0) = 1.
	if cols.At(4, 0) != 1 {
		t.Errorf("center tap = %v, want 1", cols.At(4, 0))
	}
	// Top-left tap (row 0) over output (0,0) reads padding = 0.
	if cols.At(0, 0) != 0 {
		t.Errorf("padding tap = %v, want 0", cols.At(0, 0))
	}
}

// TestIm2ColIntoMatchesIndexFormula: the division-free walk writes every
// element of the patch matrix exactly as the direct index formula
// (row r = (c, kh, kw), column = (oy, ox)) defines it, for every group,
// overwriting whatever the destination held.
func TestIm2ColIntoMatchesIndexFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		groups := 1 + rng.Intn(3)
		s := Conv2DSpec{InC: groups * (1 + rng.Intn(3)), InH: 1 + rng.Intn(9), InW: 1 + rng.Intn(9),
			OutC: groups, KH: 1 + rng.Intn(4), KW: 1 + rng.Intn(4),
			StrideH: 1 + rng.Intn(3), StrideW: 1 + rng.Intn(3), PadH: rng.Intn(3), PadW: rng.Intn(3),
			Groups: groups}
		if s.Validate() != nil {
			continue
		}
		img := make([]float64, s.InC*s.InH*s.InW)
		for i := range img {
			img[i] = rng.NormFloat64()
		}
		cg := s.InC / s.Groups
		rows, cols, outW := cg*s.KH*s.KW, s.OutH()*s.OutW(), s.OutW()
		for g := 0; g < s.Groups; g++ {
			dst := make([]float64, rows*cols)
			for i := range dst {
				dst[i] = math.NaN()
			}
			Im2ColInto(dst, img, s, g)
			for r := 0; r < rows; r++ {
				c, kh, kw := g*cg+r/(s.KH*s.KW), (r/s.KW)%s.KH, r%s.KW
				for oc := 0; oc < cols; oc++ {
					iy := oc/outW*s.StrideH - s.PadH + kh
					ix := oc%outW*s.StrideW - s.PadW + kw
					want := 0.0
					if iy >= 0 && iy < s.InH && ix >= 0 && ix < s.InW {
						want = img[(c*s.InH+iy)*s.InW+ix]
					}
					if got := dst[r*cols+oc]; got != want {
						t.Fatalf("%+v group %d: patch[%d,%d] = %v, want %v", s, g, r, oc, got, want)
					}
				}
			}
		}
	}
}

func TestPoolSpecValidate(t *testing.T) {
	if err := (PoolSpec{C: 1, H: 4, W: 4, K: 2, Stride: 2}).Validate(); err != nil {
		t.Fatalf("valid pool rejected: %v", err)
	}
	bad := []PoolSpec{
		{C: 0, H: 4, W: 4, K: 2, Stride: 2},
		{C: 1, H: 4, W: 4, K: 0, Stride: 2},
		{C: 1, H: 4, W: 4, K: 2, Stride: 0},
		{C: 1, H: 2, W: 2, K: 3, Stride: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad pool %d accepted", i)
		}
	}
}

func TestMaxPool2D(t *testing.T) {
	in := FromSlice([]float64{
		1, 2, 5, 3,
		4, 8, 0, 1,
		0, 1, 9, 2,
		3, 2, 1, 7,
	}, 1, 4, 4)
	out, arg := MaxPool2D(in, PoolSpec{C: 1, H: 4, W: 4, K: 2, Stride: 2})
	want := []float64{8, 5, 3, 9}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Errorf("pool[%d] = %v, want %v", i, out.Data()[i], w)
		}
	}
	// Argmax indices route gradients back to the winners.
	if arg[0] != 5 { // the "8" sits at flat index 5
		t.Errorf("arg[0] = %d, want 5", arg[0])
	}
	if in.Data()[arg[3]] != 9 {
		t.Errorf("arg[3] points at %v, want 9", in.Data()[arg[3]])
	}
}

func TestAvgPool2D(t *testing.T) {
	in := FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	out := AvgPool2D(in, PoolSpec{C: 1, H: 4, W: 4, K: 2, Stride: 2})
	want := []float64{3.5, 5.5, 11.5, 13.5}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Errorf("avg[%d] = %v, want %v", i, out.Data()[i], w)
		}
	}
	// Global average pooling: the ResNet/GoogleNet head.
	g := AvgPool2D(in, PoolSpec{C: 1, H: 4, W: 4, K: 4, Stride: 4})
	if g.Len() != 1 || g.Data()[0] != 8.5 {
		t.Errorf("global avg = %v, want 8.5", g.Data())
	}
}

// Property: max pooling dominates average pooling element-wise.
func TestQuickMaxDominatesAvg(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := PoolSpec{C: 1 + rng.Intn(3), H: 4 + rng.Intn(6), W: 4 + rng.Intn(6), K: 2, Stride: 2}
		in := New(p.C, p.H, p.W)
		for i := range in.Data() {
			in.Data()[i] = rng.NormFloat64()
		}
		mx, _ := MaxPool2D(in, p)
		av := AvgPool2D(in, p)
		for i := range mx.Data() {
			if mx.Data()[i] < av.Data()[i]-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// FuzzIm2ColShapes drives Im2Col with arbitrary geometries: any spec that
// validates must produce a patch matrix of the documented shape with only
// finite values.
func FuzzIm2ColShapes(f *testing.F) {
	f.Add(3, 8, 8, 3, 1, 1, 1)
	f.Add(1, 4, 6, 2, 2, 0, 1)
	f.Fuzz(func(t *testing.T, inC, inH, inW, k, stride, pad, groups int) {
		s := Conv2DSpec{InC: inC, InH: inH, InW: inW, OutC: groups, KH: k, KW: k,
			StrideH: stride, StrideW: stride, PadH: pad, PadW: pad, Groups: groups}
		if s.Validate() != nil {
			return
		}
		if int64(inC)*int64(inH)*int64(inW) > 1<<16 || s.MACs() > 1<<22 {
			return // keep fuzz iterations fast
		}
		in := New(s.InC, s.InH, s.InW)
		for i := range in.Data() {
			in.Data()[i] = float64(i%13) * 0.1
		}
		cols := Im2Col(nil, in, s, 0)
		wantRows := s.InC / s.Groups * s.KH * s.KW
		wantCols := s.OutH() * s.OutW()
		if cols.Dim(0) != wantRows || cols.Dim(1) != wantCols {
			t.Fatalf("im2col shape %v, want [%d %d]", cols.Shape(), wantRows, wantCols)
		}
	})
}
