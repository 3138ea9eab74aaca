package tensor

import "fmt"

// Conv2DSpec describes a 2-D convolution on CHW feature maps.
type Conv2DSpec struct {
	InC, InH, InW int // input channels and spatial size
	OutC          int // output channels
	KH, KW        int // kernel size
	StrideH       int
	StrideW       int
	PadH          int
	PadW          int
	Groups        int // 1 = dense, InC = depthwise
}

// Validate checks the spec for consistency and returns a descriptive error.
func (s Conv2DSpec) Validate() error {
	switch {
	case s.InC <= 0 || s.InH <= 0 || s.InW <= 0:
		return fmt.Errorf("tensor: conv input dims %dx%dx%d must be positive", s.InC, s.InH, s.InW)
	case s.OutC <= 0:
		return fmt.Errorf("tensor: conv output channels %d must be positive", s.OutC)
	case s.KH <= 0 || s.KW <= 0:
		return fmt.Errorf("tensor: conv kernel %dx%d must be positive", s.KH, s.KW)
	case s.StrideH <= 0 || s.StrideW <= 0:
		return fmt.Errorf("tensor: conv stride %dx%d must be positive", s.StrideH, s.StrideW)
	case s.PadH < 0 || s.PadW < 0:
		return fmt.Errorf("tensor: conv padding %dx%d must be non-negative", s.PadH, s.PadW)
	case s.Groups <= 0 || s.InC%s.Groups != 0 || s.OutC%s.Groups != 0:
		return fmt.Errorf("tensor: conv groups %d must divide channels %d/%d", s.Groups, s.InC, s.OutC)
	}
	if h, w := s.OutH(), s.OutW(); h <= 0 || w <= 0 {
		return fmt.Errorf("tensor: conv output %dx%d collapses to nothing", h, w)
	}
	return nil
}

// OutH returns the output height.
func (s Conv2DSpec) OutH() int { return (s.InH+2*s.PadH-s.KH)/s.StrideH + 1 }

// OutW returns the output width.
func (s Conv2DSpec) OutW() int { return (s.InW+2*s.PadW-s.KW)/s.StrideW + 1 }

// MACs returns the multiply-accumulate count of one forward pass — the
// quantity the dataflow cost model bills.
func (s Conv2DSpec) MACs() int64 {
	return int64(s.OutC) * int64(s.OutH()) * int64(s.OutW()) *
		int64(s.InC/s.Groups) * int64(s.KH) * int64(s.KW)
}

// WeightCount returns the number of kernel parameters (no bias).
func (s Conv2DSpec) WeightCount() int64 {
	return int64(s.OutC) * int64(s.InC/s.Groups) * int64(s.KH) * int64(s.KW)
}

// Im2Col lowers a CHW input into the (C/G·KH·KW) × (OutH·OutW) patch matrix
// for group g, so convolution becomes one MatMul per group. dst is
// allocated if nil.
func Im2Col(dst *Tensor, in *Tensor, s Conv2DSpec, g int) *Tensor {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if in.Rank() != 3 || in.Dim(0) != s.InC || in.Dim(1) != s.InH || in.Dim(2) != s.InW {
		panic(fmt.Sprintf("tensor: Im2Col input shape %v, want [%d %d %d]", in.Shape(), s.InC, s.InH, s.InW))
	}
	rows := s.InC / s.Groups * s.KH * s.KW
	cols := s.OutH() * s.OutW()
	if dst == nil {
		dst = New(rows, cols)
	} else if dst.Rank() != 2 || dst.Dim(0) != rows || dst.Dim(1) != cols {
		panic(fmt.Sprintf("tensor: Im2Col dst shape %v, want [%d %d]", dst.Shape(), rows, cols))
	}
	Im2ColInto(dst.Data(), in.Data(), s, g)
	return dst
}

// Im2ColInto is Im2Col over flat buffers: img is one CHW image and the
// (C/G·KH·KW) × (OutH·OutW) patch matrix of group g is written row-major
// into dst, every element overwritten. The spec must be valid; short
// buffers panic. The walk is ordered by (channel, kernel tap, output row),
// so no element index needs a division.
func Im2ColInto(dst, img []float64, s Conv2DSpec, g int) {
	cg := s.InC / s.Groups
	outH, outW := s.OutH(), s.OutW()
	cols := outH * outW
	if len(img) < s.InC*s.InH*s.InW || len(dst) < cg*s.KH*s.KW*cols {
		panic(fmt.Sprintf("tensor: Im2ColInto buffers img %d, dst %d too short for %+v", len(img), len(dst), s))
	}
	r := 0
	for c := g * cg; c < (g+1)*cg; c++ {
		plane := img[c*s.InH*s.InW : (c+1)*s.InH*s.InW]
		for kh := 0; kh < s.KH; kh++ {
			for kw := 0; kw < s.KW; kw++ {
				drow := dst[r*cols : (r+1)*cols]
				r++
				for oy := 0; oy < outH; oy++ {
					out := drow[oy*outW : (oy+1)*outW]
					iy := oy*s.StrideH - s.PadH + kh
					if iy < 0 || iy >= s.InH {
						for ox := range out {
							out[ox] = 0
						}
						continue
					}
					src := plane[iy*s.InW : (iy+1)*s.InW]
					ix := kw - s.PadW
					for ox := range out {
						if ix >= 0 && ix < s.InW {
							out[ox] = src[ix]
						} else {
							out[ox] = 0
						}
						ix += s.StrideW
					}
				}
			}
		}
	}
}

// Conv2D computes the grouped 2-D convolution out = kernel ⊛ in via im2col.
// kernel has shape [OutC, InC/G·KH·KW]; in is CHW; the result is
// [OutC, OutH, OutW].
func Conv2D(in, kernel *Tensor, s Conv2DSpec) *Tensor {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	cg := s.InC / s.Groups
	ocg := s.OutC / s.Groups
	kcols := cg * s.KH * s.KW
	if kernel.Rank() != 2 || kernel.Dim(0) != s.OutC || kernel.Dim(1) != kcols {
		panic(fmt.Sprintf("tensor: Conv2D kernel shape %v, want [%d %d]", kernel.Shape(), s.OutC, kcols))
	}
	outH, outW := s.OutH(), s.OutW()
	out := New(s.OutC, outH, outW)
	cols := outH * outW
	for g := 0; g < s.Groups; g++ {
		patches := Im2Col(nil, in, s, g)
		kslice := FromSlice(kernel.Data()[g*ocg*kcols:(g+1)*ocg*kcols], ocg, kcols)
		prod := MatMul(nil, kslice, patches)
		copy(out.Data()[g*ocg*cols:(g+1)*ocg*cols], prod.Data())
	}
	return out
}

// conv2DNaive is the reference direct convolution used by the test suite to
// validate the im2col path. Exported to tests via export_test.go.
func conv2DNaive(in, kernel *Tensor, s Conv2DSpec) *Tensor {
	cg := s.InC / s.Groups
	ocg := s.OutC / s.Groups
	outH, outW := s.OutH(), s.OutW()
	out := New(s.OutC, outH, outW)
	for oc := 0; oc < s.OutC; oc++ {
		g := oc / ocg
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				var acc float64
				for c := 0; c < cg; c++ {
					ic := g*cg + c
					for kh := 0; kh < s.KH; kh++ {
						iy := oy*s.StrideH - s.PadH + kh
						if iy < 0 || iy >= s.InH {
							continue
						}
						for kw := 0; kw < s.KW; kw++ {
							ix := ox*s.StrideW - s.PadW + kw
							if ix < 0 || ix >= s.InW {
								continue
							}
							kidx := (oc*cg+c)*s.KH*s.KW + kh*s.KW + kw
							acc += in.At(ic, iy, ix) * kernel.Data()[kidx]
						}
					}
				}
				out.Set(acc, oc, oy, ox)
			}
		}
	}
	return out
}

// PoolSpec describes a 2-D pooling window on CHW maps.
type PoolSpec struct {
	C, H, W int
	K       int // square window
	Stride  int
}

// Validate checks the pooling spec.
func (p PoolSpec) Validate() error {
	switch {
	case p.C <= 0 || p.H <= 0 || p.W <= 0:
		return fmt.Errorf("tensor: pool input %dx%dx%d must be positive", p.C, p.H, p.W)
	case p.K <= 0 || p.Stride <= 0:
		return fmt.Errorf("tensor: pool window %d stride %d must be positive", p.K, p.Stride)
	case p.K > p.H || p.K > p.W:
		return fmt.Errorf("tensor: pool window %d larger than input %dx%d", p.K, p.H, p.W)
	}
	return nil
}

// OutH returns the pooled height.
func (p PoolSpec) OutH() int { return (p.H-p.K)/p.Stride + 1 }

// OutW returns the pooled width.
func (p PoolSpec) OutW() int { return (p.W-p.K)/p.Stride + 1 }

// MaxPool2D computes max pooling and returns the output plus the flat argmax
// index of each window (for backprop routing).
func MaxPool2D(in *Tensor, p PoolSpec) (*Tensor, []int) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	outH, outW := p.OutH(), p.OutW()
	out := New(p.C, outH, outW)
	arg := make([]int, p.C*outH*outW)
	id := in.Data()
	parallelFor(p.C, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					best, bi := -1e308, -1
					for ky := 0; ky < p.K; ky++ {
						iy := oy*p.Stride + ky
						rowBase := c*p.H*p.W + iy*p.W
						for kx := 0; kx < p.K; kx++ {
							ix := ox*p.Stride + kx
							if v := id[rowBase+ix]; v > best {
								best, bi = v, rowBase+ix
							}
						}
					}
					oidx := c*outH*outW + oy*outW + ox
					out.Data()[oidx] = best
					arg[oidx] = bi
				}
			}
		}
	})
	return out, arg
}

// AvgPool2D computes average pooling.
func AvgPool2D(in *Tensor, p PoolSpec) *Tensor {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	outH, outW := p.OutH(), p.OutW()
	out := New(p.C, outH, outW)
	id := in.Data()
	norm := 1 / float64(p.K*p.K)
	parallelFor(p.C, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					var acc float64
					for ky := 0; ky < p.K; ky++ {
						iy := oy*p.Stride + ky
						rowBase := c*p.H*p.W + iy*p.W
						for kx := 0; kx < p.K; kx++ {
							acc += id[rowBase+ox*p.Stride+kx]
						}
					}
					out.Data()[c*outH*outW+oy*outW+ox] = acc * norm
				}
			}
		}
	})
	return out
}
