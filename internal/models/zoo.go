package models

// This file assembles the five evaluation workloads. Channel counts and
// shapes follow the canonical torchvision definitions; parameter totals are
// asserted against the published figures in zoo_test.go.

// AlexNet returns the torchvision AlexNet: 5 conv + 3 FC, ≈61.1 M
// parameters, ≈0.71 GMAC.
func AlexNet() *Model {
	b := newBuilder("AlexNet", 3, 224, 224)
	b.conv("conv1", 64, 11, 4, 2).relu("relu1").maxpool("pool1", 3, 2, false)
	b.conv("conv2", 192, 5, 1, 2).relu("relu2").maxpool("pool2", 3, 2, false)
	b.conv("conv3", 384, 3, 1, 1).relu("relu3")
	b.conv("conv4", 256, 3, 1, 1).relu("relu4")
	b.conv("conv5", 256, 3, 1, 1).relu("relu5").maxpool("pool5", 3, 2, false)
	b.dense("fc6", 4096).relu("relu6")
	b.dense("fc7", 4096).relu("relu7")
	b.dense("fc8", 1000)
	return b.m
}

// VGG16 returns VGG-16: 13 conv + 3 FC, ≈138.4 M parameters, ≈15.5 GMAC —
// the paper's largest workload ("138 million for VGG-16").
func VGG16() *Model {
	b := newBuilder("VGG-16", 3, 224, 224)
	block := func(n int, c int, idx int) {
		for i := 0; i < n; i++ {
			name := fmtName("conv", idx, i+1)
			b.conv(name, c, 3, 1, 1).relu("relu_" + name)
		}
		b.maxpool(fmtName("pool", idx, 0), 2, 2, false)
	}
	block(2, 64, 1)
	block(2, 128, 2)
	block(3, 256, 3)
	block(3, 512, 4)
	block(3, 512, 5)
	b.dense("fc6", 4096).relu("relu6")
	b.dense("fc7", 4096).relu("relu7")
	b.dense("fc8", 1000)
	return b.m
}

func fmtName(prefix string, block, idx int) string {
	if idx == 0 {
		return prefix + string(rune('0'+block))
	}
	return prefix + string(rune('0'+block)) + "_" + string(rune('0'+idx))
}

// inception appends one Inception-v1 module: four parallel branches
// (1×1; 1×1→3×3; 1×1→5×5; 3×3 maxpool→1×1) concatenated channel-wise.
func inception(b *builder, name string, c1, r3, c3, r5, c5, pp int) {
	inC, h, w := b.c, b.h, b.w
	// Branch 1: 1×1.
	b.c, b.h, b.w = inC, h, w
	b.conv(name+"/1x1", c1, 1, 1, 0).relu(name + "/relu_1x1")
	// Branch 2: 1×1 reduce then 3×3.
	b.c, b.h, b.w = inC, h, w
	b.conv(name+"/3x3_reduce", r3, 1, 1, 0).relu(name + "/relu_3x3r")
	b.conv(name+"/3x3", c3, 3, 1, 1).relu(name + "/relu_3x3")
	// Branch 3: 1×1 reduce then 5×5.
	b.c, b.h, b.w = inC, h, w
	b.conv(name+"/5x5_reduce", r5, 1, 1, 0).relu(name + "/relu_5x5r")
	b.conv(name+"/5x5", c5, 5, 1, 2).relu(name + "/relu_5x5")
	// Branch 4: 3×3 maxpool (stride 1, pad 1 keeps shape) then 1×1 proj.
	b.c, b.h, b.w = inC, h, w
	b.m.Layers = append(b.m.Layers, LayerSpec{
		Name: name + "/pool", Kind: KindMaxPool,
		Activations: int64(inC) * int64(h) * int64(w),
	})
	b.conv(name+"/pool_proj", pp, 1, 1, 0).relu(name + "/relu_pp")
	// Concatenate.
	b.h, b.w = h, w
	b.concat(name+"/concat", c1+c3+c5+pp)
}

// GoogleNet returns Inception v1 (no auxiliary heads): ≈7.0 M parameters,
// ≈1.6 GMAC. The paper's prose quotes "4 million" parameters, the figure
// the original GoogLeNet paper gives for its conv trunk; the full model
// with its classifier is ≈7 M, which is what we count.
func GoogleNet() *Model {
	b := newBuilder("GoogleNet", 3, 224, 224)
	b.conv("conv1", 64, 7, 2, 3).relu("relu1").maxpool("pool1", 3, 2, true)
	b.conv("conv2_reduce", 64, 1, 1, 0).relu("relu2r")
	b.conv("conv2", 192, 3, 1, 1).relu("relu2").maxpool("pool2", 3, 2, true)
	inception(b, "3a", 64, 96, 128, 16, 32, 32)
	inception(b, "3b", 128, 128, 192, 32, 96, 64)
	b.maxpool("pool3", 3, 2, true)
	inception(b, "4a", 192, 96, 208, 16, 48, 64)
	inception(b, "4b", 160, 112, 224, 24, 64, 64)
	inception(b, "4c", 128, 128, 256, 24, 64, 64)
	inception(b, "4d", 112, 144, 288, 32, 64, 64)
	inception(b, "4e", 256, 160, 320, 32, 128, 128)
	b.maxpool("pool4", 3, 2, true)
	inception(b, "5a", 256, 160, 320, 32, 128, 128)
	inception(b, "5b", 384, 192, 384, 48, 128, 128)
	b.globalAvgPool("gap")
	b.dense("fc", 1000)
	return b.m
}

// bottleneck appends one ResNet-50 bottleneck block (1×1 reduce, 3×3, 1×1
// expand, plus a projection shortcut when the shape changes). BatchNorm
// parameters (2 per channel) are folded into each conv's weight count so
// the total matches the published 25.6 M.
func bottleneck(b *builder, name string, mid, out, stride int) {
	inC, h, w := b.c, b.h, b.w
	addBN := func(c int) {
		last := &b.m.Layers[len(b.m.Layers)-1]
		last.Weights += 2 * int64(c) // γ and β
	}
	// Bottleneck convs carry no bias (BN provides the shift); remove the
	// builder's default bias and add BN instead.
	noBias := func(c int) {
		last := &b.m.Layers[len(b.m.Layers)-1]
		last.Weights -= int64(c)
		addBN(c)
	}
	b.conv(name+"/conv1", mid, 1, 1, 0)
	noBias(mid)
	b.relu(name + "/relu1")
	b.conv(name+"/conv2", mid, 3, stride, 1)
	noBias(mid)
	b.relu(name + "/relu2")
	b.conv(name+"/conv3", out, 1, 1, 0)
	noBias(out)
	if inC != out || stride != 1 {
		// Projection shortcut: computed on the block input shape.
		oh, ow := b.h, b.w
		b.c, b.h, b.w = inC, h, w
		b.conv(name+"/downsample", out, 1, stride, 0)
		noBias(out)
		b.h, b.w = oh, ow
	}
	b.relu(name + "/relu3")
}

// ResNet50 returns ResNet-50: ≈25.6 M parameters, ≈4.1 GMAC.
func ResNet50() *Model {
	b := newBuilder("ResNet-50", 3, 224, 224)
	b.conv("conv1", 64, 7, 2, 3)
	last := &b.m.Layers[0]
	last.Weights += 2*64 - 64 // BN instead of bias
	b.relu("relu1").maxpool("pool1", 3, 2, false)
	stages := []struct {
		blocks, mid, out, stride int
	}{
		{3, 64, 256, 1},
		{4, 128, 512, 2},
		{6, 256, 1024, 2},
		{3, 512, 2048, 2},
	}
	for si, st := range stages {
		for bi := 0; bi < st.blocks; bi++ {
			stride := 1
			if bi == 0 {
				stride = st.stride
			}
			name := fmtName("res", si+2, bi+1)
			bottleneck(b, name, st.mid, st.out, stride)
		}
	}
	b.globalAvgPool("gap")
	b.dense("fc", 1000)
	return b.m
}

// invertedResidual appends one MobileNetV2 block: 1×1 expand (ratio t),
// 3×3 depthwise, 1×1 project. BN parameters are folded in like ResNet.
func invertedResidual(b *builder, name string, t, out, stride int) {
	inC := b.c
	noBias := func(c int) {
		last := &b.m.Layers[len(b.m.Layers)-1]
		last.Weights += 2*int64(c) - int64(c)
	}
	mid := inC * t
	if t != 1 {
		b.conv(name+"/expand", mid, 1, 1, 0)
		noBias(mid)
		b.relu(name + "/relu_e")
	}
	b.dwconv(name+"/dw", 3, stride, 1)
	noBias(mid)
	b.relu(name + "/relu_dw")
	b.conv(name+"/project", out, 1, 1, 0)
	noBias(out)
}

// MobileNetV2 returns MobileNetV2 (width 1.0): ≈3.5 M parameters,
// ≈0.31 GMAC — the paper's smallest workload.
func MobileNetV2() *Model {
	b := newBuilder("MobileNetV2", 3, 224, 224)
	b.conv("conv1", 32, 3, 2, 1)
	first := &b.m.Layers[0]
	first.Weights += 2*32 - 32
	b.relu("relu1")
	cfg := []struct {
		t, c, n, s int
	}{
		{1, 16, 1, 1},
		{6, 24, 2, 2},
		{6, 32, 3, 2},
		{6, 64, 4, 2},
		{6, 96, 3, 1},
		{6, 160, 3, 2},
		{6, 320, 1, 1},
	}
	blk := 0
	for _, c := range cfg {
		for i := 0; i < c.n; i++ {
			stride := 1
			if i == 0 {
				stride = c.s
			}
			blk++
			invertedResidual(b, fmtName("ir", blk/10, blk%10), c.t, c.c, stride)
		}
	}
	b.conv("conv_last", 1280, 1, 1, 0)
	lastc := &b.m.Layers[len(b.m.Layers)-1]
	lastc.Weights += 2*1280 - 1280
	b.relu("relu_last")
	b.globalAvgPool("gap")
	b.dense("fc", 1000)
	return b.m
}

// All returns the five evaluation workloads in the order the paper's
// figures plot them.
func All() []*Model {
	return []*Model{GoogleNet(), MobileNetV2(), VGG16(), AlexNet(), ResNet50()}
}

// ByName returns the named model or nil.
func ByName(name string) *Model {
	for _, m := range All() {
		if m.Name == name {
			return m
		}
	}
	return nil
}
