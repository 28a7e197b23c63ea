// Package workload defines the tensor operators and DNN layer tables used as
// co-optimization inputs.
//
// UNICO consumes a workload only through the dimension tuple of each tensor
// operator (the 7D convolution loop nest of paper Fig. 1, with GEMM expressed
// as a degenerate convolution). This package provides the operator type and a
// model zoo covering every network in the paper's evaluation: the Table 1/2
// networks (BERT, MobileNet, ResNet, SRGAN, UNet, ViT, Xception), the
// generalization-study networks (VGG, MobileNetV2, ResUNet, MobileNetV3
// large/small, NASNetMobile, EfficientNetV2, ConvNeXt) and the Ascend-like
// case-study networks (FSRCNN at several resolutions, DLEU).
//
// The layer tables are representative transcriptions of the published
// architectures: each entry is one distinct operator shape with a Repeat
// count for how many times that shape occurs in the network. The co-search
// algorithms only ever see these dimension tuples, so representative tables
// exercise exactly the code paths the paper's full networks would.
package workload

import (
	"fmt"
	"strings"
)

// OpKind distinguishes the operator families the cost models understand.
type OpKind int

const (
	// Conv2D is a dense 2D convolution over the 7D loop nest
	// (N, K, C, Y, X, R, S).
	Conv2D OpKind = iota
	// DWConv2D is a depthwise 2D convolution: each of the K output channels
	// reads a single input channel, so the C loop has trip count 1.
	DWConv2D
	// GEMM is a general matrix multiply M×K_in × K_in×N_out, stored in
	// convolution form (Y=M, C=K_in, K=N_out, X=R=S=1).
	GEMM
)

func (k OpKind) String() string {
	switch k {
	case Conv2D:
		return "conv"
	case DWConv2D:
		return "dwconv"
	case GEMM:
		return "gemm"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Layer is one tensor operator in convolution-normal form.
//
// For Conv2D and DWConv2D the fields are the usual loop bounds: N batch,
// K output channels, C input channels, Y×X output feature map, R×S kernel,
// with the given stride. For GEMM(M, Kin, Nout) the stored form is
// K=Nout, C=Kin, Y=M, X=R=S=1.
type Layer struct {
	Name   string
	Kind   OpKind
	N      int // batch
	K      int // output channels
	C      int // input channels (1 for depthwise)
	Y      int // output rows
	X      int // output cols
	R      int // kernel rows
	S      int // kernel cols
	Stride int
	Repeat int // number of occurrences of this exact shape in the network
}

// Gemm builds a GEMM(M, kIn, nOut) layer in convolution-normal form.
func Gemm(name string, m, kIn, nOut, repeat int) Layer {
	return Layer{
		Name: name, Kind: GEMM,
		N: 1, K: nOut, C: kIn, Y: m, X: 1, R: 1, S: 1,
		Stride: 1, Repeat: repeat,
	}
}

// Conv builds a dense convolution layer.
func Conv(name string, k, c, y, x, r, s, stride, repeat int) Layer {
	return Layer{
		Name: name, Kind: Conv2D,
		N: 1, K: k, C: c, Y: y, X: x, R: r, S: s,
		Stride: stride, Repeat: repeat,
	}
}

// DWConv builds a depthwise convolution layer (C fixed to 1 per channel).
func DWConv(name string, k, y, x, r, s, stride, repeat int) Layer {
	return Layer{
		Name: name, Kind: DWConv2D,
		N: 1, K: k, C: 1, Y: y, X: x, R: r, S: s,
		Stride: stride, Repeat: repeat,
	}
}

// MACs returns the multiply-accumulate count of a single instance of the
// layer (not multiplied by Repeat).
func (l Layer) MACs() int64 {
	return int64(l.N) * int64(l.K) * int64(l.C) * int64(l.Y) * int64(l.X) * int64(l.R) * int64(l.S)
}

// InputBytes returns the input activation footprint in bytes, assuming one
// byte per element (int8 inference, as in the paper's edge scenario).
func (l Layer) InputBytes() int64 {
	iy := (l.Y-1)*l.Stride + l.R
	ix := (l.X-1)*l.Stride + l.S
	c := l.C
	if l.Kind == DWConv2D {
		c = l.K
	}
	return int64(l.N) * int64(c) * int64(iy) * int64(ix)
}

// WeightBytes returns the weight footprint in bytes (one byte per element).
func (l Layer) WeightBytes() int64 {
	return int64(l.K) * int64(l.C) * int64(l.R) * int64(l.S)
}

// OutputBytes returns the output activation footprint in bytes.
func (l Layer) OutputBytes() int64 {
	return int64(l.N) * int64(l.K) * int64(l.Y) * int64(l.X)
}

// Validate reports an error if any loop bound is non-positive or the shape is
// internally inconsistent. maestro.Engine.Evaluate and camodel.Engine.Evaluate
// call it once per evaluation, and a mapping search's Network once per layer,
// so a well-formed layer costs ten comparisons and the message is built only
// for a bad one.
func (l Layer) Validate() error {
	if l.N <= 0 || l.K <= 0 || l.C <= 0 || l.Y <= 0 || l.X <= 0 ||
		l.R <= 0 || l.S <= 0 || l.Stride <= 0 || l.Repeat <= 0 ||
		(l.Kind == DWConv2D && l.C != 1) {
		return l.invalid()
	}
	return nil
}

// invalid names the first offending field of a layer Validate rejected.
func (l Layer) invalid() error {
	for _, d := range []struct {
		name string
		v    int
	}{
		{"N", l.N}, {"K", l.K}, {"C", l.C}, {"Y", l.Y}, {"X", l.X},
		{"R", l.R}, {"S", l.S}, {"stride", l.Stride}, {"repeat", l.Repeat},
	} {
		if d.v <= 0 {
			return fmt.Errorf("workload: layer %q: %s = %d, want > 0", l.Name, d.name, d.v)
		}
	}
	return fmt.Errorf("workload: depthwise layer %q has C = %d, want 1", l.Name, l.C)
}

func (l Layer) String() string {
	if l.Kind == GEMM {
		return fmt.Sprintf("%s %s M=%d K=%d N=%d x%d", l.Name, l.Kind, l.Y, l.C, l.K, l.Repeat)
	}
	return fmt.Sprintf("%s %s K=%d C=%d Y=%d X=%d R=%d S=%d s=%d x%d",
		l.Name, l.Kind, l.K, l.C, l.Y, l.X, l.R, l.S, l.Stride, l.Repeat)
}

// Workload is a named DNN expressed as its distinct operator shapes.
type Workload struct {
	Name   string
	Layers []Layer
}

// Combine concatenates a workload set into one layer table; the
// co-optimization objective is then the aggregate PPA across all input
// networks, as in the paper's multi-workload runs (Sections 4.3 and 4.4).
// Layer names gain a "network/" prefix so they stay unique; a single
// workload is returned as is.
func Combine(ws []Workload) Workload {
	if len(ws) == 1 {
		return ws[0]
	}
	names := make([]string, len(ws))
	var layers []Layer
	for i, w := range ws {
		names[i] = w.Name
		for _, l := range w.Layers {
			l.Name = w.Name + "/" + l.Name
			layers = append(layers, l)
		}
	}
	return Workload{Name: strings.Join(names, "+"), Layers: layers}
}

// Validate checks every layer.
func (w Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("workload: empty name")
	}
	if len(w.Layers) == 0 {
		return fmt.Errorf("workload %q: no layers", w.Name)
	}
	for _, l := range w.Layers {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("workload %q: %w", w.Name, err)
		}
	}
	return nil
}
