package workload

import (
	"fmt"
	"sort"
)

// The model zoo. Each constructor returns the representative operator table
// of one network from the paper's evaluation. Tables list every *distinct*
// shape once with a Repeat count; shapes were transcribed from the published
// architectures at their standard input resolutions (224×224 for ImageNet
// CNNs, sequence length 128 for BERT, 196/197 tokens for ViT-B/16).

// BERT returns BERT-base at sequence length 128: twelve transformer encoder
// layers of four projection GEMMs plus the two feed-forward GEMMs, and the
// attention score/context GEMMs per head folded into batched shapes.
func BERT() Workload {
	return Workload{Name: "Bert", Layers: []Layer{
		Gemm("qkv_proj", 128, 768, 768, 36),   // Q,K,V per 12 layers
		Gemm("attn_out", 128, 768, 768, 12),   // output projection
		Gemm("attn_score", 128, 64, 128, 144), // per head, 12 heads x 12 layers
		Gemm("attn_ctx", 128, 128, 64, 144),   // softmax(QK)V per head
		Gemm("ffn_up", 128, 768, 3072, 12),    // intermediate
		Gemm("ffn_down", 128, 3072, 768, 12),  // output
		Gemm("pooler", 1, 768, 768, 1),        // [CLS] pooler
	}}
}

// MobileNet returns MobileNetV1 at 224×224: the initial strided convolution
// followed by the thirteen depthwise-separable blocks.
func MobileNet() Workload {
	return Workload{Name: "MobileNet", Layers: []Layer{
		Conv("conv1", 32, 3, 112, 112, 3, 3, 2, 1),
		DWConv("dw2", 32, 112, 112, 3, 3, 1, 1),
		Conv("pw2", 64, 32, 112, 112, 1, 1, 1, 1),
		DWConv("dw3", 64, 56, 56, 3, 3, 2, 1),
		Conv("pw3", 128, 64, 56, 56, 1, 1, 1, 1),
		DWConv("dw4", 128, 56, 56, 3, 3, 1, 1),
		Conv("pw4", 128, 128, 56, 56, 1, 1, 1, 1),
		DWConv("dw5", 128, 28, 28, 3, 3, 2, 1),
		Conv("pw5", 256, 128, 28, 28, 1, 1, 1, 1),
		DWConv("dw6", 256, 28, 28, 3, 3, 1, 1),
		Conv("pw6", 256, 256, 28, 28, 1, 1, 1, 1),
		DWConv("dw7", 256, 14, 14, 3, 3, 2, 1),
		Conv("pw7", 512, 256, 14, 14, 1, 1, 1, 1),
		DWConv("dw8", 512, 14, 14, 3, 3, 1, 5),
		Conv("pw8", 512, 512, 14, 14, 1, 1, 1, 5),
		DWConv("dw13", 512, 7, 7, 3, 3, 2, 1),
		Conv("pw13", 1024, 512, 7, 7, 1, 1, 1, 1),
		DWConv("dw14", 1024, 7, 7, 3, 3, 1, 1),
		Conv("pw14", 1024, 1024, 7, 7, 1, 1, 1, 1),
		Gemm("fc", 1, 1024, 1000, 1),
	}}
}

// MobileNetV2 returns MobileNetV2 at 224×224 (inverted residual blocks,
// expansion factor 6), used as a training network in Fig. 9.
func MobileNetV2() Workload {
	return Workload{Name: "MobileNetV2", Layers: []Layer{
		Conv("conv1", 32, 3, 112, 112, 3, 3, 2, 1),
		DWConv("b1_dw", 32, 112, 112, 3, 3, 1, 1),
		Conv("b1_pw", 16, 32, 112, 112, 1, 1, 1, 1),
		Conv("b2_exp", 96, 16, 112, 112, 1, 1, 1, 1),
		DWConv("b2_dw", 96, 56, 56, 3, 3, 2, 1),
		Conv("b2_pw", 24, 96, 56, 56, 1, 1, 1, 1),
		Conv("b3_exp", 144, 24, 56, 56, 1, 1, 1, 2),
		DWConv("b3_dw", 144, 56, 56, 3, 3, 1, 1),
		Conv("b3_pw", 24, 144, 56, 56, 1, 1, 1, 1),
		DWConv("b4_dw", 144, 28, 28, 3, 3, 2, 1),
		Conv("b4_pw", 32, 144, 28, 28, 1, 1, 1, 1),
		Conv("b5_exp", 192, 32, 28, 28, 1, 1, 1, 3),
		DWConv("b5_dw", 192, 28, 28, 3, 3, 1, 2),
		Conv("b5_pw", 32, 192, 28, 28, 1, 1, 1, 2),
		DWConv("b6_dw", 192, 14, 14, 3, 3, 2, 1),
		Conv("b6_pw", 64, 192, 14, 14, 1, 1, 1, 1),
		Conv("b7_exp", 384, 64, 14, 14, 1, 1, 1, 4),
		DWConv("b7_dw", 384, 14, 14, 3, 3, 1, 3),
		Conv("b7_pw", 64, 384, 14, 14, 1, 1, 1, 3),
		Conv("b8_pw", 96, 384, 14, 14, 1, 1, 1, 1),
		Conv("b9_exp", 576, 96, 14, 14, 1, 1, 1, 3),
		DWConv("b9_dw", 576, 14, 14, 3, 3, 1, 2),
		Conv("b9_pw", 96, 576, 14, 14, 1, 1, 1, 2),
		DWConv("b10_dw", 576, 7, 7, 3, 3, 2, 1),
		Conv("b10_pw", 160, 576, 7, 7, 1, 1, 1, 1),
		Conv("b11_exp", 960, 160, 7, 7, 1, 1, 1, 3),
		DWConv("b11_dw", 960, 7, 7, 3, 3, 1, 3),
		Conv("b11_pw", 160, 960, 7, 7, 1, 1, 1, 2),
		Conv("b12_pw", 320, 960, 7, 7, 1, 1, 1, 1),
		Conv("head", 1280, 320, 7, 7, 1, 1, 1, 1),
		Gemm("fc", 1, 1280, 1000, 1),
	}}
}

// ResNet returns ResNet-50 at 224×224: stem plus the four bottleneck stages.
func ResNet() Workload {
	return Workload{Name: "ResNet", Layers: []Layer{
		Conv("conv1", 64, 3, 112, 112, 7, 7, 2, 1),
		// Stage 1: 3 bottlenecks at 56x56, width 64->256.
		Conv("s1_a", 64, 256, 56, 56, 1, 1, 1, 2),
		Conv("s1_a0", 64, 64, 56, 56, 1, 1, 1, 1),
		Conv("s1_b", 64, 64, 56, 56, 3, 3, 1, 3),
		Conv("s1_c", 256, 64, 56, 56, 1, 1, 1, 3),
		Conv("s1_proj", 256, 64, 56, 56, 1, 1, 1, 1),
		// Stage 2: 4 bottlenecks at 28x28, width 128->512.
		Conv("s2_a", 128, 512, 28, 28, 1, 1, 1, 3),
		Conv("s2_a0", 128, 256, 28, 28, 1, 1, 1, 1),
		Conv("s2_b", 128, 128, 28, 28, 3, 3, 1, 4),
		Conv("s2_c", 512, 128, 28, 28, 1, 1, 1, 4),
		Conv("s2_proj", 512, 256, 28, 28, 1, 1, 2, 1),
		// Stage 3: 6 bottlenecks at 14x14, width 256->1024.
		Conv("s3_a", 256, 1024, 14, 14, 1, 1, 1, 5),
		Conv("s3_a0", 256, 512, 14, 14, 1, 1, 1, 1),
		Conv("s3_b", 256, 256, 14, 14, 3, 3, 1, 6),
		Conv("s3_c", 1024, 256, 14, 14, 1, 1, 1, 6),
		Conv("s3_proj", 1024, 512, 14, 14, 2, 2, 2, 1),
		// Stage 4: 3 bottlenecks at 7x7, width 512->2048.
		Conv("s4_a", 512, 2048, 7, 7, 1, 1, 1, 2),
		Conv("s4_a0", 512, 1024, 7, 7, 1, 1, 1, 1),
		Conv("s4_b", 512, 512, 7, 7, 3, 3, 1, 3),
		Conv("s4_c", 2048, 512, 7, 7, 1, 1, 1, 3),
		Conv("s4_proj", 2048, 1024, 7, 7, 1, 1, 2, 1),
		Gemm("fc", 1, 2048, 1000, 1),
	}}
}

// SRGAN returns the SRGAN generator for 4x super-resolution of a 96×96 LR
// input: the wide 9×9 head/tail, sixteen residual blocks and two pixel-shuffle
// upsampling stages.
func SRGAN() Workload {
	return Workload{Name: "SRGAN", Layers: []Layer{
		Conv("head", 64, 3, 96, 96, 9, 9, 1, 1),
		Conv("res", 64, 64, 96, 96, 3, 3, 1, 32), // 16 blocks x 2 convs
		Conv("mid", 64, 64, 96, 96, 3, 3, 1, 1),
		Conv("up1", 256, 64, 96, 96, 3, 3, 1, 1),
		Conv("up2", 256, 64, 192, 192, 3, 3, 1, 1),
		Conv("tail", 3, 64, 384, 384, 9, 9, 1, 1),
	}}
}

// UNet returns the original U-Net encoder/decoder at a 256×256 input.
func UNet() Workload {
	return Workload{Name: "UNet", Layers: []Layer{
		Conv("enc1", 64, 3, 256, 256, 3, 3, 1, 1),
		Conv("enc1b", 64, 64, 256, 256, 3, 3, 1, 1),
		Conv("enc2", 128, 64, 128, 128, 3, 3, 1, 1),
		Conv("enc2b", 128, 128, 128, 128, 3, 3, 1, 1),
		Conv("enc3", 256, 128, 64, 64, 3, 3, 1, 1),
		Conv("enc3b", 256, 256, 64, 64, 3, 3, 1, 1),
		Conv("enc4", 512, 256, 32, 32, 3, 3, 1, 1),
		Conv("enc4b", 512, 512, 32, 32, 3, 3, 1, 1),
		Conv("bott", 1024, 512, 16, 16, 3, 3, 1, 1),
		Conv("bottb", 1024, 1024, 16, 16, 3, 3, 1, 1),
		Conv("dec4", 512, 1024, 32, 32, 3, 3, 1, 1),
		Conv("dec4b", 512, 512, 32, 32, 3, 3, 1, 1),
		Conv("dec3", 256, 512, 64, 64, 3, 3, 1, 1),
		Conv("dec3b", 256, 256, 64, 64, 3, 3, 1, 1),
		Conv("dec2", 128, 256, 128, 128, 3, 3, 1, 1),
		Conv("dec2b", 128, 128, 128, 128, 3, 3, 1, 1),
		Conv("dec1", 64, 128, 256, 256, 3, 3, 1, 1),
		Conv("dec1b", 64, 64, 256, 256, 3, 3, 1, 1),
		Conv("out", 2, 64, 256, 256, 1, 1, 1, 1),
	}}
}

// ViT returns ViT-B/16 at 224×224 (197 tokens including [CLS]).
func ViT() Workload {
	return Workload{Name: "VIT", Layers: []Layer{
		Conv("patch_embed", 768, 3, 14, 14, 16, 16, 16, 1),
		Gemm("qkv_proj", 197, 768, 768, 36),
		Gemm("attn_out", 197, 768, 768, 12),
		Gemm("attn_score", 197, 64, 197, 144),
		Gemm("attn_ctx", 197, 197, 64, 144),
		Gemm("ffn_up", 197, 768, 3072, 12),
		Gemm("ffn_down", 197, 3072, 768, 12),
		Gemm("head", 1, 768, 1000, 1),
	}}
}

// Xception returns Xception at 299×299: entry, middle (eight identical
// blocks) and exit flows built from depthwise-separable convolutions.
func Xception() Workload {
	return Workload{Name: "Xception", Layers: []Layer{
		Conv("entry1", 32, 3, 149, 149, 3, 3, 2, 1),
		Conv("entry2", 64, 32, 147, 147, 3, 3, 1, 1),
		DWConv("e3_dw", 64, 147, 147, 3, 3, 1, 1),
		Conv("e3_pw", 128, 64, 147, 147, 1, 1, 1, 1),
		DWConv("e4_dw", 128, 74, 74, 3, 3, 2, 1),
		Conv("e4_pw", 128, 128, 74, 74, 1, 1, 1, 1),
		DWConv("e5_dw", 128, 74, 74, 3, 3, 1, 1),
		Conv("e5_pw", 256, 128, 74, 74, 1, 1, 1, 1),
		DWConv("e6_dw", 256, 37, 37, 3, 3, 2, 1),
		Conv("e6_pw", 256, 256, 37, 37, 1, 1, 1, 1),
		DWConv("e7_dw", 256, 37, 37, 3, 3, 1, 1),
		Conv("e7_pw", 728, 256, 37, 37, 1, 1, 1, 1),
		DWConv("e8_dw", 728, 19, 19, 3, 3, 2, 1),
		Conv("e8_pw", 728, 728, 19, 19, 1, 1, 1, 1),
		// Middle flow: 8 blocks x 3 separable convs.
		DWConv("mid_dw", 728, 19, 19, 3, 3, 1, 24),
		Conv("mid_pw", 728, 728, 19, 19, 1, 1, 1, 24),
		// Exit flow.
		DWConv("x1_dw", 728, 19, 19, 3, 3, 1, 1),
		Conv("x1_pw", 728, 728, 19, 19, 1, 1, 1, 1),
		DWConv("x2_dw", 728, 10, 10, 3, 3, 2, 1),
		Conv("x2_pw", 1024, 728, 10, 10, 1, 1, 1, 1),
		DWConv("x3_dw", 1024, 10, 10, 3, 3, 1, 1),
		Conv("x3_pw", 1536, 1024, 10, 10, 1, 1, 1, 1),
		DWConv("x4_dw", 1536, 10, 10, 3, 3, 1, 1),
		Conv("x4_pw", 2048, 1536, 10, 10, 1, 1, 1, 1),
		Gemm("fc", 1, 2048, 1000, 1),
	}}
}

// VGG returns VGG-16 at 224×224, a training network in Fig. 9.
func VGG() Workload {
	return Workload{Name: "VGG", Layers: []Layer{
		Conv("c1", 64, 3, 224, 224, 3, 3, 1, 1),
		Conv("c2", 64, 64, 224, 224, 3, 3, 1, 1),
		Conv("c3", 128, 64, 112, 112, 3, 3, 1, 1),
		Conv("c4", 128, 128, 112, 112, 3, 3, 1, 1),
		Conv("c5", 256, 128, 56, 56, 3, 3, 1, 1),
		Conv("c6", 256, 256, 56, 56, 3, 3, 1, 2),
		Conv("c8", 512, 256, 28, 28, 3, 3, 1, 1),
		Conv("c9", 512, 512, 28, 28, 3, 3, 1, 2),
		Conv("c11", 512, 512, 14, 14, 3, 3, 1, 3),
		Gemm("fc6", 1, 25088, 4096, 1),
		Gemm("fc7", 1, 4096, 4096, 1),
		Gemm("fc8", 1, 4096, 1000, 1),
	}}
}

// ResUNet returns a residual U-Net (ResUNet-a style) at 256×256, a
// validation network in Fig. 8.
func ResUNet() Workload {
	return Workload{Name: "ResUNet", Layers: []Layer{
		Conv("stem", 32, 3, 256, 256, 3, 3, 1, 1),
		Conv("e1", 32, 32, 256, 256, 3, 3, 1, 4),
		Conv("d1", 64, 32, 128, 128, 1, 1, 2, 1),
		Conv("e2", 64, 64, 128, 128, 3, 3, 1, 4),
		Conv("d2", 128, 64, 64, 64, 1, 1, 2, 1),
		Conv("e3", 128, 128, 64, 64, 3, 3, 1, 4),
		Conv("d3", 256, 128, 32, 32, 1, 1, 2, 1),
		Conv("bott", 256, 256, 32, 32, 3, 3, 1, 4),
		Conv("u3", 128, 256, 64, 64, 3, 3, 1, 3),
		Conv("u2", 64, 128, 128, 128, 3, 3, 1, 3),
		Conv("u1", 32, 64, 256, 256, 3, 3, 1, 3),
		Conv("out", 1, 32, 256, 256, 1, 1, 1, 1),
	}}
}

// MobileNetV3Large returns MobileNetV3-Large at 224×224 (Fig. 9 validation).
func MobileNetV3Large() Workload {
	return Workload{Name: "MobileNetV3-L", Layers: []Layer{
		Conv("conv1", 16, 3, 112, 112, 3, 3, 2, 1),
		DWConv("b1_dw", 16, 112, 112, 3, 3, 1, 1),
		Conv("b1_pw", 16, 16, 112, 112, 1, 1, 1, 1),
		Conv("b2_exp", 64, 16, 112, 112, 1, 1, 1, 1),
		DWConv("b2_dw", 64, 56, 56, 3, 3, 2, 1),
		Conv("b2_pw", 24, 64, 56, 56, 1, 1, 1, 1),
		Conv("b3_exp", 72, 24, 56, 56, 1, 1, 1, 2),
		DWConv("b3_dw", 72, 56, 56, 3, 3, 1, 1),
		Conv("b3_pw", 24, 72, 56, 56, 1, 1, 1, 1),
		DWConv("b4_dw", 72, 28, 28, 5, 5, 2, 1),
		Conv("b4_pw", 40, 72, 28, 28, 1, 1, 1, 1),
		Conv("b5_exp", 120, 40, 28, 28, 1, 1, 1, 2),
		DWConv("b5_dw", 120, 28, 28, 5, 5, 1, 2),
		Conv("b5_pw", 40, 120, 28, 28, 1, 1, 1, 2),
		Conv("b6_exp", 240, 40, 28, 28, 1, 1, 1, 1),
		DWConv("b6_dw", 240, 14, 14, 3, 3, 2, 1),
		Conv("b6_pw", 80, 240, 14, 14, 1, 1, 1, 1),
		Conv("b7_exp", 200, 80, 14, 14, 1, 1, 1, 3),
		DWConv("b7_dw", 200, 14, 14, 3, 3, 1, 3),
		Conv("b7_pw", 80, 200, 14, 14, 1, 1, 1, 3),
		Conv("b8_exp", 480, 80, 14, 14, 1, 1, 1, 1),
		DWConv("b8_dw", 480, 14, 14, 3, 3, 1, 1),
		Conv("b8_pw", 112, 480, 14, 14, 1, 1, 1, 1),
		Conv("b9_exp", 672, 112, 14, 14, 1, 1, 1, 1),
		DWConv("b9_dw", 672, 7, 7, 5, 5, 2, 1),
		Conv("b9_pw", 160, 672, 7, 7, 1, 1, 1, 1),
		Conv("b10_exp", 960, 160, 7, 7, 1, 1, 1, 2),
		DWConv("b10_dw", 960, 7, 7, 5, 5, 1, 2),
		Conv("b10_pw", 160, 960, 7, 7, 1, 1, 1, 2),
		Conv("head", 960, 160, 7, 7, 1, 1, 1, 1),
		Gemm("fc1", 1, 960, 1280, 1),
		Gemm("fc2", 1, 1280, 1000, 1),
	}}
}

// MobileNetV3Small returns MobileNetV3-Small at 224×224 (Fig. 9 validation).
func MobileNetV3Small() Workload {
	return Workload{Name: "MobileNetV3-S", Layers: []Layer{
		Conv("conv1", 16, 3, 112, 112, 3, 3, 2, 1),
		DWConv("b1_dw", 16, 56, 56, 3, 3, 2, 1),
		Conv("b1_pw", 16, 16, 56, 56, 1, 1, 1, 1),
		Conv("b2_exp", 72, 16, 56, 56, 1, 1, 1, 1),
		DWConv("b2_dw", 72, 28, 28, 3, 3, 2, 1),
		Conv("b2_pw", 24, 72, 28, 28, 1, 1, 1, 1),
		Conv("b3_exp", 88, 24, 28, 28, 1, 1, 1, 1),
		DWConv("b3_dw", 88, 28, 28, 3, 3, 1, 1),
		Conv("b3_pw", 24, 88, 28, 28, 1, 1, 1, 1),
		Conv("b4_exp", 96, 24, 28, 28, 1, 1, 1, 1),
		DWConv("b4_dw", 96, 14, 14, 5, 5, 2, 1),
		Conv("b4_pw", 40, 96, 14, 14, 1, 1, 1, 1),
		Conv("b5_exp", 240, 40, 14, 14, 1, 1, 1, 2),
		DWConv("b5_dw", 240, 14, 14, 5, 5, 1, 2),
		Conv("b5_pw", 40, 240, 14, 14, 1, 1, 1, 2),
		Conv("b6_exp", 120, 40, 14, 14, 1, 1, 1, 1),
		DWConv("b6_dw", 120, 14, 14, 5, 5, 1, 1),
		Conv("b6_pw", 48, 120, 14, 14, 1, 1, 1, 1),
		Conv("b7_exp", 144, 48, 14, 14, 1, 1, 1, 1),
		DWConv("b7_dw", 144, 14, 14, 5, 5, 1, 1),
		Conv("b7_pw", 48, 144, 14, 14, 1, 1, 1, 1),
		Conv("b8_exp", 288, 48, 14, 14, 1, 1, 1, 1),
		DWConv("b8_dw", 288, 7, 7, 5, 5, 2, 1),
		Conv("b8_pw", 96, 288, 7, 7, 1, 1, 1, 1),
		Conv("b9_exp", 576, 96, 7, 7, 1, 1, 1, 2),
		DWConv("b9_dw", 576, 7, 7, 5, 5, 1, 2),
		Conv("b9_pw", 96, 576, 7, 7, 1, 1, 1, 2),
		Conv("head", 576, 96, 7, 7, 1, 1, 1, 1),
		Gemm("fc1", 1, 576, 1024, 1),
		Gemm("fc2", 1, 1024, 1000, 1),
	}}
}

// NASNetMobile returns NASNet-Mobile at 224×224 (Fig. 9 validation),
// approximated by its dominant separable-convolution cells.
func NASNetMobile() Workload {
	return Workload{Name: "NASNetMobile", Layers: []Layer{
		Conv("stem", 32, 3, 111, 111, 3, 3, 2, 1),
		DWConv("r1_dw", 44, 56, 56, 5, 5, 2, 2),
		Conv("r1_pw", 44, 44, 56, 56, 1, 1, 1, 2),
		DWConv("c1_dw", 44, 56, 56, 3, 3, 1, 8),
		Conv("c1_pw", 44, 44, 56, 56, 1, 1, 1, 8),
		DWConv("r2_dw", 88, 28, 28, 5, 5, 2, 2),
		Conv("r2_pw", 88, 88, 28, 28, 1, 1, 1, 2),
		DWConv("c2_dw", 88, 28, 28, 3, 3, 1, 16),
		Conv("c2_pw", 88, 88, 28, 28, 1, 1, 1, 16),
		DWConv("r3_dw", 176, 14, 14, 5, 5, 2, 2),
		Conv("r3_pw", 176, 176, 14, 14, 1, 1, 1, 2),
		DWConv("c3_dw", 176, 14, 14, 3, 3, 1, 16),
		Conv("c3_pw", 176, 176, 14, 14, 1, 1, 1, 16),
		DWConv("r4_dw", 352, 7, 7, 5, 5, 2, 2),
		Conv("r4_pw", 352, 352, 7, 7, 1, 1, 1, 2),
		DWConv("c4_dw", 352, 7, 7, 3, 3, 1, 16),
		Conv("c4_pw", 352, 352, 7, 7, 1, 1, 1, 16),
		Gemm("fc", 1, 1056, 1000, 1),
	}}
}

// EfficientNetV2 returns EfficientNetV2-S at 300×300 (Fig. 9 validation):
// fused-MBConv early stages and MBConv late stages.
func EfficientNetV2() Workload {
	return Workload{Name: "EfficientNetV2", Layers: []Layer{
		Conv("stem", 24, 3, 150, 150, 3, 3, 2, 1),
		Conv("f1", 24, 24, 150, 150, 3, 3, 1, 2), // fused-MBConv1
		Conv("f2_exp", 96, 24, 75, 75, 3, 3, 2, 1),
		Conv("f2_pw", 48, 96, 75, 75, 1, 1, 1, 1),
		Conv("f2r", 192, 48, 75, 75, 3, 3, 1, 3),
		Conv("f2r_pw", 48, 192, 75, 75, 1, 1, 1, 3),
		Conv("f3_exp", 192, 48, 38, 38, 3, 3, 2, 1),
		Conv("f3_pw", 64, 192, 38, 38, 1, 1, 1, 1),
		Conv("f3r", 256, 64, 38, 38, 3, 3, 1, 3),
		Conv("f3r_pw", 64, 256, 38, 38, 1, 1, 1, 3),
		Conv("m4_exp", 256, 64, 38, 38, 1, 1, 1, 6),
		DWConv("m4_dw", 256, 19, 19, 3, 3, 2, 1),
		DWConv("m4r_dw", 512, 19, 19, 3, 3, 1, 5),
		Conv("m4_pw", 128, 256, 19, 19, 1, 1, 1, 6),
		Conv("m5_exp", 768, 128, 19, 19, 1, 1, 1, 9),
		DWConv("m5_dw", 768, 19, 19, 3, 3, 1, 9),
		Conv("m5_pw", 160, 768, 19, 19, 1, 1, 1, 9),
		Conv("m6_exp", 960, 160, 19, 19, 1, 1, 1, 15),
		DWConv("m6_dw", 960, 10, 10, 3, 3, 2, 1),
		DWConv("m6r_dw", 1536, 10, 10, 3, 3, 1, 14),
		Conv("m6_pw", 256, 960, 10, 10, 1, 1, 1, 15),
		Conv("head", 1280, 256, 10, 10, 1, 1, 1, 1),
		Gemm("fc", 1, 1280, 1000, 1),
	}}
}

// ConvNeXt returns ConvNeXt-T at 224×224 (Fig. 9 validation): patchify stem,
// 7×7 depthwise convolutions and inverted-bottleneck pointwise pairs.
func ConvNeXt() Workload {
	return Workload{Name: "ConvNeXt", Layers: []Layer{
		Conv("stem", 96, 3, 56, 56, 4, 4, 4, 1),
		DWConv("s1_dw", 96, 56, 56, 7, 7, 1, 3),
		Conv("s1_up", 384, 96, 56, 56, 1, 1, 1, 3),
		Conv("s1_down", 96, 384, 56, 56, 1, 1, 1, 3),
		Conv("ds2", 192, 96, 28, 28, 2, 2, 2, 1),
		DWConv("s2_dw", 192, 28, 28, 7, 7, 1, 3),
		Conv("s2_up", 768, 192, 28, 28, 1, 1, 1, 3),
		Conv("s2_down", 192, 768, 28, 28, 1, 1, 1, 3),
		Conv("ds3", 384, 192, 14, 14, 2, 2, 2, 1),
		DWConv("s3_dw", 384, 14, 14, 7, 7, 1, 9),
		Conv("s3_up", 1536, 384, 14, 14, 1, 1, 1, 9),
		Conv("s3_down", 384, 1536, 14, 14, 1, 1, 1, 9),
		Conv("ds4", 768, 384, 7, 7, 2, 2, 2, 1),
		DWConv("s4_dw", 768, 7, 7, 7, 7, 1, 3),
		Conv("s4_up", 3072, 768, 7, 7, 1, 1, 1, 3),
		Conv("s4_down", 768, 3072, 7, 7, 1, 1, 1, 3),
		Gemm("fc", 1, 768, 1000, 1),
	}}
}

// FSRCNN returns FSRCNN for 4x super-resolution of a h×w low-resolution
// input (paper Fig. 11 uses several resolutions, e.g. 120×320): feature
// extraction, shrink, four mapping layers, expand and the deconvolution
// (modeled as a convolution over the upscaled output grid).
func FSRCNN(h, w int) Workload {
	return Workload{Name: fmt.Sprintf("FSRCNN-%dx%d", h, w), Layers: []Layer{
		Conv("feat", 56, 1, h, w, 5, 5, 1, 1),
		Conv("shrink", 12, 56, h, w, 1, 1, 1, 1),
		Conv("map", 12, 12, h, w, 3, 3, 1, 4),
		Conv("expand", 56, 12, h, w, 1, 1, 1, 1),
		Conv("deconv", 1, 56, 4*h, 4*w, 9, 9, 1, 1),
	}}
}

// DLEU returns the deep-learning image enhancement and upscaling workload of
// Fig. 11 (a DLSS-2.0-like network): a convolutional autoencoder over a
// 540p→1080p upscale.
func DLEU() Workload {
	return Workload{Name: "DLEU", Layers: []Layer{
		Conv("enc1", 32, 12, 540, 960, 3, 3, 1, 1),
		Conv("enc2", 64, 32, 270, 480, 3, 3, 2, 1),
		Conv("enc3", 96, 64, 135, 240, 3, 3, 2, 1),
		Conv("body", 96, 96, 135, 240, 3, 3, 1, 4),
		Conv("dec2", 64, 96, 270, 480, 3, 3, 1, 1),
		Conv("dec1", 32, 64, 540, 960, 3, 3, 1, 1),
		Conv("out", 3, 32, 1080, 1920, 3, 3, 1, 1),
	}}
}

// zoo names every network of All, in All's order, with its constructor.
// Resolution-parameterized networks have fixed instances (FSRCNN-120x320).
var zoo = []struct {
	name  string
	build func() Workload
}{
	{"Bert", BERT}, {"MobileNet", MobileNet}, {"MobileNetV2", MobileNetV2},
	{"ResNet", ResNet}, {"SRGAN", SRGAN}, {"UNet", UNet}, {"VIT", ViT},
	{"Xception", Xception}, {"VGG", VGG}, {"ResUNet", ResUNet},
	{"MobileNetV3-L", MobileNetV3Large}, {"MobileNetV3-S", MobileNetV3Small},
	{"NASNetMobile", NASNetMobile}, {"EfficientNetV2", EfficientNetV2},
	{"ConvNeXt", ConvNeXt},
	{"FSRCNN-120x320", func() Workload { return FSRCNN(120, 320) }},
	{"FSRCNN-240x640", func() Workload { return FSRCNN(240, 640) }},
	{"FSRCNN-480x960", func() Workload { return FSRCNN(480, 960) }},
	{"DLEU", DLEU},
}

// ByName builds the named workload of the zoo, and only that one, or returns
// an error listing the available names.
func ByName(name string) (Workload, error) {
	for _, z := range zoo {
		if z.name == name {
			return z.build(), nil
		}
	}
	names := make([]string, len(zoo))
	for i, z := range zoo {
		names[i] = z.name
	}
	sort.Strings(names)
	return Workload{}, fmt.Errorf("workload: unknown network %q (available: %v)", name, names)
}

// All returns every workload in the zoo.
func All() []Workload {
	ws := make([]Workload, len(zoo))
	for i, z := range zoo {
		ws[i] = z.build()
	}
	return ws
}

// Table12Networks returns the seven networks of Tables 1 and 2.
func Table12Networks() []Workload {
	return []Workload{BERT(), MobileNet(), ResNet(), SRGAN(), UNet(), ViT(), Xception()}
}
