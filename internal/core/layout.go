package core

import (
	"fmt"
	"strings"
)

// LayoutRow is one line of the Table 1 reproduction.
type LayoutRow struct {
	Predictor string
	Entries   string
	Tag       string
	KB        float64 // kB as in the paper (1 kB = 1000 bytes)
}

// Table1 builds the paper's Table 1 (predictor layout summary) from the
// actual storage accounting of freshly constructed predictors and, for
// VTAGE, of its configuration.
func Table1() []LayoutRow {
	lvp := NewLVP(13, FPCCommit, 1)
	str := NewStride2D(13, FPCCommit, 1)
	fcm := NewFCM(4, 13, FPCCommit, 1)

	kb := func(bits int) float64 { return float64(bits) / 8 / 1000 }

	vtBase, vtTagged := DefaultVTAGEConfig(FPCCommit).storageBits()
	fcmVHT := len(fcm.vht) * (fcmTagBits + fcm.order*16 + 3)
	fcmVPT := fcm.StorageBits() - fcmVHT

	return []LayoutRow{
		{"LVP", "8192", "Full (51)", kb(lvp.StorageBits())},
		{"2D-Stride", "8192", "Full (51)", kb(str.StorageBits())},
		{"o4-FCM (VHT)", "8192", "Full (51)", kb(fcmVHT)},
		{"o4-FCM (VPT)", "8192", "-", kb(fcmVPT)},
		{"VTAGE (Base)", "8192", "-", kb(vtBase)},
		{"VTAGE (Tagged)", "6 x 1024", "12+rank", kb(vtTagged)},
	}
}

// FormatTable1 renders Table 1 next to the paper's reported sizes.
func FormatTable1() string {
	paper := map[string]float64{
		"LVP": 120.8, "2D-Stride": 251.9, "o4-FCM (VHT)": 120.8,
		"o4-FCM (VPT)": 67.6, "VTAGE (Base)": 68.6, "VTAGE (Tagged)": 64.1,
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-10s %-10s %10s %10s\n", "Predictor", "#Entries", "Tag", "kB (ours)", "kB (paper)")
	for _, r := range Table1() {
		fmt.Fprintf(&b, "%-16s %-10s %-10s %10.1f %10.1f\n", r.Predictor, r.Entries, r.Tag, r.KB, paper[r.Predictor])
	}
	return b.String()
}
