package core

import "fmt"

// Storage accounting (paper Tables V, VII, IX): MILR's extra data lives
// in error-resistant storage; its size is compared against keeping a
// full backup copy of the weights and against SECDED ECC's 7 check bits
// per 32-bit word.

// LayerStorage itemizes MILR's stored artifacts for one layer.
type LayerStorage struct {
	Layer int
	Name  string
	// PartialBytes is the partial-checkpoint cost (detection).
	PartialBytes int
	// CheckpointBytes is the full input-checkpoint cost attributed to
	// this layer (the boundary stored at its input, if any).
	CheckpointBytes int
	// DummyBytes is the stored dummy-output cost (dense dummy rows, conv
	// dummy filters).
	DummyBytes int
	// CRCBytes is the 2-D CRC code cost (partial-recoverable convs).
	CRCBytes int
}

// Total returns the layer's MILR bytes.
func (l LayerStorage) Total() int {
	return l.PartialBytes + l.CheckpointBytes + l.DummyBytes + l.CRCBytes
}

// StorageReport aggregates the network-wide storage comparison.
type StorageReport struct {
	Layers []LayerStorage
	// OutputCheckpointBytes is the stored final-output checkpoint.
	OutputCheckpointBytes int
	// SeedBytes is the master seed (8 bytes).
	SeedBytes int
	// BackupBytes is the cost of a second copy of all weights.
	BackupBytes int
	// ECCBytes is SECDED's cost: 7 bits per 32-bit weight word.
	ECCBytes int
}

// MILRBytes returns the total MILR storage cost.
func (r *StorageReport) MILRBytes() int {
	total := r.OutputCheckpointBytes + r.SeedBytes
	for _, l := range r.Layers {
		total += l.Total()
	}
	return total
}

// CombinedBytes returns the ECC + MILR cost.
func (r *StorageReport) CombinedBytes() int { return r.ECCBytes + r.MILRBytes() }

// String renders the paper's storage-table row.
func (r *StorageReport) String() string {
	return fmt.Sprintf("Backup Weights %.2f MB | ECC %.2f MB | MILR %.2f MB | ECC & MILR %.2f MB",
		MB(r.BackupBytes), MB(r.ECCBytes), MB(r.MILRBytes()), MB(r.CombinedBytes()))
}

// MB converts bytes to megabytes (10^6, as the paper reports).
func MB(bytes int) float64 { return float64(bytes) / 1e6 }

// Storage computes the report for the protected model.
func (pr *Protector) Storage() *StorageReport {
	report := &StorageReport{SeedBytes: 8}
	var params int
	for _, lp := range pr.plan.layers {
		params += lp.paramCount
		ls := LayerStorage{Layer: lp.idx, Name: pr.model.Layer(lp.idx).Name()}
		if t, ok := pr.plan.stored[lp.idx]; ok {
			ls.CheckpointBytes = t.NumElements() * 4
		}
		switch lp.role {
		case roleConv:
			ls.PartialBytes = lp.conv.Filters() * 4
			if lp.dummyOut != nil {
				ls.DummyBytes = lp.dummyOut.NumElements() * 4
			}
			for _, code := range lp.crcs {
				ls.CRCBytes += code.OverheadBytes()
			}
		case roleDense:
			ls.PartialBytes = lp.dense.Out() * 4
			if lp.denseDummyOut != nil {
				ls.DummyBytes = lp.denseDummyOut.NumElements() * 4
			}
		case roleBias:
			ls.PartialBytes = 4 // the stored parameter sum
		}
		report.Layers = append(report.Layers, ls)
	}
	if t, ok := pr.plan.stored[pr.model.NumLayers()]; ok {
		report.OutputCheckpointBytes = t.NumElements() * 4
	}
	report.BackupBytes = params * 4
	report.ECCBytes = (params*7 + 7) / 8
	return report
}
