package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"milr/internal/availability"
	"milr/internal/core"
	"milr/internal/nn"
)

// Text rendering of the reproduced tables and figures. Figures are
// rendered as aligned numeric series (one line per error rate) — the
// same data the paper plots.

// RenderArchitecture prints a Table I/II/III style listing.
func RenderArchitecture(w io.Writer, title string, m *nn.Model) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-14s %-14s %12s\n", "Layer", "Output Shape", "Trainable")
	for _, row := range nn.Architecture(m) {
		fmt.Fprintf(w, "%-14s %-14s %12d\n", row.Layer, row.OutShape, row.Trainable)
	}
	fmt.Fprintf(w, "%-14s %-14s %12d\n\n", "Total", "", m.ParamCount())
}

// RenderSweep prints a figure's data: one block per scheme, one line per
// rate with the box statistics.
func RenderSweep(w io.Writer, title string, res *SweepResult) {
	fmt.Fprintf(w, "%s\n", title)
	byScheme := map[Scheme][]SweepPoint{}
	var order []Scheme
	for _, p := range res.Points {
		if _, seen := byScheme[p.Scheme]; !seen {
			order = append(order, p.Scheme)
		}
		byScheme[p.Scheme] = append(byScheme[p.Scheme], p)
	}
	for _, scheme := range order {
		fmt.Fprintf(w, "  (%s) normalized accuracy\n", scheme)
		fmt.Fprintf(w, "  %-8s %7s %7s %7s %7s %7s   %s\n", "rate", "min", "q1", "median", "q3", "max", "box")
		for _, p := range byScheme[scheme] {
			fmt.Fprintf(w, "  %-8.0e %7.3f %7.3f %7.3f %7.3f %7.3f   %s\n",
				p.Rate, p.Stats.Min, p.Stats.Q1, p.Stats.Median, p.Stats.Q3, p.Stats.Max,
				sparkline(p.Stats))
		}
		// The paper's detection-coverage statistic (§V-B): the fraction
		// of runs in which the repair path believed it covered every
		// erroneous layer (MILR: all layers verified; ECC: no
		// uncorrectable words).
		if scheme == MILROnly || scheme == ECCPlusMILR {
			var covered, total int
			for _, p := range byScheme[scheme] {
				covered += p.DetectedAll
				total += p.Stats.N
			}
			if total > 0 {
				fmt.Fprintf(w, "  full-coverage repairs: %.1f%% of %d runs\n",
					100*float64(covered)/float64(total), total)
			}
		}
	}
	fmt.Fprintln(w)
}

// sparkline renders a 30-column ASCII box plot of a [0,1] statistic.
func sparkline(s BoxStats) string {
	const width = 30
	col := func(v float64) int {
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		c := int(v * (width - 1))
		return c
	}
	line := []byte(strings.Repeat(" ", width))
	for i := col(s.Min); i <= col(s.Max) && i < width; i++ {
		line[i] = '-'
	}
	for i := col(s.Q1); i <= col(s.Q3) && i < width; i++ {
		line[i] = '='
	}
	line[col(s.Median)] = '|'
	return "[" + string(line) + "]"
}

// RenderLayerTable prints a Table IV/VI/VIII style listing.
func RenderLayerTable(w io.Writer, title string, rows []LayerRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-16s %10s %12s\n", "Layer", "None", "MILR")
	for _, r := range rows {
		milr := fmt.Sprintf("%.1f%%", 100*r.MILRAcc)
		if r.Partial {
			milr = fmt.Sprintf("N/A* (%.1f%%)", 100*r.MILRAcc)
		}
		fmt.Fprintf(w, "%-16s %9.1f%% %12s\n", r.Label, 100*r.NoneAcc, milr)
	}
	fmt.Fprintf(w, "* Convolution partial recoverable (measured least-squares best effort in parentheses)\n\n")
}

// RenderStorage prints a Table V/VII/IX style listing.
func RenderStorage(w io.Writer, title string, rep *core.StorageReport) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-16s %10s %10s %12s\n", "Backup Weights", "ECC", "MILR", "ECC & MILR")
	fmt.Fprintf(w, "%13.2f MB %7.2f MB %7.2f MB %10.2f MB\n",
		core.MB(rep.BackupBytes), core.MB(rep.ECCBytes), core.MB(rep.MILRBytes()), core.MB(rep.CombinedBytes()))
	fmt.Fprintf(w, "  breakdown:\n")
	for _, l := range rep.Layers {
		if l.Total() == 0 {
			continue
		}
		fmt.Fprintf(w, "    %-12s partial=%dB checkpoint=%dB dummy=%dB crc=%dB\n",
			l.Name, l.PartialBytes, l.CheckpointBytes, l.DummyBytes, l.CRCBytes)
	}
	fmt.Fprintf(w, "    %-12s %d B\n\n", "output ckpt", rep.OutputCheckpointBytes)
}

// RenderTiming prints a Table X style listing.
func RenderTiming(w io.Writer, title string, res *TimingResult) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-22s %14v\n", "Single Prediction", res.SinglePrediction)
	fmt.Fprintf(w, "%-22s %14v\n", "Batch Prediction", res.BatchPerSample)
	fmt.Fprintf(w, "%-22s %14v\n\n", "Identification", res.Identification)
}

// RenderRecoveryCurve prints the Figure 11 series.
func RenderRecoveryCurve(w io.Writer, title string, pts []RecoveryPoint) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%10s %14s\n", "errors", "recovery time")
	var maxMs float64
	for _, p := range pts {
		if ms := float64(p.Elapsed) / float64(time.Millisecond); ms > maxMs {
			maxMs = ms
		}
	}
	for _, p := range pts {
		bar := ""
		if maxMs > 0 {
			bar = strings.Repeat("#", int(30*float64(p.Elapsed)/float64(time.Millisecond)/maxMs))
		}
		fmt.Fprintf(w, "%10d %14v %s\n", p.Errors, p.Elapsed.Round(time.Microsecond), bar)
	}
	fmt.Fprintln(w)
}

// RenderAvailability prints the Figure 12 series.
func RenderAvailability(w io.Writer, title string, pts []availability.Point) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%14s %14s\n", "availability", "min accuracy")
	step := len(pts) / 12
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(pts); i += step {
		fmt.Fprintf(w, "%14.6f %14.6f\n", pts[i].Availability, pts[i].MinAccuracy)
	}
	fmt.Fprintln(w)
}
