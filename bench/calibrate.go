package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"text/tabwriter"
)

// quartiles is Python's statistics.quantiles(v, n=4): the spread the
// driver judges the benchmark's bounds by, reproduced exactly so that
// -calibrate and the driver agree.
func quartiles(v []float64) (q [3]float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) < 2 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread summarizes one metric over the calibration rounds.
type spread struct {
	Unit      string    `json:"unit"`
	Median    float64   `json:"median"`
	Q1        float64   `json:"q1"`
	Q3        float64   `json:"q3"`
	IQRShare  float64   `json:"iqr_share"`   // (q3-q1)/median, what the bound is compared with
	MaxRelDev float64   `json:"max_rel_dev"` // largest |value-median|/median
	Bound     float64   `json:"bound,omitempty"`
	Values    []float64 `json:"values"`
}

func summarize(d metricDef, values []float64) spread {
	q := quartiles(values)
	sp := spread{Unit: d.Unit, Median: q[1], Q1: q[0], Q3: q[2], Bound: d.Bound, Values: values}
	if q[1] != 0 {
		sp.IQRShare = (q[2] - q[0]) / math.Abs(q[1])
		for _, v := range values {
			sp.MaxRelDev = max(sp.MaxRelDev, math.Abs(v-q[1])/math.Abs(q[1]))
		}
	}
	return sp
}

// backing names the file system under dir, the way /proc/mounts would.
func backing(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("fs-0x%x", uint32(st.Type))
}

// reportCalibration prints, per workload and metric, the median, the
// quartiles and the largest relative deviation over the rounds, flags
// every end-to-end metric whose quartile spread exceeds its bound, and
// writes the ledger when asked to.
func reportCalibration(w io.Writer, rounds [][]*result, seed int64, dir, ledgerPath string) error {
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	for _, results := range rounds {
		for _, r := range results {
			for name, v := range r.Metrics {
				values[key{r.Workload, name}] = append(values[key{r.Workload, name}], v)
			}
		}
	}
	ledger := struct {
		PR        int                          `json:"pr"`
		GoVersion string                       `json:"go_version"`
		Machine   string                       `json:"machine"`
		NProc     int                          `json:"nproc"`
		Backing   string                       `json:"backing"`
		Seed      int64                        `json:"seed"`
		Rounds    int                          `json:"rounds"`
		Workloads map[string]map[string]spread `json:"workloads"`
	}{12, runtime.Version(), runtime.GOOS + "/" + runtime.GOARCH, runtime.NumCPU(), backing(dir), seed, len(rounds), map[string]map[string]spread{}}

	over := 0
	fmt.Fprintf(w, "== calibration over %d rounds (seeds %d..%d), backing %s\n", len(rounds), seed, seed+int64(len(rounds))-1, ledger.Backing)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tunit\tiqr/median\tmax dev\tbound\t")
	for _, wl := range workloads {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				vals := values[key{wl.name, d.Name}]
				if len(vals) == 0 {
					continue
				}
				sp := summarize(d, vals)
				if ledger.Workloads[wl.name] == nil {
					ledger.Workloads[wl.name] = map[string]spread{}
				}
				ledger.Workloads[wl.name][d.Name] = sp
				flag := ""
				if d.Bound > 0 {
					flag = fmt.Sprintf("%.2f", d.Bound)
					if sp.IQRShare > d.Bound {
						flag += " OVER"
						over++
					}
				}
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%s\t%.4f\t%.4f\t%s\t\n", wl.name, d.Name, sp.Median, sp.Q1, sp.Q3, d.Unit, sp.IQRShare, sp.MaxRelDev, flag)
			}
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "%d end-to-end metrics spread wider than their bound\n", over)
	if ledgerPath == "" {
		return nil
	}
	b, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(ledgerPath, append(b, '\n'), 0o644)
}
