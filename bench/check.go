package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchSpec is the part of BENCHMARK.json the harness reads back.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec() (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// quartiles matches Python's statistics.quantiles(v, n=4) (exclusive
// method), the rule the benchmark's acceptance is computed with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// sig4 prints four significant digits without an exponent.
func sig4(v float64) string {
	if v >= 1000 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// runCheck runs two interleaved sets of runs of this same binary on every
// workload, seeds 1, 2, 3, ..., and compares the sets' medians metric by
// metric against the declared bounds. Its output is committed as
// CALIBRATION.md.
func runCheck(args []string) int {
	fs := flag.NewFlagSet("bench check", flag.ExitOnError)
	runs := fs.Int("runs", 5, "runs per set and workload (>= 5)")
	fs.Parse(args)
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench check:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench check:", err)
		return 2
	}

	// sets[set][workload][metric] = one value per run. The sets interleave
	// run by run, so slow drift of the host lands on both alike.
	var sets [2]map[string]map[string][]float64
	for i := range sets {
		sets[i] = make(map[string]map[string][]float64)
	}
	seed := 0
	attempted, failed := map[string]uint64{}, map[string]uint64{}
	var incorrect []string // runs that failed an oracle
	for i := 0; i < *runs; i++ {
		for _, w := range workloads {
			for set := range sets {
				seed++
				cmd := exec.Command(exe, "--workload", w, "--seed", strconv.Itoa(seed),
					"--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0")
				var stdout bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
				fmt.Fprintf(os.Stderr, "--- run %d/%d set %c %s\n", i+1, *runs, 'A'+set, w)
				if err := cmd.Run(); err != nil {
					fmt.Fprintln(os.Stderr, "bench check: run failed:", err)
					return 2
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					fmt.Fprintln(os.Stderr, "bench check: bad result line:", err)
					return 2
				}
				attempted[w] += res.Attempted
				failed[w] += res.Failed
				if !res.Correct {
					incorrect = append(incorrect, fmt.Sprintf("%s seed %d", w, seed))
				}
				if sets[set][w] == nil {
					sets[set][w] = make(map[string][]float64)
				}
				for name, m := range res.Metrics {
					sets[set][w][name] = append(sets[set][w][name], m.Value)
				}
			}
		}
	}

	fmt.Printf("# Calibration: two interleaved sets of %d runs x %d s, same binary\n\n", *runs, spec.RunSeconds)
	fmt.Printf("`bench check -runs %d` on %s; host.nproc = %d, host.spin_ns = %.3f, %s.\n",
		*runs, time.Now().UTC().Format("2006-01-02"), runtime.NumCPU(), hostSpin(), runtime.Version())
	fmt.Printf("Numbers from a host with another nproc are not comparable.\n\n")
	fmt.Printf("`diff` is how much worse set B's median is than set A's (negative: better); a row fails\n")
	fmt.Printf("when |diff| exceeds the bound. For information: `spread` is (q3 - q1) / median of a set,\n")
	fmt.Printf("quartiles as Python's `statistics.quantiles(v, n=4)`, starred where it exceeds the bound;\n")
	fmt.Printf("`max dev` is the furthest single run from its set's median.\n\n")
	fmt.Printf("| workload | metric | unit | A median | A spread | B median | B spread | diff | max dev | bound | ok |\n")
	fmt.Printf("|---|---|---|---:|---:|---:|---:|---:|---:|---:|---|\n")
	bad := 0
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			a, b := sets[0][w][m.Name], sets[1][w][m.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(os.Stderr, "bench check: %s reported no %s\n", w, m.Name)
				return 2
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			diff := (b2 - a2) / a2
			if m.Better == "higher" {
				diff = -diff
			}
			dev := 0.0
			for _, v := range a {
				dev = math.Max(dev, math.Abs(v-a2)/a2)
			}
			for _, v := range b {
				dev = math.Max(dev, math.Abs(v-b2)/b2)
			}
			spread := func(q1, q2, q3 float64) string {
				s := fmt.Sprintf("%.1f%%", (q3-q1)/q2*100)
				if (q3-q1)/q2 > m.Bound {
					s += "*"
				}
				return s
			}
			verdict := "ok"
			if math.Abs(diff) > m.Bound {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("| %s | %s | %s | %s | %s | %s | %s | %+.1f%% | %.1f%% | %.0f%% | %s |\n",
				w, m.Name, m.Unit, sig4(a2), spread(a1, a2, a3), sig4(b2), spread(b1, b2, b3),
				diff*100, dev*100, m.Bound*100, verdict)
		}
	}
	fmt.Printf("\n| workload | ops attempted | ops failed |\n|---|---:|---:|\n")
	for _, w := range workloads {
		fmt.Printf("| %s | %d | %d |\n", w, attempted[w], failed[w])
	}
	for _, u := range incorrect {
		fmt.Printf("\nORACLE FAILED: %s", u)
	}
	if bad > 0 || len(incorrect) > 0 {
		fmt.Printf("\n%d rows FAIL, %d runs failed an oracle: the benchmark does not repeat within its own bounds.\n", bad, len(incorrect))
		return 1
	}
	fmt.Printf("\nAll rows within bounds, every oracle passed.\n")
	return 0
}
