// Command pairs measures a change against its parent the way the PR driver
// does: N alternating parent/change runs of one BENCHMARK.json workload at its
// run length, a fresh seed per pair, then per end-to-end metric both medians,
// both quartile spreads, wins over pairs and the choosing-metrics verdict
// (see compare). Each tree builds and runs its own bench/run.sh, one run at a time.
//
//	make pairs W=live-sro-write N=10 PARENT=/root/scratch/parent
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"sort"
	"time"
)

type result struct {
	Correct bool
	Failed  uint64
	Metrics map[string]struct{ Value float64 }
}

func main() {
	log.SetFlags(0)
	workload := flag.String("w", "", "workload name from BENCHMARK.json")
	pairs := flag.Int("n", 10, "pairs to run")
	parent := flag.String("parent", "", "checkout of the parent commit")
	seed := flag.Int64("seed", time.Now().Unix()%1_000_000, "seed of the first pair; pair i runs both sides at seed+i")
	flag.Parse()
	var bm struct {
		Command    []string
		RunSeconds int `json:"run_seconds"`
		EndToEnd   []struct {
			Name, Better string
			Bound        float64
		} `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &bm)
	}
	if err != nil || *workload == "" || *parent == "" {
		log.Fatalf("usage, from the repository root: pairs -w <workload> -parent <checkout> [-n 10] [-seed S] (BENCHMARK.json: %v)", err)
	}
	sides := [2]string{*parent, "."} // 0 parent, 1 change
	var runs [2][]result
	var failed [2]uint64 // failed ops, every op of a run that is not correct
	for i := 0; i < *pairs; i++ {
		for k := 0; k < 2; k++ {
			side := (i + k) % 2 // alternate which side goes first
			cmd := exec.Command(bm.Command[0], append(bm.Command[1:len(bm.Command):len(bm.Command)], "--workload", *workload,
				"--seed", fmt.Sprint(*seed+int64(i)), "--seconds", fmt.Sprint(bm.RunSeconds), "--trace", "0")...)
			cmd.Dir = sides[side]
			out, err := cmd.Output()
			if ee, ok := err.(*exec.ExitError); ok {
				os.Stderr.Write(ee.Stderr)
			}
			var r result
			if err == nil { // the result is the JSON object on the last output line
				out = bytes.TrimSpace(out)
				err = json.Unmarshal(out[bytes.LastIndexByte(out, '\n')+1:], &r)
			}
			if err != nil {
				log.Fatalf("pairs: %s: %v", sides[side], err)
			}
			if failed[side] += r.Failed; !r.Correct {
				failed[side]++
			}
			runs[side] = append(runs[side], r)
		}
		fmt.Printf("pair %2d seed %d:", i, *seed+int64(i))
		for _, m := range bm.EndToEnd {
			fmt.Printf("  %s %.4g -> %.4g", m.Name, runs[0][i].Metrics[m.Name].Value, runs[1][i].Metrics[m.Name].Value)
		}
		fmt.Println()
	}
	fmt.Printf("\n%s, %d s a run; failed ops and incorrect runs: parent %d, change %d\n", *workload, bm.RunSeconds, failed[0], failed[1])
	fmt.Printf("%-14s %12s %12s %7s %12s %12s %6s  %s\n", "metric", "parent med", "change med", "ratio", "parent IQR", "change IQR", "wins", "verdict")
	for _, m := range bm.EndToEnd {
		sign := 1.0 // sign*(change-parent) > 0 means the change is better
		if m.Better == "lower" {
			sign = -1
		}
		var p, c []float64
		for i := range runs[0] {
			p = append(p, runs[0][i].Metrics[m.Name].Value)
			c = append(c, runs[1][i].Metrics[m.Name].Value)
		}
		r := compare(p, c, sign, m.Bound, failed[1] > failed[0])
		fmt.Printf("%-14s %12.5g %12.5g %7.3f %12.5g %12.5g %3d/%-2d  %s\n",
			m.Name, r.pm, r.cm, r.cm/r.pm, r.piqr, r.ciqr, r.wins, len(p), r.verdict)
	}
}

// comparison is one end-to-end metric over the pairs: both medians and
// quartile spreads, the pairs the change won, and the verdict.
type comparison struct {
	pm, cm, piqr, ciqr float64
	wins               int
	verdict            string
}

// minPairs is the fewest pairs whose wins and losses are counted: below it
// the nine-tenths rule is all of them, which two identical programs meet by
// chance (1 time in 8 at three pairs).
const minPairs = 10

// compare reads one metric the choosing-metrics way. parent[i] and change[i]
// ran at one seed; sign is +1 when higher is better, bound the metric's
// BENCHMARK.json bound, moreFailed whether the change failed more ops (or
// runs) than the parent. The verdict is "worse" when the change failed more,
// its median is worse by more than the bound, or, over at least minPairs
// pairs, it lost nine tenths of them by more than the parent's spread;
// "claimable" when it won nine tenths of at least minPairs by more than that
// spread; "unresolved" when either side's quartile spread is wider than the
// bound, unless every change run beats every parent run; "inside spread"
// otherwise.
func compare(parent, change []float64, sign, bound float64, moreFailed bool) comparison {
	wins, losses := 0, 0
	for i := range parent {
		if d := sign * (change[i] - parent[i]); d > 0 {
			wins++
		} else if d < 0 {
			losses++
		}
	}
	allBetter := true
	for _, pv := range parent {
		for _, cv := range change {
			allBetter = allBetter && sign*(cv-pv) > 0
		}
	}
	p := append([]float64(nil), parent...)
	c := append([]float64(nil), change...)
	sort.Float64s(p)
	sort.Float64s(c)
	r := comparison{pm: quantile(p, 0.5), cm: quantile(c, 0.5), piqr: iqr(p), ciqr: iqr(c), wins: wins}
	gain, wide := sign*(r.cm-r.pm), bound*r.pm
	most := 0.9 * float64(max(len(p), minPairs))
	switch {
	case moreFailed, -gain > wide, -gain > r.piqr && float64(losses) >= most:
		r.verdict = "worse" // a gain beside more failures does not count
	case gain > r.piqr && float64(wins) >= most:
		r.verdict = "claimable"
	case (r.piqr > wide || r.ciqr > wide) && !allBetter:
		r.verdict = "unresolved"
	default:
		r.verdict = "inside spread"
	}
	return r
}

// iqr is the distance between the quartiles of the sorted xs.
func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

// quantile interpolates the q-quantile of the sorted xs.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}
