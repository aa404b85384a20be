// Command pairs measures a change against its parent the way the PR driver
// does: N alternating parent/change runs of one BENCHMARK.json workload at its
// run length, a fresh seed per pair, then per end-to-end metric both medians,
// the parent's quartile spread, wins over pairs and the choosing-metrics §8
// verdict. Each tree builds and runs its own bench/run.sh, one run at a time.
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
	fmt.Printf("%-14s %12s %12s %7s %12s %6s  %s\n", "metric", "parent med", "change med", "ratio", "parent IQR", "wins", "verdict")
	for _, m := range bm.EndToEnd {
		sign := 1.0 // sign*(change-parent) > 0 means the change is better
		if m.Better == "lower" {
			sign = -1
		}
		var p, c []float64
		wins, losses := 0, 0
		for i := range runs[0] {
			pv, cv := runs[0][i].Metrics[m.Name].Value, runs[1][i].Metrics[m.Name].Value
			p, c = append(p, pv), append(c, cv)
			if sign*(cv-pv) > 0 {
				wins++
			} else if cv != pv {
				losses++
			}
		}
		sort.Float64s(p)
		sort.Float64s(c)
		pm, cm, iqr := quantile(p, 0.5), quantile(c, 0.5), quantile(p, 0.75)-quantile(p, 0.25)
		gain, most := sign*(cm-pm), 0.9*float64(len(p))
		verdict := "inside spread"
		switch {
		case failed[1] > failed[0], -gain > m.Bound*pm, -gain > iqr && float64(losses) >= most:
			verdict = "worse" // a gain beside more failures does not count
		case gain > iqr && float64(wins) >= most:
			verdict = "claimable"
		}
		fmt.Printf("%-14s %12.5g %12.5g %7.3f %12.5g %3d/%-2d  %s\n", m.Name, pm, cm, cm/pm, iqr, wins, len(p), verdict)
	}
}

// quantile interpolates the q-quantile of the sorted xs.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}
