package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json that -repeat reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runRepeat runs the whole suite n times, each run a process of its own
// with its own seed, in alternating workload order, and judges every
// end-to-end metric the way the benchmark's acceptance does: the distance
// between the quartiles as a share of the median must stay inside the
// metric's bound, and the medians of the two halves of the runs must not
// differ by more than it.
func runRepeat(n, seconds int, specPath string, out io.Writer) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return fmt.Errorf("-repeat reads the bounds from BENCHMARK.json: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}

	runs := make(map[string][]result) // by workload, in run order
	for round := 0; round < n; round++ {
		order := append([]string(nil), workloadNames...)
		if round%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			cmd := exec.Command(self, "-workload", w, "-seed", strconv.Itoa(round+1), "-seconds", strconv.Itoa(seconds))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("round %d %s: %w", round+1, w, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("round %d %s: last line is not a result: %w", round+1, w, err)
			}
			runs[w] = append(runs[w], res)
			fmt.Fprintf(out, "round %d %-15s attempted %d failed %d\n", round+1, w, res.Attempted, res.Failed)
		}
	}

	fmt.Fprintf(out, "\n%-15s %-19s %12s %12s %12s %8s %8s %8s %6s %s\n",
		"workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "halves", "bound", "runs in order")
	flagged := 0
	for _, w := range workloadNames {
		for _, m := range spec.EndToEnd {
			var v []float64
			for _, r := range runs[w] {
				v = append(v, r.Metrics[m.Name].Value)
			}
			st := spreadOf(v, m.Better == "lower")
			var notes []string
			switch {
			case st.iqr > m.Bound:
				notes = append(notes, "SPREAD")
			case st.iqr > m.Bound/3:
				notes = append(notes, "loose")
			}
			if st.halves > m.Bound {
				notes = append(notes, "DRIFT")
			}
			if st.iqr > m.Bound || st.halves > m.Bound {
				flagged++
			}
			fmt.Fprintf(out, "%-15s %-19s %12.4f %12.4f %12.4f %7.2f%% %7.2f%% %+7.2f%% %5.0f%% %-12s",
				w, m.Name, st.q2, st.q1, st.q3, 100*st.iqr, 100*st.rng, 100*st.halves, 100*m.Bound, strings.Join(notes, " "))
			for _, x := range v {
				fmt.Fprintf(out, " %.5g", x)
			}
			fmt.Fprintln(out)
		}
	}
	fmt.Fprintf(out, "\n%d metric x workload pairs outside their bound (SPREAD: iqr/median, DRIFT: second half worse than first); "+
		"loose: spread above a third of the bound\n", flagged)
	return nil
}

type spread struct {
	q1, q2, q3 float64
	iqr, rng   float64 // as shares of the median
	halves     float64 // how much worse the second half's median is than the first's
}

func spreadOf(v []float64, lowerIsBetter bool) spread {
	var s spread
	s.q1, s.q2, s.q3 = quartiles(v)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	s.iqr = (s.q3 - s.q1) / s.q2
	s.rng = (hi - lo) / s.q2
	first, second := median(v[:len(v)/2]), median(v[len(v)/2:])
	s.halves = (second - first) / first
	if !lowerIsBetter {
		s.halves = -s.halves
	}
	return s
}
