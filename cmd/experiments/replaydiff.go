package main

import (
	"fmt"
	"io"
	"os"

	"hipec/internal/kevent"
)

const contextEvents = 5

// replaydiff compares two kernel event logs (experiments -event-log, or
// any kevent.LogWriter capture) and pinpoints the first event where the
// runs diverge.
//
// The simulated kernel is deterministic: the same workload must produce the
// same event stream, event for event. When a refactor changes behaviour,
// the final report only shows that counters moved; the event streams show
// *where* — the first fault handled differently, the first eviction picked
// from the wrong queue. replaydiff turns "the numbers differ" into "event
// #1234 diverged: expected fault at 0x40000, got daemon.balance".
//
// It returns 0 when the logs are identical, 1 on divergence (after
// printing the preceding context and both sides' next events), 2 on usage
// or parse errors.
func replaydiff(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: experiments replaydiff A.kevlog B.kevlog")
		return 2
	}
	var logs [2][]kevent.Event
	for i, path := range args {
		evs, err := readLog(path)
		if err != nil {
			fmt.Fprintf(stderr, "replaydiff: %v\n", err)
			return 2
		}
		logs[i] = evs
	}
	a, b := logs[0], logs[1]

	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			fmt.Fprintf(stdout, "first divergent event: #%d\n", i)
			start := i - contextEvents
			if start < 0 {
				start = 0
			}
			if start < i {
				fmt.Fprintf(stdout, "shared context:\n")
				for j := start; j < i; j++ {
					fmt.Fprintf(stdout, "  %s\n", a[j].Format(int64(j)))
				}
			}
			fmt.Fprintf(stdout, "%s:\n  %s\n", args[0], a[i].Format(int64(i)))
			fmt.Fprintf(stdout, "%s:\n  %s\n", args[1], b[i].Format(int64(i)))
			return 1
		}
	}
	if len(a) != len(b) {
		fmt.Fprintf(stdout, "logs agree on the first %d events, then lengths diverge: %s has %d, %s has %d\n",
			n, args[0], len(a), args[1], len(b))
		longer, name := a, args[0]
		if len(b) > len(a) {
			longer, name = b, args[1]
		}
		fmt.Fprintf(stdout, "first extra event in %s:\n  %s\n", name, longer[n].Format(int64(n)))
		return 1
	}
	fmt.Fprintf(stdout, "identical: %d events\n", len(a))
	return 0
}

func readLog(path string) ([]kevent.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	evs, err := kevent.ReadLog(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return evs, nil
}
