// Package fixture exercises the blockinloop pass: blocking work statically
// reachable from a Loop command closure stalls every client of the loop —
// directly, through a call chain, or via a provably-unbuffered send.
//
//hipec:fixture-as internal/server
package fixture

import (
	"os"
	"time"

	"hipec/internal/core"
)

// wakeup is provably unbuffered: its only initialization is make(chan T).
var wakeup = make(chan struct{})

// run blocks the engine goroutine three ways.
func run(l *core.Loop, f *os.File) error {
	return l.Call(func(k *core.Kernel) error {
		time.Sleep(time.Millisecond) // want `blockinloop: blocking call reachable from a Loop command closure .* time\.Sleep`
		flush(f)                     // want `blockinloop: blocking call reachable from a Loop command closure .*flush -> \(\*os\.File\)\.Sync`
		wakeup <- struct{}{}         // want `blockinloop: blocking call reachable from a Loop command closure .* send on unbuffered channel`
		return nil
	})
}

// flush hides the blocking leaf one call deep.
func flush(f *os.File) {
	_ = f.Sync()
}

// conn binds its apply method once and hands the loop the same method
// value on every hop; the method's body is chased like a literal's.
type conn struct {
	f *os.File
}

func (c *conn) apply(k *core.Kernel) error {
	flush(c.f)
	return nil
}

func serve(l *core.Loop, c *conn) error {
	apply := c.apply // want `blockinloop: blocking call reachable from a Loop command closure .*conn\)\.apply -> .*flush -> \(\*os\.File\)\.Sync`
	if err := l.Call(apply); err != nil {
		return err
	}
	return l.Call(c.apply) // want `blockinloop: blocking call reachable from a Loop command closure .*conn\)\.apply -> .*flush`
}
