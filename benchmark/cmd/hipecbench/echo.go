package main

import (
	"io"
	"net"
	"time"
)

// The host this benchmark runs on is a small VM on a shared machine, and
// how fast it runs the same code changes by a third and more, for seconds
// or for minutes at a time: 4 KB round trips at 62 k/s in one slice and 33 k/s
// in the next, sim_join at 4.5 M accesses/s and then 3.2 M, while a dependent
// ALU chain keeps its pace. No statistic of a run's own slices removes that,
// because a slow spell can outlast the run. So every slice of a run is
// bracketed by a fixed piece of work that involves none of the repository's
// code — round trips of 16 bytes over a loopback TCP connection between two
// goroutines, the same kernel paths and wake-ups a request to the server
// takes — and the slice's times are scaled by how fast that work ran.
// README.md has the measurements behind this.

const (
	echoTrips = 1000
	// echoNominal is the echo's round trip on this host when nothing
	// interferes; times are reported as they would read at that pace.
	echoNominal = 8 * time.Microsecond
)

// echo is the reference load: a loopback connection whose far end sends
// every 16 bytes back.
type echo struct {
	ln   net.Listener
	c    net.Conn
	done chan struct{}
}

func newEcho() (*echo, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echo{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(e.done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var buf [16]byte
		for {
			if _, err := io.ReadFull(c, buf[:]); err != nil {
				return
			}
			if _, err := c.Write(buf[:]); err != nil {
				return
			}
		}
	}()
	if e.c, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-e.done
		return nil, err
	}
	return e, nil
}

// rtt times echoTrips round trips and returns the mean of one.
func (e *echo) rtt() (time.Duration, error) {
	var buf [16]byte
	start := time.Now()
	for i := 0; i < echoTrips; i++ {
		if _, err := e.c.Write(buf[:]); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(e.c, buf[:]); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / echoTrips, nil
}

func (e *echo) close() {
	e.c.Close()
	e.ln.Close()
	<-e.done
}

// hostSpeed is how fast the host ran something the echo took before and
// after round trips around: 1 at the nominal pace, 0.5 on a host that takes
// twice as long over everything.
func hostSpeed(before, after time.Duration) float64 {
	return 2 * float64(echoNominal) / float64(before+after)
}
