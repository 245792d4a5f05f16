//go:build !linux

package main

// Keeping the CPUs awake is a Linux matter (awake_linux.go); elsewhere a run
// goes without and says so in host.spinners.

const spinFlag = "-spin"

func keepAwake() (stop func(), spinners int, err error) { return func() {}, 0, nil }

func spin(int) {}
