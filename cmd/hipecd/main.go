// Hipecd is the HiPEC cache daemon: a realtime kernel with a real page
// store, served over the wire protocol on a TCP listener. Clients connect
// with hipec.Dial (or anything speaking internal/wire) and drive the typed
// command surface — open regions under HPL policies, read/write/touch
// pages, pull stats — while the server batches each connection's pipeline
// into single command-loop hops.
//
// The backing store is selected by kind: -store file (default) is the
// slot-file store, tiered layers an in-memory fast tier over a file,
// sharded fans pages across shard files, mmap maps the backing file, and
// mem keeps everything in memory. -store-path names the backing file
// (or the stem shard files derive from); empty means fresh temp files,
// removed on exit.
//
// Run with: go run ./cmd/hipecd -addr 127.0.0.1:7070 -store tiered
// Then point examples/netcache at it: go run ./examples/netcache -addr 127.0.0.1:7070
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"hipec"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	storeKind := flag.String("store", "file", "store backend: file, mem, tiered, sharded, mmap")
	storePath := flag.String("store-path", "", "backing store file or stem (default: fresh temp files, removed on exit)")
	pageSize := flag.Int("pagesize", 4096, "page size in bytes")
	frames := flag.Int("frames", 4096, "physical memory size in frames")
	maxConns := flag.Int("max-conns", 64, "max concurrently served connections")
	flag.Parse()

	store, err := hipec.OpenStore(*storeKind, *storePath, *pageSize)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	srv, err := hipec.Serve(*addr, store,
		hipec.WithFrames(*frames), hipec.WithMaxConns(*maxConns))
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("hipecd: serving %s store on %s (%d frames x %d B pages)",
		store.Label(), srv.Addr(), *frames, *pageSize)

	// Serve until interrupted, then drain connections and close the loop.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	log.Printf("hipecd: %v: shutting down", s)
	srv.Close()
}
