// Netcache: the networked twin of examples/realcache. The same stamp/verify
// workload (internal/demo), the same kernel, the same policy — but every
// client is a real TCP connection speaking the HiPEC wire protocol to a
// server fronting the serialized command loop. Concurrent clients pipeline
// frames over their connections and the server batches each connection's
// backlog into single Loop hops, so the network layer amortizes the mailbox
// crossing exactly the way the in-process path cannot.
//
// By default the server runs in-process on a loopback listener so the
// example is self-contained; point -addr at a running hipecd (cmd/hipecd)
// to drive a remote cache instead.
//
// Run with: go run ./examples/netcache
// Race-check with: go run -race ./examples/netcache
package main

import (
	"flag"
	"fmt"
	"log"

	"hipec"
	"hipec/internal/demo"
)

const pageSize = 4096

func main() {
	cfg := demo.Flags(flag.CommandLine, demo.Config{Clients: 8, Pages: 96, Rounds: 3, Pool: 16})
	addr := flag.String("addr", "", "existing hipecd address (default: spawn an in-process loopback server)")
	storeKind := flag.String("store", "file", "store backend for the in-process server: file, mem, tiered, sharded, mmap")
	storePath := flag.String("store-path", "", "backing store file or stem for the in-process server (default: fresh temp files)")
	flag.Parse()

	target := *addr
	if target == "" {
		// Self-contained mode: boot a server on a loopback listener.
		store, err := hipec.OpenStore(*storeKind, *storePath, pageSize)
		if err != nil {
			log.Fatal(err)
		}
		defer store.Close()

		srv, err := hipec.Serve("127.0.0.1:0", store, hipec.WithFrames(cfg.KernelFrames()))
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		target = srv.Addr().String()
		fmt.Printf("serving %s store on %s\n", store.Label(), target)
	}

	// Every demo client dials its own TCP connection.
	res, err := demo.Run(*cfg, func(int) (hipec.Client, func(), error) {
		c, err := hipec.Dial(target)
		if err != nil {
			return nil, nil, err
		}
		return c, c.Close, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Report(*cfg, "networked"))
}
