// Package store grows substrate.Store from two implementations (the
// simulation's MemStore, the realtime filestore) into a family of
// composable backends:
//
//   - Tiered: a fast tier caching a slow tier, write-through or
//     write-back, with promotion on read and FIFO eviction at a fast-tier
//     page cap — mem-over-file is the classic shape, but any Store pair
//     composes.
//   - Sharded: deterministic object-ID/offset partitioned fan-out across N
//     child stores (N files, N devices, N tiered stacks...).
//   - Mmap: an mmap-backed file store — page writes are memory copies into
//     the mapping and durability is explicit (Sync) — falling back to
//     filestore-style pread/pwrite where mmap is unavailable.
//
// Every backend keeps the substrate.Store contract: misuse (unaligned
// offsets, oversize pages) panics, real I/O failures come back wrapped in
// the hiperr taxonomy terminating in ErrDiskIO, and a failed write never
// records the key as present with garbage. The conformance kit in
// storetest pins the contract against every implementation, and the
// differential tests in this package pin each composite byte-equivalent to
// a plain MemStore oracle.
//
// Like the filestore, none of these backends is safe for concurrent use on
// its own: in realtime mode every access is serialized by the kernel's
// actor loop (core.Loop). The hipecvet blockinloop pass enforces the seam
// — loop commands reach stores only through the substrate.Store interface
// — and the -race run of server.TestConcurrentClients catches a store
// handle that escapes a Loop.Call closure and is touched off the loop.
package store

import (
	"errors"
	"fmt"
	"io"

	"hipec/internal/disk/filestore"
	"hipec/internal/hiperr"
	"hipec/internal/substrate"
)

// Syncer is the optional durability surface of a backend: Sync pushes
// buffered state (a write-back fast tier's dirty pages, an mmap'ed
// mapping's page-cache residue) to the layer that owns durability.
type Syncer interface {
	Sync() error
}

// IOStats is the optional counter surface: page transfers that genuinely
// hit a backing device, summed across a composite's children.
type IOStats interface {
	StoreIO() (reads, writes int64)
}

// Backend is what Open returns: a Store plus the lifecycle and labeling
// every CLI-selected backend needs.
type Backend interface {
	substrate.Store
	Close() error
	Label() string
}

// Kinds lists the backend names Open accepts, for flag help.
func Kinds() string { return "file, mem, tiered, sharded, mmap" }

// Defaults for CLI-opened composite backends.
const (
	// DefaultTierCap is the fast-tier page cap of an Open-built tiered
	// store (1 MB of 4 KB pages).
	DefaultTierCap = 256
	// DefaultShards is the child count of an Open-built sharded store.
	DefaultShards = 4
)

// Open builds the named backend kind for pages of pageSize bytes. path
// locates the backing file(s): the file itself for "file" and "mmap", the
// slow-tier file for "tiered", and a stem suffixed ".shard<N>" for
// "sharded"; an empty path uses fresh temp files that Close removes.
// "mem" ignores path. Unknown kinds are an error (not a panic: the kind
// usually arrives from a flag).
func Open(kind, path string, pageSize int) (Backend, error) {
	switch kind {
	case "", "file":
		fs, err := openFile(path, pageSize)
		if err != nil {
			return nil, err
		}
		return &labeled{Store: fs, label: "file:" + fs.Path(), close: fs.Close}, nil
	case "mem":
		return &labeled{Store: substrate.NewMemStore(pageSize, true), label: "mem"}, nil
	case "tiered":
		slow, err := openFile(path, pageSize)
		if err != nil {
			return nil, err
		}
		fast := substrate.NewMemStore(pageSize, true)
		t := NewTiered(fast, slow, WriteThrough, DefaultTierCap)
		return &labeled{Store: t,
			label: fmt.Sprintf("tiered(mem[%d]->file:%s)", DefaultTierCap, slow.Path()),
			close: t.Close}, nil
	case "sharded":
		children := make([]substrate.Store, DefaultShards)
		var paths string
		for i := range children {
			var fs *filestore.Store
			var err error
			if path == "" {
				fs, err = filestore.OpenTemp("", pageSize)
			} else {
				fs, err = filestore.Open(fmt.Sprintf("%s.shard%d", path, i), pageSize)
			}
			if err != nil {
				closeAll(children[:i])
				return nil, err
			}
			children[i] = fs
			if i == 0 {
				paths = fs.Path()
			}
		}
		sh := NewSharded(children...)
		return &labeled{Store: sh,
			label: fmt.Sprintf("sharded(%d x file:%s...)", DefaultShards, paths),
			close: sh.Close}, nil
	case "mmap":
		var m *Mmap
		var err error
		if path == "" {
			m, err = OpenMmapTemp("", pageSize)
		} else {
			m, err = OpenMmap(path, pageSize)
		}
		if err != nil {
			return nil, err
		}
		mode := "mmap"
		if !m.Mapped() {
			mode = "mmap-fallback"
		}
		return &labeled{Store: m, label: mode + ":" + m.Path(), close: m.Close}, nil
	}
	return nil, &hiperr.Error{Op: "store.open",
		Err: fmt.Errorf("unknown store kind %q (want %s): %w", kind, Kinds(), hiperr.ErrBadRequest)}
}

// openFile opens a filestore at path, or a temp-backed one when path is
// empty.
func openFile(path string, pageSize int) (*filestore.Store, error) {
	if path == "" {
		return filestore.OpenTemp("", pageSize)
	}
	return filestore.Open(path, pageSize)
}

// closeAll best-effort closes the stores that implement io.Closer.
func closeAll(stores []substrate.Store) {
	for _, s := range stores {
		if c, ok := s.(io.Closer); ok {
			c.Close()
		}
	}
}

// labeled adapts any Store into a Backend, forwarding the optional
// surfaces (Deleter, Syncer, IOStats) to the wrapped store.
type labeled struct {
	substrate.Store
	label string
	close func() error
}

func (b *labeled) Label() string { return b.label }

func (b *labeled) Close() error {
	if b.close == nil {
		return nil
	}
	return b.close()
}

// Sync forwards to the wrapped store's Syncer, if any.
func (b *labeled) Sync() error {
	if s, ok := b.Store.(Syncer); ok {
		return s.Sync()
	}
	return nil
}

// DeletePage forwards to the wrapped store's Deleter, if any.
func (b *labeled) DeletePage(key substrate.PageKey) bool {
	if d, ok := b.Store.(substrate.Deleter); ok {
		return d.DeletePage(key)
	}
	return false
}

// StoreIO forwards to the wrapped store's IOStats, if any.
func (b *labeled) StoreIO() (reads, writes int64) {
	if io, ok := b.Store.(IOStats); ok {
		return io.StoreIO()
	}
	return 0, 0
}

// diskErr wraps a child-store failure with composite context, preserving
// the child's chain and guaranteeing the ErrDiskIO sentinel even when the
// child's error predates the taxonomy.
func diskErr(op, context string, err error) error {
	if errors.Is(err, hiperr.ErrDiskIO) {
		return &hiperr.Error{Op: op, Err: fmt.Errorf("%s: %w", context, err)}
	}
	return &hiperr.Error{Op: op, Err: fmt.Errorf("%s: %v: %w", context, err, hiperr.ErrDiskIO)}
}

// checkPage panics on the caller bugs every backend rejects identically.
func checkPage(name string, pageSize int, key substrate.PageKey, data []byte) {
	if key.Offset%int64(pageSize) != 0 {
		panic(fmt.Sprintf("%s: unaligned store offset %d", name, key.Offset))
	}
	if len(data) > pageSize {
		panic(fmt.Sprintf("%s: page data %d bytes exceeds page size %d", name, len(data), pageSize))
	}
}
