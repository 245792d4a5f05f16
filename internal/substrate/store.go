package substrate

import "fmt"

// PageKey addresses one page of backing store: the owning VM object and the
// page-aligned byte offset within it.
type PageKey struct {
	Object uint64
	Offset int64
}

// Store is page-granular backing storage. The simulated kernel's paging
// store (MemStore), the realtime file-backed store (disk/filestore) and any
// future backend (networked, multi-tier) implement it.
//
// WritePage with nil data records presence without content (the simulation
// runs data-free by default); ReadPage's ok distinguishes "absent" (a
// zero-fill page) from "present with nil content".
//
// Errors are real I/O failures (ENOSPC, EIO on a file-backed store, a lost
// peer on a networked one), wrapped in the hiperr taxonomy terminating in
// ErrDiskIO. The in-memory store cannot fail and always returns nil;
// misuse (unaligned offset, oversize data) is a caller bug and panics on
// every backend.
type Store interface {
	// PageSize reports the store's page size in bytes.
	PageSize() int
	// WritePage stores data (length <= PageSize) for key; nil data records
	// presence only. On error the page's previous durable content (if any)
	// is unspecified per-backend, but the key is never recorded as present
	// with garbage.
	WritePage(key PageKey, data []byte) error
	// ReadPage fetches the page for key; ok is false for absent pages. A
	// non-nil err means the page is present but could not be read. The
	// returned slice may be the store's own memory: it stays valid until
	// the next write or delete of that key, and on a backend with one read
	// buffer (filestore, mmap) only until the next ReadPage. Callers copy
	// it out before their next call on the store.
	ReadPage(key PageKey) (data []byte, ok bool, err error)
	// Contains reports whether the store holds a page for key.
	Contains(key PageKey) bool
	// Len reports the number of pages present.
	Len() int
}

// Deleter is the optional removal surface of a Store. The paging kernel
// never deletes (a page once written stays until the object dies), but
// composite backends do: a tiered store's fast tier evicts pages it has
// flushed down, and per-key reclamation needs somewhere to go. DeletePage
// reports whether the key was present; deleting an absent key is a no-op.
// Backends that cannot reclaim (an append-only remote, say) simply do not
// implement it, and composites requiring eviction reject them at
// construction.
type Deleter interface {
	DeletePage(key PageKey) bool
}

// MemStore is the in-memory backing store of the simulation substrate: the
// paging file that VM objects page to and from. Content is optional —
// experiments that only count faults run with data disabled to avoid the
// memory traffic.
type MemStore struct {
	pageSize int
	keepData bool
	pages    map[PageKey][]byte
}

// NewMemStore creates a backing store for pages of pageSize bytes. If
// keepData is false, page contents are not retained (reads return nil) but
// presence is still tracked.
func NewMemStore(pageSize int, keepData bool) *MemStore {
	if pageSize <= 0 {
		panic("substrate: non-positive page size")
	}
	return &MemStore{pageSize: pageSize, keepData: keepData, pages: make(map[PageKey][]byte)}
}

// PageSize implements Store.
func (s *MemStore) PageSize() int { return s.pageSize }

// WritePage implements Store; memory writes cannot fail.
func (s *MemStore) WritePage(key PageKey, data []byte) error {
	if key.Offset%int64(s.pageSize) != 0 {
		panic(fmt.Sprintf("substrate: unaligned store offset %d", key.Offset))
	}
	if len(data) > s.pageSize {
		panic(fmt.Sprintf("substrate: page data %d bytes exceeds page size %d", len(data), s.pageSize))
	}
	if !s.keepData || data == nil {
		s.pages[key] = nil
		return nil
	}
	// Overwrite in place when the key already holds a page: a page-out of
	// a resident page rewrites the same key over and over.
	buf := s.pages[key]
	if buf == nil {
		buf = make([]byte, s.pageSize)
		s.pages[key] = buf
	}
	clear(buf[copy(buf, data):])
	return nil
}

// ReadPage implements Store; memory reads cannot fail.
func (s *MemStore) ReadPage(key PageKey) (data []byte, ok bool, err error) {
	d, ok := s.pages[key]
	return d, ok, nil
}

// Contains implements Store.
func (s *MemStore) Contains(key PageKey) bool {
	_, ok := s.pages[key]
	return ok
}

// Len implements Store.
func (s *MemStore) Len() int { return len(s.pages) }

// DeletePage implements Deleter; memory pages release immediately.
func (s *MemStore) DeletePage(key PageKey) bool {
	_, ok := s.pages[key]
	delete(s.pages, key)
	return ok
}

var (
	_ Store   = (*MemStore)(nil)
	_ Deleter = (*MemStore)(nil)
)
