package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// defaultSeed is the seed the stored digests were recorded with.
const defaultSeed = 1

//go:embed digests.json
var storedDigests []byte

// digestBook checks op outputs.  The warm pass records the digest of
// every distinct op's output; every later run of that op must
// reproduce it.  Under the default seed the warm digests must also
// equal the ones stored in digests.json, unless the book is recording
// them afresh.
type digestBook struct {
	check  bool // compare warm digests against stored ones
	stored map[string]string

	mu   sync.Mutex
	warm map[string]string
	errs []error // warm-pass mismatches
}

func newDigestBook(seed uint64, recording bool) (*digestBook, error) {
	b := &digestBook{check: seed == defaultSeed && !recording, warm: map[string]string{}}
	if err := json.Unmarshal(storedDigests, &b.stored); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return b, nil
}

// record stores the warm digest of op key.  A mismatch against the
// stored digest is kept as a failed op.
func (b *digestBook) record(key, digest string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.warm[key] = digest
	if !b.check {
		return
	}
	switch want, ok := b.stored[key]; {
	case !ok:
		b.errs = append(b.errs, fmt.Errorf("%s: no stored digest (rerun with --write-digests)", key))
	case want != digest:
		b.errs = append(b.errs, fmt.Errorf("%s: output digest %.12s differs from stored %.12s", key, digest, want))
	}
}

// failWarm keeps a warm-pass check failure as a failed op.
func (b *digestBook) failWarm(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.errs = append(b.errs, err)
}

// same checks that a repeated run of op key reproduced its warm output.
func (b *digestBook) same(key, digest string) error {
	b.mu.Lock()
	want, ok := b.warm[key]
	b.mu.Unlock()
	switch {
	case !ok:
		return fmt.Errorf("%s: op missing from the warm pass", key)
	case want != digest:
		return fmt.Errorf("%s: output digest %.12s differs from the warm pass %.12s", key, digest, want)
	}
	return nil
}

// get returns the warm digest of key.
func (b *digestBook) get(key string) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.warm[key]
}

// save writes the warm digests to the digests file at path.
func (b *digestBook) save(path string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	// encoding/json sorts map keys, so the file is stable.
	out, err := json.MarshalIndent(b.warm, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
