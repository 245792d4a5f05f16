package hpl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"hipec/internal/core"
)

// Binary policy container format (written by hipec compile -o):
//
//	u32 magic "HPEC"
//	u32 eventCount
//	per event: u32 wordCount, then wordCount little-endian command words
//
// Absent events are encoded with wordCount 0.
const binaryMagic = 0x48504543 // "HPEC"

// BinaryMagic is the container magic, exported so cmd/hipec can sniff
// whether a file is a policy binary or HPL source.
const BinaryMagic uint32 = binaryMagic

// maxBinaryEvents bounds decoding (the Activate operand is 8 bits).
const maxBinaryEvents = 256

// maxBinaryWords bounds one event (8-bit command counters).
const maxBinaryWords = 256

// EncodeBinary writes the event programs of spec in the binary container
// format.
func EncodeBinary(w io.Writer, spec *core.Spec) error {
	put := func(v uint32) error { return binary.Write(w, binary.LittleEndian, v) }
	if err := put(binaryMagic); err != nil {
		return err
	}
	if len(spec.Events) > maxBinaryEvents {
		return fmt.Errorf("hpl: %d events exceed format limit %d", len(spec.Events), maxBinaryEvents)
	}
	if err := put(uint32(len(spec.Events))); err != nil {
		return err
	}
	for i, prog := range spec.Events {
		if len(prog) > maxBinaryWords {
			return fmt.Errorf("hpl: event %d has %d words, limit %d", i, len(prog), maxBinaryWords)
		}
		if err := put(uint32(len(prog))); err != nil {
			return err
		}
		for _, cmd := range prog {
			if err := put(uint32(cmd)); err != nil {
				return err
			}
		}
	}
	return nil
}

// DecodeBinaryBytes decodes an in-memory binary container.
func DecodeBinaryBytes(data []byte) ([]core.Program, error) {
	return DecodeBinary(bytes.NewReader(data))
}

// DecodeBinary reads event programs in the binary container format.
func DecodeBinary(r io.Reader) ([]core.Program, error) {
	var get = func() (uint32, error) {
		var v uint32
		err := binary.Read(r, binary.LittleEndian, &v)
		return v, err
	}
	magic, err := get()
	if err != nil {
		return nil, fmt.Errorf("hpl: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("hpl: bad magic %#08x (not a policy binary)", magic)
	}
	count, err := get()
	if err != nil {
		return nil, err
	}
	if count > maxBinaryEvents {
		return nil, fmt.Errorf("hpl: implausible event count %d", count)
	}
	events := make([]core.Program, count)
	for i := range events {
		words, err := get()
		if err != nil {
			return nil, fmt.Errorf("hpl: event %d header: %w", i, err)
		}
		if words > maxBinaryWords {
			return nil, fmt.Errorf("hpl: event %d: implausible length %d", i, words)
		}
		if words == 0 {
			continue
		}
		prog := make(core.Program, words)
		for j := range prog {
			w, err := get()
			if err != nil {
				return nil, fmt.Errorf("hpl: event %d word %d: %w", i, j, err)
			}
			prog[j] = core.Command(w)
		}
		events[i] = prog
	}
	return events, nil
}
