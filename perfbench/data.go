package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand/v2"

	"gridftp.dev/instant/internal/dsi"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// digest identifies a payload: its length and CRC-32C. Taken at set-up
// from the generator's bytes, it lets every op be verified later without
// keeping a second copy of the data.
type digest struct {
	size int64
	sum  uint32
}

func digestOf(b []byte) digest {
	return digest{size: int64(len(b)), sum: crc32.Checksum(b, castagnoli)}
}

// payload returns size bytes of seeded pseudo-random content; the same
// (seed, id) always yields the same bytes.
func payload(seed, id uint64, size int) []byte {
	b := make([]byte, size)
	x := seed*0x9E3779B97F4A7C15 ^ (id+1)*0xBF58476D1CE4E5B9
	if x == 0 {
		x = 1
	}
	var w [8]byte
	for off := 0; off < size; off += 8 {
		// xorshift64*: cheap enough that seeding storage stays a small
		// part of set-up.
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		binary.LittleEndian.PutUint64(w[:], x*0x2545F4914F6CDD1D)
		copy(b[off:], w[:])
	}
	return b
}

// logUniformSizes returns n sizes in [lo, hi] whose logarithms are spread
// uniformly, the usual shape of file-size mixes. The draw is stratified
// (one size per 1/n of the log range, jittered and shuffled by r), so
// every seed gets the same mix in a different order and with different
// content: a metric's spread across seeds measures the system, not the
// luck of the draw.
func logUniformSizes(r *rand.Rand, n, lo, hi int) []int {
	l0, l1 := math.Log(float64(lo)), math.Log(float64(hi))
	sizes := make([]int, n)
	for k := range sizes {
		u := (float64(k) + r.Float64()) / float64(n)
		sizes[k] = min(max(int(math.Exp(l0+u*(l1-l0))), lo), hi)
	}
	r.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	return sizes
}

// verifyFile checks f against want, reading through scratch so that the
// check allocates nothing.
func verifyFile(f dsi.File, want digest, scratch []byte) error {
	size, err := f.Size()
	if err != nil {
		return err
	}
	if size != want.size {
		return fmt.Errorf("size %d, want %d", size, want.size)
	}
	var sum uint32
	for off := int64(0); off < size; {
		chunk := scratch[:min(int64(len(scratch)), size-off)]
		n, err := f.ReadAt(chunk, off)
		if n < len(chunk) {
			if err == nil || errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("read at %d: %w", off, err)
		}
		sum = crc32.Update(sum, castagnoli, chunk)
		off += int64(n)
	}
	if sum != want.sum {
		return fmt.Errorf("content mismatch (crc32c %08x, want %08x)", sum, want.sum)
	}
	return nil
}
