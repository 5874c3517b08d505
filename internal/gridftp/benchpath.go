package gridftp

import (
	"fmt"
	"io"
	"net"
)

// This file is the benchmark harness for the MODE E data fast path
// (BenchmarkE19DataPath): it exposes the sender/receiver block loops in
// both their historical form (a fresh payload buffer and two writes per
// block) and the current form (pooled lease, batched/vectored blockWriter,
// pooled receive), so the before/after of the fast-path work stays
// measurable after the legacy path is gone from the production DTP.

// SendBenchBlocks streams totalBytes of MODE E data blocks over conn,
// followed by EOD and an EOF announcing one stream, then half-closes.
// fast selects the pooled+vectored writer; legacy reproduces the
// pre-fast-path behavior (per-block allocation, header and payload as
// separate writes).
func SendBenchBlocks(conn net.Conn, totalBytes int64, blockSize int, fast bool) error {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	defer closeWrite(conn)
	var off int64
	if fast {
		pool := poolFor(blockSize)
		buf := pool.Lease()
		defer pool.Release(buf)
		bw := newBlockWriter(conn, blockSize)
		defer bw.release()
		if err := bw.writeBlock(DescEOF, 0, 1, nil); err != nil {
			return err
		}
		for off < totalBytes {
			n := int64(blockSize)
			if rem := totalBytes - off; rem < n {
				n = rem
			}
			if err := bw.writeBlock(DescRestartable, uint64(n), uint64(off), buf[:n]); err != nil {
				return err
			}
			off += n
		}
		if err := bw.writeBlock(DescEOD, 0, 0, nil); err != nil {
			return err
		}
		return bw.flush()
	}
	if err := WriteBlock(conn, &Block{Desc: DescEOF, Offset: 1}); err != nil {
		return err
	}
	for off < totalBytes {
		n := int64(blockSize)
		if rem := totalBytes - off; rem < n {
			n = rem
		}
		payload := make([]byte, n) // the historical per-block allocation
		if err := WriteBlock(conn, &Block{Desc: DescRestartable, Count: uint64(n), Offset: uint64(off), Data: payload}); err != nil {
			return err
		}
		off += n
	}
	return WriteBlock(conn, &Block{Desc: DescEOD})
}

// RecvBenchBlocks drains one SendBenchBlocks stream and returns the
// payload byte count. fast reuses one pooled buffer across blocks; legacy
// reads every block into a fresh allocation, as the receive loop did
// before the fast path.
func RecvBenchBlocks(conn net.Conn, blockSize int, fast bool) (int64, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	limit := blockLenLimit(blockSize)
	var buf []byte
	var pool *BufferPool
	if fast {
		pool = poolFor(blockSize)
		buf = pool.Lease()
		defer func() { pool.Release(buf) }()
	}
	var total int64
	for {
		var b Block
		var err error
		if fast {
			b, buf, err = ReadBlock(conn, buf, limit)
		} else {
			b, _, err = ReadBlock(conn, nil, limit)
		}
		if err != nil {
			if err == io.EOF {
				return total, nil
			}
			return total, fmt.Errorf("gridftp: bench recv: %w", err)
		}
		total += int64(b.Count)
		if b.EOD() {
			return total, nil
		}
	}
}
