// Package ctier implements the compressed-RAM middle tier between the
// resident arena and the remote store: a byte-budgeted cache of
// evacuated-but-warm objects, compressed with an in-repo byte-oriented
// LZ codec, keyed by ObjectID, with an S3-FIFO admission/eviction policy
// (and a clock-style one for the ablation).
//
// The codec is deliberately snappy-shaped but self-contained — no
// dependencies beyond the standard library. An encoded block is:
//
//	uvarint(decodedLen)
//	flag byte: 0 = raw (decodedLen verbatim bytes follow)
//	           1 = LZ stream
//
// The LZ stream is a sequence of ops, each introduced by a control byte c:
//
//	c&1 == 0: literal run of (c>>1)+1 bytes (1..128), bytes follow
//	c&1 == 1: copy of (c>>1)+4 bytes (4..131) from a 2-byte little-endian
//	          back-offset (1..65535) into the already-decoded output
//
// Encode always falls back to the raw flag when matching does not shrink
// the input, so MaxEncodedLen is a tight small constant over the input
// size and decode of an Encode output can never fail. Decode of arbitrary
// bytes is fully bounds-checked and returns ErrCorrupt — never panics —
// which FuzzCodec enforces.
//
// The format is pinned byte for byte, not just by round trip: Encode must
// return exactly what the reference encoder in codec_ref_test.go returns,
// and Decode must agree with the reference decoder on every input, so the
// tier's byte accounting never depends on how the codec is tuned.
package ctier

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
)

const (
	flagRaw = 0
	flagLZ  = 1

	minCopy    = 4
	maxCopy    = 131
	maxLiteral = 128
	maxOffset  = 1<<16 - 1

	tableBits = 13
	tableSize = 1 << tableBits

	// maxBlock bounds the decoded length a block may claim, so a
	// corrupt (or fuzzed) header cannot demand an enormous allocation.
	maxBlock = 1 << 26
)

// ErrCorrupt is returned by Decode for any malformed encoded block.
var ErrCorrupt = errors.New("ctier: corrupt encoded block")

// MaxEncodedLen returns the maximum encoded size of an n-byte input:
// the length header, the flag byte, and the raw fallback payload.
func MaxEncodedLen(n int) int {
	var hdr [binary.MaxVarintLen64]byte
	return binary.PutUvarint(hdr[:], uint64(n)) + 1 + n
}

// DecodedLen returns the decoded length an encoded block claims.
func DecodedLen(src []byte) (int, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 || v > maxBlock {
		return 0, ErrCorrupt
	}
	return int(v), nil
}

// An Encoder holds the match-finding hash table so steady-state encoding
// is allocation-free. Encoders are not safe for concurrent use; the tier
// owns one and calls it under its lock.
//
// The table is never cleared between calls. Each call claims the position
// range [base, base+len(src)) and stores position+base, so an entry below
// the current base was left by an earlier call and reads as empty — the
// same verdict a freshly cleared table gives. The table is cleared only on
// first use and when base would overflow int32.
type Encoder struct {
	table [tableSize]int32
	base  int32
}

func hash4(v uint32) uint32 {
	// Multiplicative hash over the 4-byte window (Knuth constant).
	return (v * 2654435761) >> (32 - tableBits)
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

func load64(b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(b[i:])
}

func store64(b []byte, i int, v uint64) {
	binary.LittleEndian.PutUint64(b[i:], v)
}

// Encode compresses src into dst (reallocating only if cap(dst) <
// MaxEncodedLen(len(src))) and returns the encoded block. The result is
// never longer than MaxEncodedLen(len(src)); when the LZ stream would not
// beat storing src verbatim the raw flag is used instead.
func (e *Encoder) Encode(dst, src []byte) []byte {
	need := MaxEncodedLen(len(src))
	if cap(dst) < need {
		dst = make([]byte, need)
	}
	dst = dst[:need]
	n := binary.PutUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return dst[:n]
	}
	// Try the LZ stream into the space after the flag byte, capped at
	// one byte less than the raw fallback: if it does not fit there it
	// is not worth keeping.
	w := e.compress(dst[n+1:n+1+len(src)-1], src)
	if w < 0 {
		dst[n] = flagRaw
		copy(dst[n+1:], src)
		return dst[:n+1+len(src)]
	}
	dst[n] = flagLZ
	return dst[:n+1+w]
}

// compress writes the LZ op stream for src into dst and returns the bytes
// written, or -1 if the stream would not fit in dst. Bytes of dst past the
// returned length may be overwritten.
func (e *Encoder) compress(dst, src []byte) int {
	if e.base <= 0 || int64(e.base)+int64(len(src)) > math.MaxInt32 {
		clear(e.table[:])
		e.base = 1
	}
	base := int(e.base)
	e.base += int32(len(src))
	d, litStart, i := 0, 0, 0
	for i+minCopy <= len(src) {
		cur := load32(src, i)
		h := hash4(cur)
		cand := int(e.table[h]) - base
		e.table[h] = int32(i + base)
		if cand < 0 || i-cand > maxOffset || load32(src, cand) != cur {
			i++
			continue
		}
		length := minCopy + matchLen(src, cand+minCopy, i+minCopy, maxCopy-minCopy)
		if lit := i - litStart; lit > 0 && lit <= 8 && d+9 <= len(dst) && litStart+8 <= len(src) {
			// The common short run, inline: emitLiterals' word path.
			dst[d] = byte((lit - 1) << 1)
			store64(dst, d+1, load64(src, litStart))
			d += 1 + lit
		} else if d = emitLiterals(dst, d, src, litStart, i); d < 0 {
			return -1
		}
		if d+3 > len(dst) {
			return -1
		}
		off := i - cand
		dst[d] = byte((length-minCopy)<<1) | 1
		dst[d+1] = byte(off)
		dst[d+2] = byte(off >> 8)
		d += 3
		i += length
		litStart = i
	}
	return emitLiterals(dst, d, src, litStart, len(src))
}

// matchLen reports how many bytes src[a:] and src[b:] (a < b) share, up to
// limit and the end of src, comparing eight bytes at a time.
func matchLen(src []byte, a, b, limit int) int {
	if rest := len(src) - b; rest < limit {
		limit = rest
	}
	n := 0
	for n+8 <= limit {
		if x := load64(src, a+n) ^ load64(src, b+n); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < limit && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// emitLiterals writes src[start:end] to dst at d as literal runs and
// returns the new write offset, or -1 if the runs do not fit. A run of at
// most eight bytes is moved with one 8-byte store when both buffers have
// the room; the bytes it writes past the run are overwritten by the next
// op or lie past the stream's end.
func emitLiterals(dst []byte, d int, src []byte, start, end int) int {
	for start < end {
		run := end - start
		if run > maxLiteral {
			run = maxLiteral
		}
		if d+1+run > len(dst) {
			return -1
		}
		dst[d] = byte((run - 1) << 1)
		d++
		if run <= 8 && d+8 <= len(dst) && start+8 <= len(src) {
			store64(dst, d, load64(src, start))
		} else {
			copy(dst[d:], src[start:start+run])
		}
		d += run
		start += run
	}
	return d
}

// Decode decompresses the encoded block src into dst (reallocating only
// if cap(dst) is smaller than the decoded length) and returns the decoded
// bytes. Any malformed input — truncated stream, out-of-range copy,
// length mismatch — returns ErrCorrupt; Decode never panics.
func Decode(dst, src []byte) ([]byte, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 || v > maxBlock {
		return nil, ErrCorrupt
	}
	rawLen := int(v)
	if cap(dst) < rawLen {
		dst = make([]byte, rawLen)
	}
	dst = dst[:rawLen]
	src = src[n:]
	if rawLen == 0 {
		if len(src) != 0 {
			return nil, ErrCorrupt
		}
		return dst, nil
	}
	if len(src) < 1 {
		return nil, ErrCorrupt
	}
	flag := src[0]
	src = src[1:]
	switch flag {
	case flagRaw:
		if len(src) != rawLen {
			return nil, ErrCorrupt
		}
		copy(dst, src)
		return dst, nil
	case flagLZ:
		d, s := 0, 0
		for s < len(src) {
			c := src[s]
			s++
			if c&1 == 0 {
				run := int(c>>1) + 1
				if s+run > len(src) || d+run > rawLen {
					return nil, ErrCorrupt
				}
				if run <= 8 && s+8 <= len(src) && d+8 <= rawLen {
					// One word move; the bytes past the run are
					// overwritten by the ops that follow.
					store64(dst, d, load64(src, s))
				} else {
					copy(dst[d:], src[s:s+run])
				}
				s += run
				d += run
				continue
			}
			length := int(c>>1) + minCopy
			if s+2 > len(src) {
				return nil, ErrCorrupt
			}
			off := int(src[s]) | int(src[s+1])<<8
			s += 2
			if off == 0 || off > d || d+length > rawLen {
				return nil, ErrCorrupt
			}
			// A copy may overlap its own output (off < length encodes a
			// run), which copy() would break. With off >= 8 each 8-byte
			// step reads only bytes already final, so move words (the
			// last may run past the match; the next op overwrites it);
			// shorter offsets and the block's tail go a byte at a time.
			k := 0
			if off >= 8 {
				for ; k < length && d+k+8 <= rawLen; k += 8 {
					store64(dst, d+k, load64(dst, d-off+k))
				}
			}
			for ; k < length; k++ {
				dst[d+k] = dst[d-off+k]
			}
			d += length
		}
		if d != rawLen {
			return nil, ErrCorrupt
		}
		return dst, nil
	default:
		return nil, ErrCorrupt
	}
}
