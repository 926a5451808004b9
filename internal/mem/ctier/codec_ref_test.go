package ctier

import "encoding/binary"

// The reference codec: the straightforward byte-at-a-time encoder and
// decoder the block format was defined with, kept verbatim so the
// optimized Encoder and Decode can be checked against it. The optimized
// pair must return exactly the reference's bytes from Encode, and from
// Decode the reference's bytes or ErrCorrupt exactly when the reference
// fails (TestCodecMatchesReference, FuzzCodecMatchesReference).

// refEncoder is the reference match finder: it clears its table on every
// call and extends matches one byte at a time.
type refEncoder struct {
	table [tableSize]int32
}

func (e *refEncoder) Encode(dst, src []byte) []byte {
	need := MaxEncodedLen(len(src))
	if cap(dst) < need {
		dst = make([]byte, need)
	}
	dst = dst[:need]
	n := binary.PutUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return dst[:n]
	}
	w := e.compress(dst[n+1:n+1+len(src)-1], src)
	if w < 0 {
		dst[n] = flagRaw
		copy(dst[n+1:], src)
		return dst[:n+1+len(src)]
	}
	dst[n] = flagLZ
	return dst[:n+1+w]
}

func (e *refEncoder) compress(dst, src []byte) int {
	for i := range e.table {
		e.table[i] = -1
	}
	d, litStart, i := 0, 0, 0
	emitLiterals := func(end int) bool {
		for litStart < end {
			run := end - litStart
			if run > maxLiteral {
				run = maxLiteral
			}
			if d+1+run > len(dst) {
				return false
			}
			dst[d] = byte((run - 1) << 1)
			d++
			copy(dst[d:], src[litStart:litStart+run])
			d += run
			litStart += run
		}
		return true
	}
	for i+minCopy <= len(src) {
		h := hash4(load32(src, i))
		cand := int(e.table[h])
		e.table[h] = int32(i)
		if cand < 0 || i-cand > maxOffset || load32(src, cand) != load32(src, i) {
			i++
			continue
		}
		length := minCopy
		for length < maxCopy && i+length < len(src) && src[cand+length] == src[i+length] {
			length++
		}
		if !emitLiterals(i) || d+3 > len(dst) {
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
	if !emitLiterals(len(src)) {
		return -1
	}
	return d
}

// refDecode is the reference decoder: every literal goes through copy and
// every match is copied one byte at a time.
func refDecode(dst, src []byte) ([]byte, error) {
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
				copy(dst[d:], src[s:s+run])
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
			for k := 0; k < length; k++ {
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
