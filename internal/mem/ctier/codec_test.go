package ctier

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// roundTrip encodes src and decodes the result, failing on any mismatch.
func roundTrip(t *testing.T, enc *Encoder, src []byte) {
	t.Helper()
	e := enc.Encode(nil, src)
	if len(e) > MaxEncodedLen(len(src)) {
		t.Fatalf("encoded %d bytes into %d > MaxEncodedLen %d", len(src), len(e), MaxEncodedLen(len(src)))
	}
	if n, err := DecodedLen(e); err != nil || n != len(src) {
		t.Fatalf("DecodedLen = %d, %v; want %d", n, err, len(src))
	}
	got, err := Decode(nil, e)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: %d bytes in, %d out", len(src), len(got))
	}
}

func TestCodecRoundTrip(t *testing.T) {
	var enc Encoder
	rng := rand.New(rand.NewSource(42))
	cases := [][]byte{
		nil,
		{},
		{0},
		[]byte("a"),
		[]byte("abcd"),
		[]byte("abcabcabcabcabcabcabcabc"),
		bytes.Repeat([]byte{0}, 4096),
		bytes.Repeat([]byte("0123456789abcdef"), 4096), // 64 KiB periodic
	}
	// Incompressible random blocks of assorted sizes.
	for _, n := range []int{1, 3, 4, 5, 64, 127, 128, 129, 4096, 65536} {
		b := make([]byte, n)
		rng.Read(b)
		cases = append(cases, b)
	}
	// Half-compressible: random prefix, repeated suffix.
	for _, n := range []int{256, 4096} {
		b := make([]byte, n)
		rng.Read(b[:n/2])
		copy(b[n/2:], bytes.Repeat([]byte{0xAB}, n/2))
		cases = append(cases, b)
	}
	for i, src := range cases {
		roundTrip(t, &enc, src)
		_ = i
	}
}

func TestCodecCompresses(t *testing.T) {
	var enc Encoder
	src := bytes.Repeat([]byte("the quick brown fox "), 200)
	e := enc.Encode(nil, src)
	if len(e) >= len(src)/2 {
		t.Fatalf("periodic text should compress well: %d -> %d", len(src), len(e))
	}
	src = make([]byte, 4096)
	rand.New(rand.NewSource(7)).Read(src)
	e = enc.Encode(nil, src)
	if len(e) > MaxEncodedLen(len(src)) {
		t.Fatalf("random block blew past MaxEncodedLen: %d", len(e))
	}
}

func TestCodecScratchReuseNoAlloc(t *testing.T) {
	var enc Encoder
	src := bytes.Repeat([]byte("abcdefgh"), 512)
	scratch := make([]byte, MaxEncodedLen(len(src)))
	dst := make([]byte, len(src))
	e := enc.Encode(scratch, src)
	allocs := testing.AllocsPerRun(100, func() {
		e = enc.Encode(scratch, src)
		out, err := Decode(dst, e)
		if err != nil || len(out) != len(src) {
			t.Fatal("round trip failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state encode+decode allocated %.1f/op, want 0", allocs)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	var enc Encoder
	src := bytes.Repeat([]byte("abcabcabc"), 100)
	e := enc.Encode(nil, src)
	// Truncations.
	for _, n := range []int{0, 1, 2, len(e) / 2, len(e) - 1} {
		if n >= len(e) {
			continue
		}
		if _, err := Decode(nil, e[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
	}
	// A claimed length beyond maxBlock must be rejected up front.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := Decode(nil, huge); err == nil {
		t.Fatal("oversize header decoded cleanly")
	}
	if _, err := DecodedLen(huge); err == nil {
		t.Fatal("oversize header passed DecodedLen")
	}
	// An unknown flag byte.
	bad := append([]byte{4, 9}, 1, 2, 3, 4)
	if _, err := Decode(nil, bad); err == nil {
		t.Fatal("unknown flag decoded cleanly")
	}
}

// FuzzCodec checks both directions: Encode output must round-trip
// byte-identically, and Decode of arbitrary bytes must either succeed or
// return ErrCorrupt — never panic, never read or write out of bounds.
func FuzzCodec(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("hello hello hello"))
	f.Add(bytes.Repeat([]byte{0}, 300))
	f.Add([]byte{4, 1, 0x06, 'a', 'b', 'c', 'd', 0xFF, 1, 0}) // hand-built LZ block
	f.Add([]byte{4, 0, 'a', 'b', 'c', 'd'})                   // raw block
	f.Fuzz(func(t *testing.T, data []byte) {
		var enc Encoder
		e := enc.Encode(nil, data)
		if len(e) > MaxEncodedLen(len(data)) {
			t.Fatalf("encode overflow: %d > %d", len(e), MaxEncodedLen(len(data)))
		}
		got, err := Decode(nil, e)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round trip mismatch")
		}
		// Treat the input as a (likely corrupt) encoded block: must not
		// panic, and on success must honour the claimed length.
		if out, err := Decode(nil, data); err == nil {
			if n, lerr := DecodedLen(data); lerr != nil || len(out) != n {
				t.Fatalf("inconsistent decode: len %d vs header %d (%v)", len(out), n, lerr)
			}
		}
	})
}

// scanShaped returns n bytes of little-endian uint64s holding 16-bit
// values, the shape of the tiered scan workload's objects.
func scanShaped(rng *rand.Rand, n int) []byte {
	b := make([]byte, n+8)
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], uint64(rng.Intn(1<<16)))
	}
	return b[:n]
}

// codecInputs returns the differential battery: every length of interest
// in every data shape the tier and the compressed store see.
func codecInputs() [][]byte {
	rng := rand.New(rand.NewSource(13))
	words := []string{"far ", "memory ", "object ", "guard ", "chunk ", "the ", "a "}
	shapes := []func(n int) []byte{
		func(n int) []byte { b := make([]byte, n); rng.Read(b); return b },
		func(n int) []byte { return scanShaped(rng, n) },
		func(n int) []byte { // low entropy: a four-letter alphabet
			b := make([]byte, n)
			for i := range b {
				b[i] = "ACGT"[rng.Intn(4)]
			}
			return b
		},
		func(n int) []byte { // runs of random length
			b := make([]byte, 0, n)
			for len(b) < n {
				b = append(b, bytes.Repeat([]byte{byte(rng.Intn(256))}, 1+rng.Intn(300))...)
			}
			return b[:n]
		},
		func(n int) []byte { // text
			var b []byte
			for len(b) < n {
				b = append(b, words[rng.Intn(len(words))]...)
			}
			return b[:n]
		},
	}
	var cases [][]byte
	for _, n := range []int{0, 1, 3, 4, 5, 6, 7, 8, 9, 131, 132, 4096, 65536} {
		for _, shape := range shapes {
			cases = append(cases, shape(n))
		}
	}
	return cases
}

// checkDecodeMatches feeds blk to Decode and to the reference decoder and
// fails unless both fail, or both succeed with the same bytes. Decode
// writes into a buffer pre-filled with garbage, so its output cannot
// depend on what the caller's buffer held.
func checkDecodeMatches(t *testing.T, blk []byte) {
	t.Helper()
	want, werr := refDecode(nil, blk)
	dst := bytes.Repeat([]byte{0xA5}, len(want)+16)
	got, err := Decode(dst[:0], blk)
	if (err == nil) != (werr == nil) {
		t.Fatalf("Decode error %v, reference %v (block % x)", err, werr, blk)
	}
	if err != nil {
		if err != ErrCorrupt {
			t.Fatalf("Decode returned %v, want ErrCorrupt", err)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Decode output differs from the reference (block of %d bytes)", len(blk))
	}
}

// TestCodecMatchesReference pins the block format byte for byte: the
// optimized Encoder must produce exactly the reference encoder's bytes —
// fresh and reused, across table epochs and an epoch wrap — and Decode
// must agree with the reference decoder on every encoding and on
// truncated and bit-flipped corruptions of it.
func TestCodecMatchesReference(t *testing.T) {
	var reused Encoder
	var ref refEncoder
	rng := rand.New(rand.NewSource(5))
	for i, src := range codecInputs() {
		want := ref.Encode(nil, src)
		var fresh Encoder
		if got := fresh.Encode(nil, src); !bytes.Equal(got, want) {
			t.Fatalf("case %d (%d bytes): fresh Encoder differs from the reference", i, len(src))
		}
		if got := reused.Encode(nil, src); !bytes.Equal(got, want) {
			t.Fatalf("case %d (%d bytes): reused Encoder differs from the reference", i, len(src))
		}
		checkDecodeMatches(t, want)
		for _, n := range []int{0, 1, len(want) / 2, len(want) - 1} {
			if n >= 0 && n < len(want) {
				checkDecodeMatches(t, want[:n])
			}
		}
		for k := 0; k < 8 && len(want) > 0; k++ {
			bad := append([]byte(nil), want...)
			bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
			checkDecodeMatches(t, bad)
		}
	}
	// An epoch about to overflow clears the table and restarts.
	reused.base = math.MaxInt32 - 100
	src := scanShaped(rng, 4096)
	if got, want := reused.Encode(nil, src), ref.Encode(nil, src); !bytes.Equal(got, want) {
		t.Fatal("Encoder differs from the reference across an epoch wrap")
	}
	if reused.base != 1+4096 {
		t.Fatalf("epoch after wrap = %d, want %d", reused.base, 1+4096)
	}
}

// FuzzCodecMatchesReference extends TestCodecMatchesReference to arbitrary
// inputs: Encode (after a call on a suffix, so stale table entries are in
// play) must match the reference bytes, and Decode of the input taken as
// an encoded block must match the reference decoder's verdict and bytes.
func FuzzCodecMatchesReference(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("hello hello hello hello"))
	f.Add(scanShaped(rand.New(rand.NewSource(1)), 256))
	f.Add([]byte{4, 1, 0x06, 'a', 'b', 'c', 'd', 0xFF, 1, 0})
	f.Add([]byte{17, 1, 0x0E, 1, 2, 3, 4, 5, 6, 7, 8, 0x0B, 8, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var enc Encoder
		var ref refEncoder
		enc.Encode(nil, data[len(data)/2:])
		if got, want := enc.Encode(nil, data), ref.Encode(nil, data); !bytes.Equal(got, want) {
			t.Fatalf("Encode differs from the reference:\n got % x\nwant % x", got, want)
		}
		checkDecodeMatches(t, data)
	})
}

func BenchmarkCodecEncode4K(b *testing.B) {
	var enc Encoder
	src := scanShaped(rand.New(rand.NewSource(1)), 4096)
	dst := make([]byte, MaxEncodedLen(len(src)))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc.Encode(dst, src)
	}
}

func BenchmarkCodecDecode4K(b *testing.B) {
	var enc Encoder
	src := scanShaped(rand.New(rand.NewSource(1)), 4096)
	blk := enc.Encode(nil, src)
	dst := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(dst, blk); err != nil {
			b.Fatal(err)
		}
	}
}
