package fabric

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"trackfm/internal/remote"
)

// helloFrame is the 13-byte hello that opens every connection.
func helloFrame() []byte {
	h := make([]byte, 13)
	h[0] = opHello
	binary.BigEndian.PutUint64(h[1:9], helloMagic)
	binary.BigEndian.PutUint32(h[9:13], protoVersion)
	return h
}

// reqHeader is a 21-byte request header: op(1) key(8) length(4)
// deadlineNs(8).
func reqHeader(op byte, key uint64, length uint32, deadlineNs uint64) []byte {
	h := make([]byte, 21)
	h[0] = op
	binary.BigEndian.PutUint64(h[1:9], key)
	binary.BigEndian.PutUint32(h[9:13], length)
	binary.BigEndian.PutUint64(h[13:21], deadlineNs)
	return h
}

// pushFrame is a complete push request: header, payload, CRC trailer.
func pushFrame(key uint64, payload []byte, deadlineNs uint64) []byte {
	f := reqHeader(opPush, key, uint32(len(payload)), deadlineNs)
	f = append(f, payload...)
	return binary.BigEndian.AppendUint32(f, payloadCRC(payload))
}

// dialHello opens a raw connection to addr and completes the hello, for
// tests that hand-craft request frames. Reads on it time out after 2s.
func dialHello(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := conn.Write(helloFrame()); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp := make([]byte, 11)
	if _, err := io.ReadFull(conn, resp); err != nil {
		t.Fatalf("read hello response: %v", err)
	}
	if resp[0] != ackHello || resp[1] != protoVersion {
		t.Fatalf("hello answered %#x version %d", resp[0], resp[1])
	}
	return conn
}

// FuzzWireProtocol throws arbitrary bytes at Server.handle, the one frame
// decoder, exactly as they arrive on the socket: a hello or anything else
// as the first frame, then whatever follows. Its seeds are frames without
// a hello, every one of which must be refused at the first frame.
// FuzzCRCFrame and FuzzDeadlineFrame drive the same decoder past a valid
// hello. All three share fuzzHandle and its invariants.
func FuzzWireProtocol(f *testing.F) {
	// A well-formed old-style 13-byte push, fetch, and delete, an oversize
	// length field, an unknown opcode, a truncated header, and two frames
	// back to back.
	push := make([]byte, 13+4)
	push[0] = opPush
	binary.BigEndian.PutUint64(push[1:9], 42)
	binary.BigEndian.PutUint32(push[9:13], 4)
	copy(push[13:], []byte{1, 2, 3, 4})
	f.Add(push)
	fetch := make([]byte, 13)
	fetch[0] = opFetch
	binary.BigEndian.PutUint64(fetch[1:9], 42)
	binary.BigEndian.PutUint32(fetch[9:13], 4)
	f.Add(fetch)
	del := make([]byte, 13)
	del[0] = opDelete
	f.Add(del)
	oversize := make([]byte, 13)
	oversize[0] = opPush
	binary.BigEndian.PutUint32(oversize[9:13], 0xFFFFFFFF)
	f.Add(oversize)
	f.Add([]byte{0xFF, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{opPush, 0, 0})
	f.Add(append(append([]byte{}, fetch...), del...))

	f.Fuzz(fuzzHandle)
}

// FuzzCRCFrame fuzzes the CRC trailers: every input follows a valid hello,
// so the fuzzer's bytes reach the frame decoder as 21-byte headers with
// payloads and trailers — valid, corrupt, truncated, or trailed by another
// hello.
func FuzzCRCFrame(f *testing.F) {
	// A push with a correct CRC trailer, the same push with the trailer
	// flipped (must be rejected) and truncated, a fetch of the pushed key,
	// a second hello mid-stream, and a bad-magic hello.
	payload := []byte{1, 2, 3, 4}
	goodPush := pushFrame(42, payload, 0)
	f.Add(goodPush)
	badPush := append([]byte{}, goodPush...)
	badPush[len(badPush)-1] ^= 0xFF
	f.Add(badPush)
	f.Add(goodPush[:len(goodPush)-2])
	f.Add(reqHeader(opFetch, 42, uint32(len(payload)), 0))
	f.Add(append(append([]byte{}, goodPush...), helloFrame()...))
	badHello := helloFrame()
	binary.BigEndian.PutUint64(badHello[1:9], 0xDEADBEEF)
	f.Add(badHello)

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzHandle(t, append(helloFrame(), data...))
	})
}

// FuzzDeadlineFrame fuzzes the deadline field: every input follows a valid
// hello, so the fuzzer's bytes reach the frame decoder as 21-byte headers
// whose last 8 bytes are the deadline, which must never let an unverified
// payload through or hang the server when truncated.
func FuzzDeadlineFrame(f *testing.F) {
	// A deadline-free push, one carrying a large deadline, a corrupt
	// trailer (rejected whatever the deadline says), a fetch with a
	// deadline, a header truncated mid-deadline, an oversize length next
	// to a huge deadline, and a hello mid-stream.
	payload := []byte{1, 2, 3, 4}
	goodPush := pushFrame(42, payload, 0)
	f.Add(goodPush)
	f.Add(pushFrame(42, payload, uint64(time.Hour.Nanoseconds())))
	badPush := append([]byte{}, goodPush...)
	badPush[len(badPush)-1] ^= 0xFF
	f.Add(badPush)
	fetch := reqHeader(opFetch, 42, uint32(len(payload)), 12345)
	f.Add(fetch)
	f.Add(fetch[:17])
	f.Add(reqHeader(opPush, 7, 0xFFFFFFFF, ^uint64(0)))
	f.Add(append(append([]byte{}, fetch...), helloFrame()...))

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzHandle(t, append(helloFrame(), data...))
	})
}

// fuzzHandle feeds data to Server.handle over a pipe. The server must
// never panic, never hang, never allocate beyond the protocol limit
// regardless of the advertised length field, and never let a frame whose
// trailer does not verify reach the store.
func fuzzHandle(t *testing.T, data []byte) {
	store := remote.NewStore()
	s := NewServer(store)
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		s.handle(server)
		close(done)
	}()
	// Drain whatever the server answers so its writes never block on the
	// unbuffered pipe, and feed the input from a goroutine: if the server
	// tears the connection down mid-input (bad opcode, missing hello,
	// oversize push) the blocked write errors out instead of stalling
	// this exec.
	go io.Copy(io.Discard, client)
	client.SetDeadline(time.Now().Add(2 * time.Second))
	go func() {
		client.Write(data)
		client.Close()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("server.handle did not return after client close")
	}
	// Whatever the fuzzer managed to store must verify: the store
	// recomputes every blob's checksum at Put, so an accepted frame can
	// never read back as ErrChecksum. (ErrSizeMismatch is fine — the
	// fuzzer may legitimately store a shorter blob under key 42.)
	buf := make([]byte, 4)
	if _, err := store.Get(42, buf); errors.Is(err, remote.ErrChecksum) {
		t.Fatalf("stored blob failed integrity on read-back: %v", err)
	}
}
