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

// Failure injection: the TCP transport must surface a typed error rather
// than corrupt data or hang when the remote node misbehaves or dies.

func TestFetchAfterServerClose(t *testing.T) {
	store := remote.NewStore()
	srv := NewServer(store)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	tc, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer tc.Close()
	mustPush(t, tc, 1, []byte{1, 2, 3, 4})

	srv.Close()

	dst := []byte{9, 9, 9, 9}
	if found, err := tc.TryFetchUntil(1, dst, Deadline{}); !errors.Is(err, ErrRemoteUnavailable) || found {
		t.Fatalf("fetch after server close = %v, %v; want false, ErrRemoteUnavailable", found, err)
	}
	// Push and Delete after close must fail, not panic or hang.
	if err := tc.TryPushUntil(2, []byte{5}, Deadline{}); !errors.Is(err, ErrRemoteUnavailable) {
		t.Fatalf("push after server close = %v, want ErrRemoteUnavailable", err)
	}
	if err := tc.TryDeleteUntil(1, Deadline{}); !errors.Is(err, ErrRemoteUnavailable) {
		t.Fatalf("delete after server close = %v, want ErrRemoteUnavailable", err)
	}
}

func TestDialFailure(t *testing.T) {
	// A port nobody listens on: grab one and close it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := Dial(addr); err == nil {
		t.Fatalf("Dial to closed port succeeded")
	}
}

func TestServerSurvivesGarbageClient(t *testing.T) {
	store := remote.NewStore()
	srv := NewServer(store)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv.Close()

	// A client that speaks garbage: unknown opcode.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	conn.Write([]byte{0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	conn.Close()

	// A client advertising an absurd payload length.
	conn, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	conn.Write([]byte{2, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF})
	conn.Close()

	// A half-written request (header only, missing payload).
	conn, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	conn.Write([]byte{2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 8})
	conn.Close()

	// The server must still serve well-formed clients.
	tc, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial after garbage clients: %v", err)
	}
	defer tc.Close()
	mustPush(t, tc, 7, []byte{42})
	dst := make([]byte, 1)
	if !mustFetch(t, tc, 7, dst) || dst[0] != 42 {
		t.Fatalf("server corrupted by garbage clients")
	}
}

func TestTransportReconnectSemantics(t *testing.T) {
	// Data pushed before a client disconnect must be visible to a new
	// connection: the store outlives connections.
	store := remote.NewStore()
	srv := NewServer(store)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv.Close()

	tr1, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	mustPush(t, tr1, 100, []byte{7, 7})
	tr1.Close()

	tr2, err := Dial(addr)
	if err != nil {
		t.Fatalf("re-Dial: %v", err)
	}
	defer tr2.Close()
	dst := make([]byte, 2)
	if !mustFetch(t, tr2, 100, dst) || dst[0] != 7 {
		t.Fatalf("data lost across reconnect")
	}
}

// TestNoHelloConnectionRefused pins the one-protocol rule: a connection
// whose first frame is not a valid hello — the old raw 13-byte fetch and
// push that skip the hello, or a hello carrying another version — is
// counted as a bad frame and closed before anything reaches the store or
// admission control.
func TestNoHelloConnectionRefused(t *testing.T) {
	fetch := make([]byte, 13)
	fetch[0] = opFetch
	binary.BigEndian.PutUint64(fetch[1:9], 1)
	binary.BigEndian.PutUint32(fetch[9:13], 4)
	push := make([]byte, 13, 13+4)
	push[0] = opPush
	binary.BigEndian.PutUint64(push[1:9], 1)
	binary.BigEndian.PutUint32(push[9:13], 4)
	push = append(push, 1, 2, 3, 4)
	wrongVersion := helloFrame()
	binary.BigEndian.PutUint32(wrongVersion[9:13], protoVersion-1)

	for _, tc := range []struct {
		name   string
		frames [][]byte
	}{
		{"raw-fetch-and-push", [][]byte{fetch, push}},
		{"wrong-version-hello", [][]byte{wrongVersion, pushFrame(1, []byte{1, 2, 3, 4}, 0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := remote.NewStore()
			srv := NewServer(store)
			adm := srv.EnableAdmission(AdmissionConfig{MaxQueue: 64})
			addr, err := srv.ListenAndServe("127.0.0.1:0")
			if err != nil {
				t.Fatalf("ListenAndServe: %v", err)
			}
			defer srv.Close()

			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			for _, fr := range tc.frames {
				conn.Write(fr) // may fail once the server hangs up
			}
			// The server closes without answering: the read ends in EOF
			// (or a reset, when the close found unread input), never in
			// data or a timeout.
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			got, err := io.ReadAll(conn)
			var ne net.Error
			if len(got) != 0 || (errors.As(err, &ne) && ne.Timeout()) {
				t.Fatalf("server answered %x (err %v); want the connection closed unanswered", got, err)
			}
			waitFor(t, "bad frame counted", func() bool { return srv.Stats().BadFrames() == 1 })
			if store.Len() != 0 {
				t.Fatalf("store holds %d blobs; nothing may pass a missing hello", store.Len())
			}
			if st := adm.Stats(); st.Admitted() != 0 || st.Shed() != 0 {
				t.Fatalf("admission saw frames (admitted=%d shed=%d); want none", st.Admitted(), st.Shed())
			}
			if got := srv.Stats().Frames(); got != 0 {
				t.Fatalf("Frames = %d, want 0", got)
			}
		})
	}
}
