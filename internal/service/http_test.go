package service

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// cutReader yields its data and then err, as a server-side request body
// does when the connection ends before the declared length.
type cutReader struct {
	data string
	err  error
}

func (c *cutReader) Read(p []byte) (int, error) {
	if c.data == "" {
		return 0, c.err
	}
	n := copy(p, c.data)
	c.data = c.data[n:]
	return n, nil
}

// TestReadBodyMatchesReadAll pins readBody's sized read to the plain
// bounded io.ReadAll it replaced: the same bytes and the same error for a
// body of unknown length, one matching its declared length, one at or
// over the size bound, and one that ends short of its declared length.
func TestReadBodyMatchesReadAll(t *testing.T) {
	full := `{"nodes":4,"exec_seconds":3600}`
	big := strings.Repeat("x", maxBodyBytes)
	for _, tt := range []struct {
		name   string
		body   string
		length int64
		err    error // what the body returns after its data
	}{
		{name: "length absent", body: full, length: -1, err: io.EOF},
		{name: "length equals body", body: full, length: int64(len(full)), err: io.EOF},
		{name: "empty", body: "", length: 0, err: io.EOF},
		{name: "at the bound", body: big, length: maxBodyBytes, err: io.EOF},
		{name: "over the bound", body: big + "x", length: maxBodyBytes + 1, err: io.EOF},
		{name: "over the bound, length absent", body: big + "x", length: -1, err: io.EOF},
		{name: "cut short, clean end", body: full[:10], length: int64(len(full)), err: io.EOF},
		{name: "cut short, connection lost", body: full[:10], length: int64(len(full)), err: io.ErrUnexpectedEOF},
		{name: "read error", body: full[:3], length: int64(len(full)), err: errors.New("reset by peer")},
	} {
		t.Run(tt.name, func(t *testing.T) {
			req := httptest.NewRequest("POST", "/v1/quote", nil)
			req.ContentLength = tt.length
			req.Body = io.NopCloser(&cutReader{data: tt.body, err: tt.err})
			// A pooled buffer arrives holding an earlier body.
			got, gotErr := readBody(req, []byte("an earlier body"))

			wantData, wantErr := io.ReadAll(http.MaxBytesReader(nil,
				io.NopCloser(&cutReader{data: tt.body, err: tt.err}), maxBodyBytes))
			if wantErr != nil {
				wantData = nil
			}
			if string(got) != string(wantData) {
				t.Errorf("data = %q (len %d), want %q (len %d)", trim(got), len(got), trim(wantData), len(wantData))
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("error = %v, want one wrapping %v", gotErr, wantErr)
			}
			if wantErr != nil && gotErr.Error() != "reading body: "+wantErr.Error() {
				t.Errorf("error = %q, want %q", gotErr, "reading body: "+wantErr.Error())
			}
		})
	}
}

func trim(b []byte) []byte {
	if len(b) > 40 {
		return b[:40]
	}
	return b
}

// TestTruncatedBodyOverTheWire sends a quote whose body stops short of its
// Content-Length and then half-closes the connection: the handler must
// answer 400 with the body reader's error, as it did before the sized read.
func TestTruncatedBodyOverTheWire(t *testing.T) {
	s := newTestService(t, 4)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/quote HTTP/1.1\r\nHost: qosd\r\n"+
		"Content-Type: application/json\r\nContent-Length: 40\r\n\r\n"+`{"nodes":1`); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "reading body: unexpected EOF") {
		t.Errorf("truncated body: %d %s, want 400 reading body: unexpected EOF", resp.StatusCode, body)
	}
}

// TestTrailingDataIsRejected: a request body must be one JSON value and
// nothing but whitespace after it, also when what follows starts with the
// ] or } that json.Decoder.More does not see as another value.
func TestTrailingDataIsRejected(t *testing.T) {
	h := newTestService(t, 4).Handler()
	for _, tc := range []struct{ path, body string }{
		{"/v1/quote", `{"nodes":1,"exec_seconds":60}`},
		{"/v1/accept", `{"session_id":"s1","offer":1}`},
		{"/v1/advance", `{"by_seconds":60}`},
		{"/v1/faults", `{"node":1}`},
	} {
		for _, tail := range []string{"]", "}garbage", "]]]", "\n}", ` {"again":1}`} {
			rec := callRec(t, h, "POST", tc.path, nil, tc.body+tail)
			want := `{"error":"trailing data after JSON value"}` + "\n"
			if rec.Code != http.StatusBadRequest || rec.Body.String() != want {
				t.Errorf("POST %s %q: %d %q, want 400 %q", tc.path, tc.body+tail, rec.Code, rec.Body, want)
			}
		}
		if rec := callRec(t, h, "POST", tc.path, nil, tc.body+" \r\n\t"); rec.Code == http.StatusBadRequest {
			t.Errorf("POST %s with trailing whitespace: 400 %s", tc.path, rec.Body)
		}
	}
}
