package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"unicode/utf8"
)

// decodeQuoteRequest strictly parses and validates a quote request body,
// as handleQuote does.
func decodeQuoteRequest(data []byte) (quoteRequest, error) {
	q, err := decodeStrict[quoteRequest](data)
	if err != nil {
		return quoteRequest{}, err
	}
	if err := q.validate(); err != nil {
		return quoteRequest{}, err
	}
	return q, nil
}

// FuzzDecodeQuoteRequest hammers the first parser qosd exposes to the
// network. The decoder must never panic, and every request it does accept
// must satisfy the documented invariants — the handler builds jobs and
// reservation walks straight from these fields.
func FuzzDecodeQuoteRequest(f *testing.F) {
	f.Add([]byte(`{"nodes": 4, "exec_seconds": 3600}`))
	f.Add([]byte(`{"nodes": 1, "exec_seconds": 1, "max_quotes": 3}`))
	f.Add([]byte(`{"nodes": 128, "exec_seconds": 86400, "max_quotes": 32}`))
	f.Add([]byte(`{"nodes": 0, "exec_seconds": 0}`))
	f.Add([]byte(`{"nodes": -1, "exec_seconds": -9223372036854775808}`))
	f.Add([]byte(`{"nodes": 1e9, "exec_seconds": 1e300}`))
	f.Add([]byte(`{"nodes": 1, "exec_seconds": 60, "bogus": true}`))
	f.Add([]byte(`{"nodes": 1, "exec_seconds": 60} {"again": 1}`))
	f.Add([]byte(`{"nodes":1,"exec_seconds":60}]`))
	f.Add([]byte(`{"nodes":1,"exec_seconds":60}}garbage`))
	f.Add([]byte(`{"session_id":"s1","offer":1}]]]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte("{\"nodes\":\x031,\"exec_seconds\":60}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := decodeQuoteRequest(data)
		if err != nil {
			return
		}
		if q.Nodes <= 0 || q.ExecSeconds <= 0 || q.MaxQuotes < 0 {
			t.Fatalf("accepted out-of-range request %+v from %q", q, data)
		}
		if !utf8.Valid(data) {
			// encoding/json replaces invalid UTF-8 rather than erroring;
			// the decoded ints are still range-checked, so this is fine —
			// the assertion documents that acceptance is intentional.
			t.Logf("accepted non-UTF-8 input %q", data)
		}
	})
}

// referenceDecode is the strict decode by encoding/json alone, into a
// zero value: unknown fields are errors, and so is anything but
// whitespace after the value.
func referenceDecode[T wireRequest](data []byte) (T, error) {
	var v T
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return v, err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return v, errors.New("trailing data after JSON value")
	}
	return v, nil
}

// sameStrictDecode fails t unless decodeStrict and referenceDecode agree
// on data: the same error text (or both none) and an equal value.
func sameStrictDecode[T wireRequest](t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := referenceDecode[T](data)
	got, err := decodeStrict[T](data)
	if errText(err) != errText(wantErr) {
		t.Fatalf("%T from %q: error %q, reference %q", got, data, errText(err), errText(wantErr))
	}
	if got != want {
		t.Fatalf("%T from %q: decoded %+v, reference %+v", got, data, got, want)
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// strictDecodeSeeds are the bodies FuzzStrictDecodeMatchesReference starts
// from: canonical ones the fast path takes, and every encoding/json quirk
// it must leave to the reference decoder.
var strictDecodeSeeds = []string{
	// canonical
	`{"nodes":4,"exec_seconds":3600}`,
	`{"nodes": 1, "exec_seconds": 1, "max_quotes": 3}`,
	`{"session_id":"q-1","offer":1}`,
	`{"session_id":"q-ü","offer":2}`,
	`{"by_seconds":3600}`,
	`{"to":86400}`,
	`{"node":3,"after_seconds":120}`,
	`{"node":0,"at":720}`,
	" \t\r\n{ \"nodes\" : 4 ,\n\"exec_seconds\" :\t60 } \r\n",
	`{}`,
	`{"nodes":-9223372036854775808,"exec_seconds":9223372036854775807}`,
	// case-folded, long-s and escaped keys; escaped strings
	`{"NODES":4,"Exec_Seconds":60}`,
	`{"nodeſ":4,"exec_ſeconds":60}`,
	`{"sesſion_id":"q-1","offer":1}`,
	`{"node\u0073":4,"exec_seconds":60}`,
	`{"session_id":"q\u002d1","offer":1}`,
	`{"session_id":"q\"1","offer":1}`,
	`{"session_id":"tab	inside","offer":1}`,
	// duplicates, null, floats, exponents, leading zeros, -0, overflow
	`{"nodes":4,"nodes":5,"exec_seconds":60}`,
	`{"offer":1,"offer":2,"session_id":"a","session_id":"b"}`,
	`{"nodes":null,"exec_seconds":60}`,
	`null`,
	`{"nodes":4.0,"exec_seconds":60}`,
	`{"nodes":4.5,"exec_seconds":60}`,
	`{"nodes":1e9,"exec_seconds":60}`,
	`{"by_seconds":1E2}`,
	`{"nodes":04,"exec_seconds":60}`,
	`{"nodes":-0,"exec_seconds":-0}`,
	`{"nodes":-,"exec_seconds":60}`,
	`{"to":9223372036854775808}`,
	`{"to":-9223372036854775809}`,
	`{"to":99999999999999999999}`,
	`{"nodes":"4","exec_seconds":60}`,
	`{"session_id":1,"offer":"1"}`,
	`{"nodes":true,"exec_seconds":60}`,
	// unknown keys with nested values, trailing commas, whitespace
	`{"nodes":4,"exec_seconds":60,"extra":{"a":[1,{"b":null}]}}`,
	`{"nodes":4,"exec_seconds":60,}`,
	`{,}`,
	`{"":1}`,
	`  {"by_seconds":60}  `,
	`{"by_seconds":60}` + "\n\n",
	"\v{\"by_seconds\":60}",
	// non-UTF-8 and trailing data
	"{\"session_id\":\"q-\xff\",\"offer\":1}",
	"{\"session_id\":\"\xed\xa0\x80\",\"offer\":1}",
	"{\"nodes\xff\":4}",
	"{\"nodes\":\x031,\"exec_seconds\":60}",
	`{"nodes":1,"exec_seconds":60}]`,
	`{"nodes":1,"exec_seconds":60}}garbage`,
	`{"session_id":"s1","offer":1}]]]`,
	`{"nodes":1,"exec_seconds":60} {"again":1}`,
	`{"by_seconds":60}x`,
	`[]`,
	`4`,
	``,
	`{`,
	`{"nodes"`,
	`{"nodes":`,
	`{"nodes":4`,
	`{"session_id":"q-1`,
}

// FuzzStrictDecodeMatchesReference drives decodeStrict against
// encoding/json's strict decode for every request type: whichever path
// decodeStrict takes, the error text and the decoded value must be the
// reference's.
func FuzzStrictDecodeMatchesReference(f *testing.F) {
	for _, seed := range strictDecodeSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sameStrictDecode[quoteRequest](t, data)
		sameStrictDecode[acceptRequest](t, data)
		sameStrictDecode[advanceRequest](t, data)
		sameStrictDecode[faultRequest](t, data)
	})
}

// TestStrictDecodeFastPath checks that the fast path, not the reference
// decoder, takes the canonical bodies, and only those: a differential
// test over a fast path that never runs would prove nothing.
func TestStrictDecodeFastPath(t *testing.T) {
	for _, tc := range []struct {
		body string
		fast bool
	}{
		{`{"nodes":4,"exec_seconds":3600}`, true},
		{" {\"nodes\" : 4 ,\n\"max_quotes\":2,\"exec_seconds\":60}\r\n", true},
		{`{}`, true},
		{`{"nodes":-0,"exec_seconds":9223372036854775807}`, true},
		{`{"NODES":4}`, false},
		{`{"node\u0073":4}`, false},
		{`{"nodes":4,"nodes":4}`, false},
		{`{"nodes":null}`, false},
		{`{"nodes":4.0}`, false},
		{`{"nodes":1e9}`, false},
		{`{"nodes":04}`, false},
		{`{"exec_seconds":9223372036854775808}`, false},
		{`{"nodes":"4"}`, false},
		{`{"bogus":1}`, false},
		{`{"nodes":4}]`, false},
		{`{"nodes":4,}`, false},
		{"{\"nodes\":\x034}", false},
	} {
		var q quoteRequest
		if got := decodeFast([]byte(tc.body), &q); got != tc.fast {
			t.Errorf("quote %q: fast path %v, want %v", tc.body, got, tc.fast)
		}
	}
	for _, tc := range []struct {
		body string
		fast bool
	}{
		{`{"session_id":"q-1","offer":1}`, true},
		{`{"session_id":"q-ü","offer":1}`, true},
		{`{"session_id":"q\u002d1","offer":1}`, false},
		{"{\"session_id\":\"q-\xff\",\"offer\":1}", false},
		{"{\"session_id\":\"q-\t\",\"offer\":1}", false},
	} {
		var a acceptRequest
		if got := decodeFast([]byte(tc.body), &a); got != tc.fast {
			t.Errorf("accept %q: fast path %v, want %v", tc.body, got, tc.fast)
		}
	}
}
