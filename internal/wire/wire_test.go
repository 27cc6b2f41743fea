package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/oodb"
	"repro/internal/raceflag"
)

func frame(payload []byte) []byte { return AppendFrame(nil, payload) }

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte{1},
		[]byte("hello"),
		bytes.Repeat([]byte{0xAB}, 4096),
	}
	var stream []byte
	for _, p := range payloads {
		stream = AppendFrame(stream, p)
	}
	// DecodeFrame walks the concatenation.
	rest := stream
	for i, want := range payloads {
		var got []byte
		var err error
		got, rest, err = DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	// ReadFrame consumes the same stream, reusing one buffer.
	r := bytes.NewReader(stream)
	var buf []byte
	for i, want := range payloads {
		var err error
		buf, err = ReadFrame(r, buf)
		if err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("read frame %d: payload mismatch", i)
		}
	}
	if _, err := ReadFrame(r, buf); err != io.EOF {
		t.Fatalf("want io.EOF at clean end, got %v", err)
	}
}

func TestFrameRejectsDamage(t *testing.T) {
	good := frame([]byte("payload"))
	cases := map[string][]byte{
		"empty":            {},
		"short header":     good[:5],
		"truncated body":   good[:len(good)-2],
		"zero length":      frame([]byte{})[:FrameHeader],
		"oversized length": {0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1},
	}
	corrupt := append([]byte(nil), good...)
	corrupt[FrameHeader] ^= 0x40
	cases["corrupt payload"] = corrupt
	flipped := append([]byte(nil), good...)
	flipped[5] ^= 0x01
	cases["corrupt checksum"] = flipped

	for name, b := range cases {
		if _, _, err := DecodeFrame(b); !errors.Is(err, ErrFrame) {
			t.Errorf("DecodeFrame(%s): want ErrFrame, got %v", name, err)
		}
		if len(b) == 0 {
			continue // ReadFrame reports a clean io.EOF on an empty stream
		}
		if _, err := ReadFrame(bytes.NewReader(b), nil); !errors.Is(err, ErrFrame) {
			t.Errorf("ReadFrame(%s): want ErrFrame, got %v", name, err)
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	attrs := map[string][]oodb.Value{
		"name": {oodb.StrV("val-00042")},
		"owns": {oodb.RefV(7), oodb.RefV(19)},
		"age":  {oodb.IntV(-3)},
	}
	cases := []struct {
		name string
		enc  []byte
		want Request
	}{
		{"ping", AppendPing(nil, 1), Request{ID: 1, Op: OpPing}},
		{"query", AppendQuery(nil, 2, oodb.StrV("v"), "Person", true),
			Request{ID: 2, Op: OpQuery, Value: oodb.StrV("v"), Class: []byte("Person"), Hierarchy: true}},
		{"range", AppendQueryRange(nil, 3, oodb.IntV(5), oodb.IntV(9), "Division", false),
			Request{ID: 3, Op: OpQueryRange, Lo: oodb.IntV(5), Hi: oodb.IntV(9), Class: []byte("Division")}},
		{"insert", AppendInsert(nil, 4, "Company", attrs),
			Request{ID: 4, Op: OpInsert, Class: []byte("Company"), Attrs: attrs}},
		{"update", AppendUpdate(nil, 5, 77, attrs),
			Request{ID: 5, Op: OpUpdate, OID: 77, Attrs: attrs}},
		{"delete", AppendDelete(nil, 6, 88), Request{ID: 6, Op: OpDelete, OID: 88}},
	}
	var req Request
	for _, c := range cases {
		if err := DecodeRequest(c.enc, &req); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(req, c.want) {
			t.Fatalf("%s: got %+v, want %+v", c.name, req, c.want)
		}
		if id, ok := PeekID(c.enc); !ok || id != c.want.ID {
			t.Fatalf("%s: PeekID = %d, %v", c.name, id, ok)
		}
	}
}

func TestRequestRejectsDamage(t *testing.T) {
	good := AppendQuery(nil, 9, oodb.StrV("val"), "Person", false)
	var req Request
	if err := DecodeRequest(good[:len(good)-1], &req); err == nil {
		t.Error("truncated query decoded")
	}
	if err := DecodeRequest(append(good, 0), &req); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing bytes: got %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[8] = 0xEE
	if err := DecodeRequest(bad, &req); err == nil {
		t.Error("unknown opcode decoded")
	}
	if err := DecodeRequest(AppendDelete(nil, 1, 2)[:12], &req); err == nil {
		t.Error("short delete decoded")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	var resp Response
	oids := []oodb.OID{3, 9, 27}
	if err := DecodeResponse(AppendOKOIDs(nil, 11, oids), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 11 || resp.Status != StatusOK || !reflect.DeepEqual(resp.OIDs, oids) {
		t.Fatalf("got %+v", resp)
	}
	// Empty result reuses the slice, length zero.
	if err := DecodeResponse(AppendOKOIDs(nil, 12, nil), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 12 || len(resp.OIDs) != 0 {
		t.Fatalf("got %+v", resp)
	}
	if err := DecodeResponse(AppendError(nil, 13, "engine: boom"), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusErr || string(resp.Err) != "engine: boom" {
		t.Fatalf("got %+v", resp)
	}
}

// TestDecodeResponseReusesCapacity: a response decodes its OIDs into the
// backing array resp.OIDs brings when that holds the declared count, with
// no allocation; into exactly one slice of the declared count when it
// does not; and a count the body cannot hold is refused before the slice
// is touched.
func TestDecodeResponseReusesCapacity(t *testing.T) {
	oids := []oodb.OID{4, 8, 15, 16, 23, 42}
	payload := AppendOKOIDs(nil, 7, oids)
	var resp Response
	buf := make([]oodb.OID, 0, 8)
	resp.OIDs = buf
	if err := DecodeResponse(payload, &resp); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(resp.OIDs, oids) || &resp.OIDs[0] != &buf[:1][0] {
		t.Fatalf("decoded %v into a new array, want %v in the one brought", resp.OIDs, oids)
	}
	resp.OIDs = nil
	if err := DecodeResponse(payload, &resp); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(resp.OIDs, oids) || cap(resp.OIDs) != len(oids) {
		t.Fatalf("decoded %v at capacity %d, want %v at capacity %d", resp.OIDs, cap(resp.OIDs), oids, len(oids))
	}
	lying := AppendOKOIDs(nil, 7, oids)
	lying[9+2] = 0x01 // count 65,542 over a six-OID body
	resp.OIDs = nil
	if err := DecodeResponse(lying, &resp); err == nil || resp.OIDs != nil {
		t.Fatalf("lying count: err %v, OIDs of capacity %d; want an error and no slice", err, cap(resp.OIDs))
	}
	if raceflag.Enabled {
		return // allocation counts are perturbed under -race
	}
	if n := testing.AllocsPerRun(100, func() {
		resp.OIDs = buf
		DecodeResponse(payload, &resp) //nolint:errcheck // decoded above
	}); n != 0 {
		t.Errorf("decoding into enough capacity: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		resp.OIDs = nil
		DecodeResponse(payload, &resp) //nolint:errcheck // decoded above
	}); n != 1 {
		t.Errorf("decoding into no capacity: %v allocs, want 1", n)
	}
}

func TestResponseRejectsDamage(t *testing.T) {
	var resp Response
	good := AppendOKOIDs(nil, 1, []oodb.OID{5})
	if err := DecodeResponse(good[:len(good)-3], &resp); err == nil {
		t.Error("truncated oid list decoded")
	}
	// A count claiming more OIDs than the body holds must be rejected
	// before any allocation sized by it.
	lying := AppendOKOIDs(nil, 1, []oodb.OID{5})
	lying[9+3] = 0xFF // count low byte
	if err := DecodeResponse(lying, &resp); err == nil {
		t.Error("lying count decoded")
	}
	bad := append([]byte(nil), good...)
	bad[8] = 7
	if err := DecodeResponse(bad, &resp); err == nil {
		t.Error("unknown status decoded")
	}
	// A count whose 8*n wraps uint32 back to the body length must still
	// be rejected: 0x20000000 OIDs over an empty body made 8*n == 0 under
	// 32-bit arithmetic, and the decode loop then indexed out of range.
	overflow := appendHeader(nil, 1, StatusOK)
	overflow = append(overflow, 0x20, 0x00, 0x00, 0x00)
	if err := DecodeResponse(overflow, &resp); err == nil {
		t.Error("overflowing count decoded")
	}
	// Same wrap with a non-empty body: count 0x20000001 declares 8 more
	// bytes than 2^32, which truncates to 8 — the body length.
	overflow = appendHeader(nil, 1, StatusOK)
	overflow = append(overflow, 0x20, 0x00, 0x00, 0x01)
	overflow = append(overflow, make([]byte, 8)...)
	if err := DecodeResponse(overflow, &resp); err == nil {
		t.Error("overflowing count decoded")
	}
}
