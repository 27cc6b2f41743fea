// Package wire is the binary protocol the networked serving tier speaks:
// a small, length-prefixed, CRC-framed request/response codec over any
// byte stream. It shares the write-ahead log's framing posture — a frame
// whose header, declared length or checksum does not check out is
// rejected with an error, never trusted and never a panic — and the
// object store's canonical value codec, so a value crosses the socket in
// exactly the bytes the WAL and checkpoint snapshots would persist.
//
// Framing. Each frame is
//
//	[4 bytes] payload length, big endian (1 .. MaxFrame)
//	[4 bytes] crc32 (Castagnoli) of the payload
//	[n bytes] payload
//
// Requests and responses share one payload shape:
//
//	request   [8 bytes request id][1 byte opcode][operation body]
//	response  [8 bytes request id][1 byte status][result body]
//
// The request id is chosen by the client and echoed verbatim by the
// server; it is what makes pipelining work — many requests may be in
// flight on one connection, and responses are matched to callers by id,
// in whatever order the server finishes them. Ids only need to be unique
// among a connection's in-flight requests.
//
// Response bodies are uniform: a StatusOK body is a count-prefixed OID
// list (queries return their matches; Insert returns the minted OID as a
// one-element list; Update, Delete and Ping return an empty list), and a
// StatusErr body is the error message. Uniformity is what lets one
// decoder serve every call site.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/oodb"
)

const (
	// FrameHeader is the fixed frame header size: length plus checksum.
	FrameHeader = 8
	// MaxFrame is the largest accepted payload. A declared length beyond
	// it is rejected before any allocation — a corrupt or hostile header
	// must not be able to provoke a giant buffer.
	MaxFrame = 1 << 24
)

// Request opcodes.
const (
	OpPing       byte = 1 // no body
	OpQuery      byte = 2 // value, class, hierarchy
	OpQueryRange byte = 3 // lo, hi, class, hierarchy
	OpInsert     byte = 4 // class, attrs
	OpUpdate     byte = 5 // oid, attrs
	OpDelete     byte = 6 // oid
	// OpPredicate evaluates a predicate tree (predicate.go): class,
	// hierarchy, tree. Answered with a StatusOK OID list.
	OpPredicate byte = 7
	// OpPredicateValues evaluates a predicate tree and projects one
	// attribute of each match: attr, class, hierarchy, tree. Answered
	// with a StatusOKValues value list.
	OpPredicateValues byte = 8
)

// Response statuses.
const (
	StatusOK  byte = 0
	StatusErr byte = 1
	// StatusOKValues is a success carrying a count-prefixed value list —
	// the response shape of OpPredicateValues.
	StatusOKValues byte = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrFrame is wrapped by every framing rejection — short header, zero or
// oversized length, checksum mismatch — so transports can distinguish a
// broken stream (close the connection) from a well-framed but invalid
// request (answer with an error).
var ErrFrame = errors.New("wire: bad frame")

// AppendFrame appends the frame encoding of payload to dst.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// DecodeFrame decodes one frame from the front of b, returning the
// payload (aliasing b — no copy, no allocation) and the remaining bytes.
// Truncated, oversized and corrupt frames report ErrFrame.
func DecodeFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < FrameHeader {
		return nil, nil, fmt.Errorf("%w: %d-byte header, want %d", ErrFrame, len(b), FrameHeader)
	}
	n := binary.BigEndian.Uint32(b[0:4])
	if n == 0 || n > MaxFrame {
		return nil, nil, fmt.Errorf("%w: declared length %d", ErrFrame, n)
	}
	if uint32(len(b)-FrameHeader) < n {
		return nil, nil, fmt.Errorf("%w: %d payload bytes, declared %d", ErrFrame, len(b)-FrameHeader, n)
	}
	payload = b[FrameHeader : FrameHeader+n]
	if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(b[4:8]) {
		return nil, nil, fmt.Errorf("%w: checksum mismatch", ErrFrame)
	}
	return payload, b[FrameHeader+n:], nil
}

// ReadFrame reads one frame from r, reusing buf when it has the
// capacity, and returns the payload. io.EOF crossing a frame boundary is
// returned as io.EOF (a clean close); EOF mid-frame, bad lengths and
// checksum mismatches report ErrFrame. The declared length is validated
// before any buffer grows to hold it.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [FrameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return buf, fmt.Errorf("%w: truncated header", ErrFrame)
		}
		return buf, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n == 0 || n > MaxFrame {
		return buf, fmt.Errorf("%w: declared length %d", ErrFrame, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return buf, fmt.Errorf("%w: truncated payload", ErrFrame)
		}
		return buf, err
	}
	if crc32.Checksum(buf, castagnoli) != binary.BigEndian.Uint32(hdr[4:8]) {
		return buf, fmt.Errorf("%w: checksum mismatch", ErrFrame)
	}
	return buf, nil
}

// appendHeader appends the shared payload prefix: id then kind byte.
func appendHeader(dst []byte, id uint64, kind byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, id)
	return append(dst, kind)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// AppendPing appends a ping request payload.
func AppendPing(dst []byte, id uint64) []byte {
	return appendHeader(dst, id, OpPing)
}

// AppendQuery appends a point-query request payload: A_n = v for class
// (subclasses included when hierarchy is set).
func AppendQuery(dst []byte, id uint64, v oodb.Value, class string, hierarchy bool) []byte {
	dst = appendHeader(dst, id, OpQuery)
	dst = oodb.AppendValue(dst, v)
	dst = appendString(dst, class)
	return append(dst, boolByte(hierarchy))
}

// AppendQueryRange appends a range-query request payload: A_n IN [lo, hi).
func AppendQueryRange(dst []byte, id uint64, lo, hi oodb.Value, class string, hierarchy bool) []byte {
	dst = appendHeader(dst, id, OpQueryRange)
	dst = oodb.AppendValue(dst, lo)
	dst = oodb.AppendValue(dst, hi)
	dst = appendString(dst, class)
	return append(dst, boolByte(hierarchy))
}

// AppendInsert appends an insert request payload.
func AppendInsert(dst []byte, id uint64, class string, attrs map[string][]oodb.Value) []byte {
	dst = appendHeader(dst, id, OpInsert)
	dst = appendString(dst, class)
	return oodb.AppendAttrs(dst, attrs)
}

// AppendUpdate appends an in-place update request payload.
func AppendUpdate(dst []byte, id uint64, oid oodb.OID, attrs map[string][]oodb.Value) []byte {
	dst = appendHeader(dst, id, OpUpdate)
	dst = binary.BigEndian.AppendUint64(dst, uint64(oid))
	return oodb.AppendAttrs(dst, attrs)
}

// AppendDelete appends a delete request payload.
func AppendDelete(dst []byte, id uint64, oid oodb.OID) []byte {
	dst = appendHeader(dst, id, OpDelete)
	return binary.BigEndian.AppendUint64(dst, uint64(oid))
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Request is one decoded request. Class aliases the frame buffer it was
// decoded from — transports that retain a request past the next read must
// copy (or intern) it; every other field is owned.
type Request struct {
	ID        uint64
	Op        byte
	Value     oodb.Value              // OpQuery
	Lo, Hi    oodb.Value              // OpQueryRange
	Class     []byte                  // OpQuery, OpQueryRange, OpInsert, OpPredicate* — aliases the input
	Hierarchy bool                    // OpQuery, OpQueryRange, OpPredicate*
	OID       oodb.OID                // OpUpdate, OpDelete
	Attrs     map[string][]oodb.Value // OpInsert, OpUpdate
	Pred      PredNode                // OpPredicate, OpPredicateValues — owned
	Attr      []byte                  // OpPredicateValues — aliases the input
}

// PeekID extracts the request id from a payload that is at least long
// enough to carry one — so a transport can address an error response even
// when the request body itself fails to decode.
func PeekID(b []byte) (uint64, bool) {
	if len(b) < 8 {
		return 0, false
	}
	return binary.BigEndian.Uint64(b), true
}

// DecodeRequest decodes one request payload into req, overwriting every
// field. Truncated bodies, unknown opcodes and trailing bytes are
// errors; no input can make it panic.
func DecodeRequest(b []byte, req *Request) error {
	if len(b) < 9 {
		return fmt.Errorf("wire: %d-byte request payload, want at least 9", len(b))
	}
	*req = Request{ID: binary.BigEndian.Uint64(b[0:8]), Op: b[8]}
	b = b[9:]
	var err error
	switch req.Op {
	case OpPing:
	case OpQuery:
		if req.Value, b, err = oodb.DecodeValue(b); err != nil {
			return err
		}
		if req.Class, req.Hierarchy, b, err = decodeClassHier(b); err != nil {
			return err
		}
	case OpQueryRange:
		if req.Lo, b, err = oodb.DecodeValue(b); err != nil {
			return err
		}
		if req.Hi, b, err = oodb.DecodeValue(b); err != nil {
			return err
		}
		if req.Class, req.Hierarchy, b, err = decodeClassHier(b); err != nil {
			return err
		}
	case OpInsert:
		if req.Class, b, err = decodeBytes16(b); err != nil {
			return err
		}
		if req.Attrs, b, err = oodb.DecodeAttrs(b); err != nil {
			return err
		}
	case OpUpdate:
		if len(b) < 8 {
			return fmt.Errorf("wire: truncated update oid")
		}
		req.OID = oodb.OID(binary.BigEndian.Uint64(b))
		if req.Attrs, b, err = oodb.DecodeAttrs(b[8:]); err != nil {
			return err
		}
	case OpDelete:
		if len(b) != 8 {
			return fmt.Errorf("wire: delete body is %d bytes, want 8", len(b))
		}
		req.OID = oodb.OID(binary.BigEndian.Uint64(b))
		b = b[8:]
	case OpPredicate:
		if req.Class, req.Hierarchy, b, err = decodeClassHier(b); err != nil {
			return err
		}
		if req.Pred, b, err = DecodePredicate(b); err != nil {
			return err
		}
	case OpPredicateValues:
		if req.Attr, b, err = decodeBytes16(b); err != nil {
			return err
		}
		if req.Class, req.Hierarchy, b, err = decodeClassHier(b); err != nil {
			return err
		}
		if req.Pred, b, err = DecodePredicate(b); err != nil {
			return err
		}
	default:
		return fmt.Errorf("wire: unknown opcode %d", req.Op)
	}
	if len(b) != 0 {
		return fmt.Errorf("wire: request has %d trailing bytes", len(b))
	}
	return nil
}

// decodeBytes16 decodes a u16-length-prefixed byte string, aliasing b.
func decodeBytes16(b []byte) ([]byte, []byte, error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("wire: truncated string length")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return nil, nil, fmt.Errorf("wire: truncated string")
	}
	return b[:n], b[n:], nil
}

func decodeClassHier(b []byte) (class []byte, hier bool, rest []byte, err error) {
	if class, b, err = decodeBytes16(b); err != nil {
		return nil, false, nil, err
	}
	if len(b) < 1 {
		return nil, false, nil, fmt.Errorf("wire: truncated hierarchy flag")
	}
	return class, b[0] != 0, b[1:], nil
}

// AppendOKOIDs appends a StatusOK response payload carrying oids (nil or
// empty both encode as a zero count).
func AppendOKOIDs(dst []byte, id uint64, oids []oodb.OID) []byte {
	dst = appendHeader(dst, id, StatusOK)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(oids)))
	for _, oid := range oids {
		dst = binary.BigEndian.AppendUint64(dst, uint64(oid))
	}
	return dst
}

// AppendError appends a StatusErr response payload carrying msg.
func AppendError(dst []byte, id uint64, msg string) []byte {
	dst = appendHeader(dst, id, StatusErr)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(msg)))
	return append(dst, msg...)
}

// Response is one decoded response. OIDs reuses the slice the caller
// passes in through resp; Err aliases the frame buffer.
type Response struct {
	ID     uint64
	Status byte
	OIDs   []oodb.OID   // StatusOK result list (its capacity reused when it holds the count)
	Vals   []oodb.Value // StatusOKValues result list (capacity reused; strings owned)
	Err    []byte       // StatusErr message — aliases the input
}

// DecodeResponse decodes one response payload into resp. resp.OIDs is
// filled at the declared count: in its own backing array when its
// capacity holds the count, else in one slice made at exactly that size.
// The declared OID count is validated against the actual body length
// before anything is allocated, so a corrupt count cannot provoke a giant
// allocation.
func DecodeResponse(b []byte, resp *Response) error {
	if len(b) < 9 {
		return fmt.Errorf("wire: %d-byte response payload, want at least 9", len(b))
	}
	resp.ID = binary.BigEndian.Uint64(b[0:8])
	resp.Status = b[8]
	resp.OIDs = resp.OIDs[:0]
	resp.Vals = resp.Vals[:0]
	resp.Err = nil
	b = b[9:]
	switch resp.Status {
	case StatusOK:
		if len(b) < 4 {
			return fmt.Errorf("wire: truncated result count")
		}
		n := binary.BigEndian.Uint32(b)
		b = b[4:]
		// 64-bit compare: 8*n wraps in uint32 for n >= 2^29, which would
		// let a corrupt count slip past the check and panic the loop.
		if uint64(len(b)) != 8*uint64(n) {
			return fmt.Errorf("wire: result body is %d bytes for %d oids", len(b), n)
		}
		if cap(resp.OIDs) >= int(n) {
			resp.OIDs = resp.OIDs[:n]
		} else {
			resp.OIDs = make([]oodb.OID, n)
		}
		for i := range resp.OIDs {
			resp.OIDs[i] = oodb.OID(binary.BigEndian.Uint64(b[8*i:]))
		}
	case StatusOKValues:
		if len(b) < 4 {
			return fmt.Errorf("wire: truncated result count")
		}
		n := binary.BigEndian.Uint32(b)
		b = b[4:]
		// Values are variable-width, so the count cannot be length-checked
		// up front; decoding one value at a time means a corrupt count
		// runs out of bytes instead of pre-allocating against it.
		var err error
		var v oodb.Value
		for i := uint32(0); i < n; i++ {
			if v, b, err = oodb.DecodeValue(b); err != nil {
				return err
			}
			resp.Vals = append(resp.Vals, v)
		}
		if len(b) != 0 {
			return fmt.Errorf("wire: result has %d trailing bytes", len(b))
		}
	case StatusErr:
		if len(b) < 4 {
			return fmt.Errorf("wire: truncated error length")
		}
		n := binary.BigEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) != n {
			return fmt.Errorf("wire: error body is %d bytes, declared %d", len(b), n)
		}
		resp.Err = b
	default:
		return fmt.Errorf("wire: unknown response status %d", resp.Status)
	}
	return nil
}
