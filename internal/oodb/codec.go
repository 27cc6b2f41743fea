package oodb

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
)

// Binary codec for objects and attribute maps — the one encoding shared by
// the write-ahead log (operation records), checkpoint snapshots (one
// record per live object) and page images. Encoding is deterministic:
// attribute names are emitted in sorted order, so the same logical state
// always produces the same bytes — which is what lets the crash-recovery
// gate compare a recovered store against a reference bit for bit.
//
// Layout (big endian):
//
//	value   kind byte (0 int, 1 str, 2 ref); int/ref: 8 bytes; str: u32 len + bytes
//	attrs   u16 #attrs, then per attr: u16 name len, name, u16 #values, values
//	object  u64 OID, u16 class len, class, attrs

// AppendValue appends the encoding of v to buf.
func AppendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.Kind))
	switch v.Kind {
	case IntVal:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Int))
	case StrVal:
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.Str)))
		buf = append(buf, v.Str...)
	default:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Ref))
	}
	return buf
}

// DecodeValue decodes one value, returning it and the remaining bytes.
func DecodeValue(b []byte) (Value, []byte, error) {
	if len(b) < 1 {
		return Value{}, nil, fmt.Errorf("oodb: truncated value")
	}
	kind := ValueKind(b[0])
	b = b[1:]
	switch kind {
	case IntVal, RefVal:
		if len(b) < 8 {
			return Value{}, nil, fmt.Errorf("oodb: truncated %d-kind value", kind)
		}
		u := binary.BigEndian.Uint64(b)
		if kind == IntVal {
			return Value{Kind: IntVal, Int: int64(u)}, b[8:], nil
		}
		return Value{Kind: RefVal, Ref: OID(u)}, b[8:], nil
	case StrVal:
		if len(b) < 4 {
			return Value{}, nil, fmt.Errorf("oodb: truncated string length")
		}
		n := int(binary.BigEndian.Uint32(b))
		b = b[4:]
		if len(b) < n {
			return Value{}, nil, fmt.Errorf("oodb: truncated string value")
		}
		return Value{Kind: StrVal, Str: string(b[:n])}, b[n:], nil
	default:
		return Value{}, nil, fmt.Errorf("oodb: unknown value kind %d", kind)
	}
}

// maxValues is the most values one attribute can carry: the codec writes
// each attribute's value count in 16 bits.
const maxValues = 1<<16 - 1

// CheckAttrs reports an attribute map the codec cannot encode: one with an
// attribute carrying more than 65,535 values.
func CheckAttrs(attrs map[string][]Value) error {
	for name, vals := range attrs {
		if len(vals) > maxValues {
			return fmt.Errorf("oodb: attribute %q has %d values, the limit is %d", name, len(vals), maxValues)
		}
	}
	return nil
}

// AppendAttrs appends the encoding of an attribute map to buf, names in
// sorted order. attrs must pass CheckAttrs.
func AppendAttrs(buf []byte, attrs map[string][]Value) []byte {
	names := make([]string, 0, len(attrs))
	for n := range attrs {
		names = append(names, n)
	}
	sort.Strings(names)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(names)))
	for _, n := range names {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(n)))
		buf = append(buf, n...)
		vals := attrs[n]
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(vals)))
		for _, v := range vals {
			buf = AppendValue(buf, v)
		}
	}
	return buf
}

// DecodeAttrs decodes an attribute map, returning it and the remaining
// bytes. A zero-attribute map decodes as nil.
func DecodeAttrs(b []byte) (map[string][]Value, []byte, error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("oodb: truncated attribute count")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if n == 0 {
		return nil, b, nil
	}
	attrs := make(map[string][]Value, n)
	for i := 0; i < n; i++ {
		if len(b) < 2 {
			return nil, nil, fmt.Errorf("oodb: truncated attribute name length")
		}
		nl := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if len(b) < nl {
			return nil, nil, fmt.Errorf("oodb: truncated attribute name")
		}
		name := string(b[:nl])
		b = b[nl:]
		if len(b) < 2 {
			return nil, nil, fmt.Errorf("oodb: truncated value count")
		}
		vc := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		var vals []Value
		for j := 0; j < vc; j++ {
			var v Value
			var err error
			v, b, err = DecodeValue(b)
			if err != nil {
				return nil, nil, err
			}
			vals = append(vals, v)
		}
		attrs[name] = vals
	}
	return attrs, b, nil
}

// AppendObject appends the encoding of (oid, class, attrs) to buf.
func AppendObject(buf []byte, oid OID, class string, attrs map[string][]Value) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(oid))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(class)))
	buf = append(buf, class...)
	return AppendAttrs(buf, attrs)
}

// DecodeObject decodes one object record, returning the remaining bytes.
func DecodeObject(b []byte) (oid OID, class string, attrs map[string][]Value, rest []byte, err error) {
	if len(b) < 10 {
		return 0, "", nil, nil, fmt.Errorf("oodb: truncated object header")
	}
	oid = OID(binary.BigEndian.Uint64(b))
	cl := int(binary.BigEndian.Uint16(b[8:]))
	b = b[10:]
	if len(b) < cl {
		return 0, "", nil, nil, fmt.Errorf("oodb: truncated class name")
	}
	class = string(b[:cl])
	attrs, rest, err = DecodeAttrs(b[cl:])
	return oid, class, attrs, rest, err
}

// Fingerprint hashes the store's logical state — every live object in OID
// order (class and attributes through the canonical codec) plus the OID
// sequence position. Two stores with equal fingerprints hold bit-identical
// logical content; the crash-recovery differential gate compares recovered
// stores against reference stores with it.
func (st *Store) Fingerprint() uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	oids := make([]OID, 0, len(st.objects))
	for oid := range st.objects {
		oids = append(oids, oid)
	}
	slices.Sort(oids)
	h := fnv.New64a()
	var buf []byte
	var scratch [8]byte
	binary.BigEndian.PutUint64(scratch[:], uint64(st.next))
	h.Write(scratch[:])
	binary.BigEndian.PutUint64(scratch[:], uint64(st.stride))
	h.Write(scratch[:])
	for _, oid := range oids {
		o := st.objects[oid].obj
		buf = AppendObject(buf[:0], o.OID, o.Class, o.Attrs)
		h.Write(buf)
	}
	return h.Sum64()
}
