package oodb_test

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/oodb"
)

// FuzzOIDSet is the differential of every read-back of an OIDSet against
// slices.Sort + slices.Compact of the OIDs added, and, through candidates,
// against exec.IntersectSortedOIDs. The input is a stream: a byte with its
// top bit clear starts a run of up to 64 ascending OIDs, added encoded at
// an entry stride of 8 or 12 bytes, its steps the bytes that follow; one
// with the top bit set adds a single OID, far outside any window when its
// next bit is set too. The window hint is random around the stream's base,
// so that sets are promoted and demoted mid-stream. One set is reused for
// the three read-backs, so a bitmap left dirty would show.
func FuzzOIDSet(f *testing.F) {
	f.Add([]byte{}, uint64(0), int16(0), uint8(1), uint8(3), false)
	f.Add([]byte{3, 1, 2, 3, 0x81, 2, 0, 5, 5}, uint64(1)<<40, int16(-5), uint8(0), uint8(1), true)
	// Promoted by its first run, demoted by a far single, promoted no more.
	f.Add([]byte{7, 1, 1, 1, 1, 1, 1, 1, 7, 2, 2, 2, 2, 2, 2, 2, 0xc0, 3, 1, 1, 1}, uint64(1)<<20, int16(0), uint8(0), uint8(2), false)
	f.Add([]byte("the quick brown fox jumps over the lazy dog \xc1 twice over"), ^uint64(0)-600, int16(-100), uint8(4), uint8(7), true)
	f.Fuzz(func(t *testing.T, data []byte, base uint64, hintLo int16, hintWords, withinStep uint8, wide bool) {
		stride := 8
		if wide {
			stride = 12
		}
		lo := oodb.OID(base + uint64(int64(hintLo)))
		hi := lo + 64*oodb.OID(hintWords) + 63
		var within []oodb.OID
		for j := 0; j < 300; j++ {
			within = append(within, oodb.OID(base)+oodb.OID(j)*oodb.OID(1+withinStep%9))
		}
		within = oodb.SortUnique(within) // the walk may wrap past ^OID(0)
		var set oodb.OIDSet
		for mode := 0; mode < 3; mode++ {
			set.Hint(lo, hi)
			var all []oodb.OID
			for i := 0; i < len(data); {
				head := data[i]
				i++
				if head&0x80 != 0 {
					o := oodb.OID(base) + oodb.OID(head&0x3f)
					if head&0x40 != 0 {
						o ^= 1 << 62
					}
					set.Add(o)
					all = append(all, o)
					continue
				}
				v := oodb.OID(base) + oodb.OID(head)
				var run []byte
				for k := 0; k <= int(head&0x3f) && i < len(data); k, i = k+1, i+1 {
					v += oodb.OID(data[i] % 16)
					run = binary.BigEndian.AppendUint64(run, uint64(v))
					run = append(run, make([]byte, stride-8)...)
					all = append(all, v)
				}
				set.AddEncoded(run, len(run)/stride, stride)
			}
			if set.Added() != len(all) {
				t.Fatalf("Added %d after %d OIDs", set.Added(), len(all))
			}
			want := slices.Compact(slices.Sorted(slices.Values(all)))
			var got []oodb.OID
			switch mode {
			case 0:
				got = set.AppendTo([]oodb.OID{9})[1:]
			case 1:
				want = exec.IntersectSortedOIDs(nil, want, within)
				got = set.AppendWithin(nil, within)
			default:
				got = set.Take()
			}
			if !slices.Equal(got, want) {
				t.Fatalf("mode %d: got %d OIDs, want %d\n got  %x\n want %x", mode, len(got), len(want), got, want)
			}
			if set.Added() != 0 || set.Dense() {
				t.Fatalf("mode %d: the read-back left %d OIDs, dense %v", mode, set.Added(), set.Dense())
			}
		}
	})
}
