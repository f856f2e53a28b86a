// Package content models request payloads and stored page contents as
// 64-bit fingerprints, one per 4 KiB page.
//
// The paper's platform detects failures by comparing checksums of the data
// packet against checksums of what is actually read back from the drive.
// Storing full payload bytes for multi-gigabyte working sets is wasteful;
// instead each page's content is identified by a fingerprint with the
// property that two contents are equal iff their fingerprints are equal
// (modulo the usual hash-collision caveat, irrelevant at 64 bits for the
// few million pages an experiment touches). Corruption is modelled as a
// deterministic transformation of the fingerprint, so corrupted data never
// compares equal to either the written or the previous content.
//
// FromBytes bridges real byte payloads into the same scheme for tests and
// library users that carry actual data.
package content

import (
	"fmt"

	"powerfail/internal/sim"
)

// Fingerprint identifies the content of one 4 KiB page.
type Fingerprint uint64

// Zero is the fingerprint of a never-written (all-zeroes) page.
const Zero Fingerprint = 0

// FromBytes fingerprints a byte slice (one page or less) with FNV-1a.
// An all-zero or empty slice maps to Zero, matching the convention that
// unwritten pages read as zeroes.
func FromBytes(b []byte) Fingerprint {
	allZero := true
	for _, c := range b {
		if c != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return Zero
	}
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	f := Fingerprint(h)
	if f == Zero {
		f = 1
	}
	return f
}

// Mix derives the fingerprint of a corrupted version of f. The result is
// guaranteed to differ from f and from Zero for any salt, so corrupted
// content never masquerades as intact or erased content.
func Mix(f Fingerprint, salt uint64) Fingerprint {
	z := uint64(f) ^ (salt | 1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	g := Fingerprint(z)
	if g == f {
		g ^= 0xdeadbeef
	}
	if g == Zero {
		g = 0x5bd1e995
	}
	if g == f {
		g++
	}
	return g
}

// Data is a vector of page fingerprints describing the payload of a
// multi-page request or the content read back from a device. Nothing
// writes through a Data, but its pages may belong to someone who reuses
// them: a read result is lent by the device that filled it and stays
// unchanged only for the window blockdev.Device states, so a holder that
// keeps pages longer copies them out with CopyTo. A write payload stays
// unchanged until the write completes.
type Data struct {
	pages []Fingerprint
}

// Make builds a Data from explicit page fingerprints.
func Make(pages ...Fingerprint) Data {
	cp := make([]Fingerprint, len(pages))
	copy(cp, pages)
	return Data{pages: cp}
}

// Wrap builds a Data over pages without copying. The caller hands the
// slice over and must not write to it afterwards.
func Wrap(pages []Fingerprint) Data { return Data{pages: pages} }

// Random generates n pages of fresh random content.
func Random(r *sim.RNG, n int) Data {
	p := make([]Fingerprint, n)
	for i := range p {
		f := Fingerprint(r.Uint64())
		if f == Zero {
			f = 1
		}
		p[i] = f
	}
	return Data{pages: p}
}

// zeroSlab backs Zeroes for common sizes. Nothing ever writes to it, so
// every all-zero payload can share one backing array; the slab covers any
// request up to 64 Ki pages (256 MiB of simulated data), far beyond the
// segment and rebuild-chunk sizes on the hot path.
var zeroSlab = make([]Fingerprint, 64*1024)

// Zeroes returns n pages of zero (unwritten) content. Common sizes share
// a static backing array and allocate nothing.
func Zeroes(n int) Data {
	if n <= len(zeroSlab) {
		return Data{pages: zeroSlab[:n]}
	}
	return Data{pages: make([]Fingerprint, n)}
}

// FromByteSlice fingerprints b page by page. The final partial page, if
// any, is fingerprinted as-is (conceptually zero-padded).
func FromByteSlice(b []byte) Data {
	n := (len(b) + 4095) / 4096
	p := make([]Fingerprint, n)
	for i := 0; i < n; i++ {
		lo := i * 4096
		hi := lo + 4096
		if hi > len(b) {
			hi = len(b)
		}
		p[i] = FromBytes(b[lo:hi])
	}
	return Data{pages: p}
}

// Pages returns the number of pages in d.
func (d Data) Pages() int { return len(d.pages) }

// Bytes returns the payload length in bytes (pages * 4096).
func (d Data) Bytes() int64 { return int64(len(d.pages)) * 4096 }

// Page returns the fingerprint of page i.
func (d Data) Page(i int) Fingerprint { return d.pages[i] }

// Slice returns the sub-vector [off, off+n). The result shares storage
// with d, so it is lent for as long as d is.
func (d Data) Slice(off, n int) Data {
	return Data{pages: d.pages[off : off+n]}
}

// CopyTo copies d's pages into the front of dst and returns how many it
// copied: d.Pages(), or len(dst) if dst is shorter.
func (d Data) CopyTo(dst []Fingerprint) int { return copy(dst, d.pages) }

// Sum returns a compositional checksum over the page fingerprints: equal
// Data values have equal sums, and the sum of a concatenation depends only
// on the parts in order. This mirrors the "data checksum" field of the
// paper's data packet header.
func (d Data) Sum() uint64 {
	h := uint64(14695981039346656037)
	for _, f := range d.pages {
		v := uint64(f)
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	return h
}

// Equal reports whether d and e have identical content.
func (d Data) Equal(e Data) bool {
	if len(d.pages) != len(e.pages) {
		return false
	}
	for i := range d.pages {
		if d.pages[i] != e.pages[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer with a short digest form.
func (d Data) String() string {
	return fmt.Sprintf("data{%dp sum=%016x}", d.Pages(), d.Sum())
}
