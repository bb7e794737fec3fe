package cab

import (
	"bytes"
	"math/rand"
	"testing"
)

// refChecksum is the byte-pair loop the checksum unit used to run: 16-bit
// big-endian words into a uint32, folded at the end. Below 128 KiB the
// uint32 cannot wrap, and Checksum must agree with it bit for bit.
func refChecksum(b []byte, off int) uint16 {
	var sum uint32
	n := len(b)
	for i := 0; i+1 < n; i += 2 {
		if i == off {
			continue
		}
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if n%2 == 1 && n-1 != off {
		sum += uint32(b[n-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + sum>>16
	}
	return ^uint16(sum)
}

// checkAgainstRef compares Checksum and ChecksumExcluding with the
// reference on b at every even exclusion offset up to and including the
// last word (and the trailing byte of an odd length), and one past the end,
// where nothing is excluded.
func checkAgainstRef(t *testing.T, what string, b []byte) {
	t.Helper()
	if got, want := Checksum(b), refChecksum(b, -1); got != want {
		t.Fatalf("%s n=%d: Checksum=%#04x, reference=%#04x", what, len(b), got, want)
	}
	for off := 0; off <= len(b)+1; off += 2 {
		if got, want := ChecksumExcluding(b, off), refChecksum(b, off); got != want {
			t.Fatalf("%s n=%d off=%d: ChecksumExcluding=%#04x, reference=%#04x",
				what, len(b), off, got, want)
		}
	}
}

// The 8-byte-wide unit must reproduce the byte-pair reference on random
// lengths of every parity and every alignment of the 32- and 8-byte steps,
// and on the two buffers that reach the folding edge cases: all zeros (sum
// 0) and all 0xFF (sum ≡ 0 mod 0xFFFF but not 0).
func TestChecksumMatchesByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 70; n++ {
		b := make([]byte, n)
		rng.Read(b)
		checkAgainstRef(t, "random", b)
	}
	for trial := 0; trial < 200; trial++ {
		b := make([]byte, rng.Intn(2101))
		rng.Read(b)
		checkAgainstRef(t, "random", b)
	}
	for _, n := range []int{0, 1, 2, 3, 7, 8, 31, 32, 33, 64, 1023, 1024, 2100} {
		checkAgainstRef(t, "zeros", make([]byte, n))
		checkAgainstRef(t, "ones", bytes.Repeat([]byte{0xFF}, n))
	}
}

// Above 128 KiB the old uint32 sum wrapped and produced a wrong checksum;
// the 64-bit accumulator does not. 200 KiB of 0xFF sums to 102400·0xFFFF,
// which is ≡ 0 but not 0 mod 0xFFFF: the checksum is 0x0000.
func TestChecksumLargeBufferDoesNotWrap(t *testing.T) {
	b := bytes.Repeat([]byte{0xFF}, 200<<10)
	var want uint64
	for i := 0; i+1 < len(b); i += 2 {
		want += uint64(b[i])<<8 | uint64(b[i+1])
	}
	for want>>16 != 0 {
		want = want&0xFFFF + want>>16
	}
	if got := Checksum(b); got != ^uint16(want) || got != 0 {
		t.Fatalf("200 KiB of 0xFF: Checksum=%#04x, uint64 reference=%#04x", got, ^uint16(want))
	}
	if refChecksum(b, -1) == 0 {
		t.Fatal("the uint32 reference no longer wraps at 200 KiB; the case proves nothing")
	}
}

// ChecksumExcluding must agree exactly with the copy-and-zero reference on
// every length parity and field position.
func TestChecksumExcludingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(300)
		b := make([]byte, n)
		rng.Read(b)
		off := rng.Intn(n/2) * 2
		ref := make([]byte, n)
		copy(ref, b)
		ref[off] = 0
		if off+1 < n {
			ref[off+1] = 0
		}
		if got, want := ChecksumExcluding(b, off), Checksum(ref); got != want {
			t.Fatalf("n=%d off=%d: ChecksumExcluding=%#x, reference=%#x", n, off, got, want)
		}
	}
	// Odd trailing byte excluded.
	b := []byte{1, 2, 3}
	ref := []byte{1, 2, 0}
	if ChecksumExcluding(b, 2) != Checksum(ref) {
		t.Fatal("odd-length exclusion of the trailing byte diverges from reference")
	}
}

func BenchmarkChecksum1K(b *testing.B) {
	buf := make([]byte, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Checksum(buf)
	}
}

func BenchmarkChecksumExcluding1K(b *testing.B) {
	buf := make([]byte, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ChecksumExcluding(buf, 30)
	}
}
