package cab

import "encoding/binary"

// Checksum is the CAB's hardware checksum unit ("hardware checksum
// computation removes this burden from protocol software", paper §5.1).
// It computes the ones'-complement Internet checksum; because the hardware
// computes it on the fly during DMA, no CPU time is charged.
func Checksum(b []byte) uint16 {
	return fold(sum(b))
}

// ChecksumExcluding computes the checksum of b as if the 16-bit word at
// even offset `off` were zero, without copying or mutating b. This is how
// the hardware verifies an embedded checksum field on the fly during DMA:
// the field's bytes are excluded from the running sum as they stream past.
// Because off is even, b[off+2:] starts on a word boundary and the two
// halves sum exactly as the whole buffer would.
func ChecksumExcluding(b []byte, off int) uint16 {
	if off < 0 || off >= len(b) {
		return Checksum(b)
	}
	s := sum(b[:off])
	if off+2 < len(b) {
		s += sum(b[off+2:])
	}
	return fold(s)
}

// sum adds b as big-endian 16-bit words (a trailing odd byte is the high
// half of a zero-padded word) into a 64-bit accumulator, reading 8 bytes at
// a time. A 64-bit word is hi·2^32 + lo ≡ hi + lo, and a 32-bit half
// likewise reduces to its two 16-bit words, mod 0xFFFF: the ones'-complement
// sum is the same over any word width. Each 32-byte step adds under 2^35,
// so the accumulator cannot wrap below 2^29 steps (16 GiB).
func sum(b []byte) uint64 {
	var s uint64
	for len(b) >= 32 {
		v0 := binary.BigEndian.Uint64(b[0:8])
		v1 := binary.BigEndian.Uint64(b[8:16])
		v2 := binary.BigEndian.Uint64(b[16:24])
		v3 := binary.BigEndian.Uint64(b[24:32])
		s += v0>>32 + v0&0xFFFFFFFF + v1>>32 + v1&0xFFFFFFFF +
			v2>>32 + v2&0xFFFFFFFF + v3>>32 + v3&0xFFFFFFFF
		b = b[32:]
	}
	for len(b) >= 8 {
		v := binary.BigEndian.Uint64(b)
		s += v>>32 + v&0xFFFFFFFF
		b = b[8:]
	}
	for len(b) >= 2 {
		s += uint64(b[0])<<8 | uint64(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		s += uint64(b[0]) << 8
	}
	return s
}

// fold reduces the accumulator to 16 bits with end-around carry and
// complements it. A zero sum (all-zero data) gives 0xFFFF; any other sum
// that is ≡ 0 mod 0xFFFF folds to 0xFFFF and gives 0x0000.
func fold(s uint64) uint16 {
	for s>>16 != 0 {
		s = s&0xFFFF + s>>16
	}
	return ^uint16(s)
}
