// Bit-packed binary hypervectors: 64 elements per machine word, Hamming
// distance by XOR + popcount, sign-dot as its affine image.
//
// The HDC/MANN stack stored ±1 hypervectors as std::vector<double> and binary
// CAM digits as std::vector<int>; every similarity query walked 8 bytes per
// bit.  Packing collapses a 4096-element hypervector to 64 words, so one
// popcount instruction compares 64 elements — the ≥4× single-thread win the
// figure benches and the DSE fidelity ladder bottom out on.
//
// Packing convention (fixed, relied on by tests):
//   * bit i of word i/64 is element i (bit index i%64, LSB first);
//   * sign packing maps v >= 0.0 → 1, v < 0.0 → 0 (ties count as +1, so an
//     all-zero vector packs to all-ones — the "all ties" edge case);
//   * digit packing maps digit != 0 → 1 (binary digits are 0/1 already);
//   * tail bits past `bits` in the last word are always zero, so Hamming and
//     popcount never need a mask at query time.
//
// Ternary signatures (MANN TCAM words with don't-care) pack into two planes:
// a value plane and a care plane; distance is popcount((va^vb) & ca & cb),
// matching mann::signature_distance exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xlds::kernels {

/// A packed binary vector: `bits` elements in ceil(bits/64) words, tail zero.
struct PackedBits {
  std::vector<std::uint64_t> words;
  std::size_t bits = 0;

  bool empty() const noexcept { return bits == 0; }

  /// Value of element i (0 or 1).
  int bit(std::size_t i) const { return static_cast<int>((words[i >> 6] >> (i & 63u)) & 1u); }
};

/// Words needed for `bits` elements.
inline std::size_t word_count(std::size_t bits) { return (bits + 63) / 64; }

/// Pack the signs of a real vector: bit = (v[i] >= 0.0).
PackedBits pack_signs(const double* v, std::size_t n);
PackedBits pack_signs(const std::vector<double>& v);

/// Pack binary digits: bit = (d[i] != 0).
PackedBits pack_bits(const int* d, std::size_t n);
PackedBits pack_bits(const std::vector<int>& d);

/// Unpack to 0/1 digits (the inverse of pack_bits for binary input).
std::vector<int> unpack_bits(const PackedBits& p);

/// Hamming distance between two packed vectors of equal length.
std::size_t hamming(const PackedBits& a, const PackedBits& b);

/// Dot product of the two ±1 vectors the packed operands represent:
/// n - 2 * hamming — the similarity the sign-dot / cosine-on-binary paths use.
long long sign_dot(const PackedBits& a, const PackedBits& b);

/// Scalar references (the pre-kernel loops; ground truth for tests and the
/// bench-smoke gate).  hamming_ref counts sign mismatches of two real
/// vectors; hamming_digits_ref counts unequal binary digits.
std::size_t hamming_ref(const double* a, const double* b, std::size_t n);
std::size_t hamming_digits_ref(const int* a, const int* b, std::size_t n);

// ---------------------------------------------------------------------------
// Sign bytes: one ±1 element per byte (1 = +1, 0 = -1).

/// Bipolar bind-and-bundle count, the ID x LEVEL record encoder's inner loop.
/// `ids` holds `n_rows` sign-byte rows of `cols` bytes; `levels` holds level
/// rows in the same layout, and sample s binds row k of `ids` with row
/// level_rows[s * n_rows + k] of `levels`.  counts[s * cols + c] receives the
/// number of rows k whose two signs differ at column c.  The bound product is
/// -1 exactly there and +1 elsewhere, so the bundled element is the exact
/// integer n_rows - 2 * count, whatever order the +-1 terms are added in.
void count_sign_mismatches(const std::uint8_t* ids, const std::uint8_t* levels,
                           const std::uint32_t* level_rows, std::size_t n_rows, std::size_t cols,
                           std::size_t n_samples, std::uint32_t* counts);

// ---------------------------------------------------------------------------
// Ternary signatures (binary value + don't-care mask).

/// Packed ternary word: value plane + care plane (bit clear = don't-care).
struct PackedTernary {
  PackedBits value;
  PackedBits care;

  std::size_t bits() const noexcept { return value.bits; }
};

/// Pack trits where `dont_care` is the sentinel digit (any other nonzero
/// digit is a 1).  Don't-care positions pack as value 0 / care 0.
PackedTernary pack_ternary(const int* d, std::size_t n, int dont_care);
PackedTernary pack_ternary(const std::vector<int>& d, int dont_care);

/// Distance ignoring positions either side doesn't care about:
/// popcount((va ^ vb) & ca & cb).
std::size_t ternary_distance(const PackedTernary& a, const PackedTernary& b);

}  // namespace xlds::kernels
