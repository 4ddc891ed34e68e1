#include "kernels/bitpack.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace xlds::kernels {

namespace {

inline std::size_t popcount_words(const std::uint64_t* a, const std::uint64_t* b,
                                  std::size_t n_words) {
  // XOR + popcount over whole words; tails are zero by construction so no
  // mask is needed.  Four-way unrolled accumulators let the popcounts retire
  // in parallel instead of serialising on one running sum.
  std::size_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  std::size_t w = 0;
  for (; w + 4 <= n_words; w += 4) {
    s0 += static_cast<std::size_t>(__builtin_popcountll(a[w] ^ b[w]));
    s1 += static_cast<std::size_t>(__builtin_popcountll(a[w + 1] ^ b[w + 1]));
    s2 += static_cast<std::size_t>(__builtin_popcountll(a[w + 2] ^ b[w + 2]));
    s3 += static_cast<std::size_t>(__builtin_popcountll(a[w + 3] ^ b[w + 3]));
  }
  for (; w < n_words; ++w)
    s0 += static_cast<std::size_t>(__builtin_popcountll(a[w] ^ b[w]));
  return s0 + s1 + s2 + s3;
}

}  // namespace

PackedBits pack_signs(const double* v, std::size_t n) {
  PackedBits p;
  p.bits = n;
  p.words.assign(word_count(n), 0);
  for (std::size_t i = 0; i < n; ++i)
    if (v[i] >= 0.0) p.words[i >> 6] |= std::uint64_t{1} << (i & 63u);
  return p;
}

PackedBits pack_signs(const std::vector<double>& v) { return pack_signs(v.data(), v.size()); }

PackedBits pack_bits(const int* d, std::size_t n) {
  PackedBits p;
  p.bits = n;
  p.words.assign(word_count(n), 0);
  for (std::size_t i = 0; i < n; ++i)
    if (d[i] != 0) p.words[i >> 6] |= std::uint64_t{1} << (i & 63u);
  return p;
}

PackedBits pack_bits(const std::vector<int>& d) { return pack_bits(d.data(), d.size()); }

std::vector<int> unpack_bits(const PackedBits& p) {
  std::vector<int> out(p.bits);
  for (std::size_t i = 0; i < p.bits; ++i) out[i] = p.bit(i);
  return out;
}

std::size_t hamming(const PackedBits& a, const PackedBits& b) {
  XLDS_REQUIRE_MSG(a.bits == b.bits, "packed Hamming: " << a.bits << " vs " << b.bits << " bits");
  return popcount_words(a.words.data(), b.words.data(), a.words.size());
}

long long sign_dot(const PackedBits& a, const PackedBits& b) {
  const auto h = static_cast<long long>(hamming(a, b));
  return static_cast<long long>(a.bits) - 2 * h;
}

std::size_t hamming_ref(const double* a, const double* b, std::size_t n) {
  std::size_t d = 0;
  for (std::size_t i = 0; i < n; ++i)
    if ((a[i] >= 0.0) != (b[i] >= 0.0)) ++d;
  return d;
}

std::size_t hamming_digits_ref(const int* a, const int* b, std::size_t n) {
  std::size_t d = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (a[i] != b[i]) ++d;
  return d;
}

PackedTernary pack_ternary(const int* d, std::size_t n, int dont_care) {
  PackedTernary p;
  p.value.bits = n;
  p.value.words.assign(word_count(n), 0);
  p.care.bits = n;
  p.care.words.assign(word_count(n), 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (d[i] == dont_care) continue;
    p.care.words[i >> 6] |= std::uint64_t{1} << (i & 63u);
    if (d[i] != 0) p.value.words[i >> 6] |= std::uint64_t{1} << (i & 63u);
  }
  return p;
}

namespace {
// Byte counters for up to this many columns (one 4 KiB array in L1) per pass;
// ID rows then stream through contiguously.
constexpr std::size_t kMismatchTile = 4096;
// Each pass adds at most 2 to a byte counter, so counters are flushed into
// the 32-bit counts every 254 rows.
constexpr std::size_t kByteCounterRows = 254;
typedef std::uint8_t Bytes16 __attribute__((vector_size(16)));

// acc[c] += (a0[c] ^ b0[c]) + (a1[c] ^ b1[c]): two bound rows per load and
// store of the counters, 16 columns per vector operation.
void add_two_mismatch_rows(std::uint8_t* acc, const std::uint8_t* a0, const std::uint8_t* b0,
                           const std::uint8_t* a1, const std::uint8_t* b1, std::size_t w) {
  std::size_t c = 0;
  for (; c + 16 <= w; c += 16) {
    Bytes16 v, x0, y0, x1, y1;
    std::memcpy(&v, acc + c, 16);
    std::memcpy(&x0, a0 + c, 16);
    std::memcpy(&y0, b0 + c, 16);
    std::memcpy(&x1, a1 + c, 16);
    std::memcpy(&y1, b1 + c, 16);
    v += (x0 ^ y0) + (x1 ^ y1);
    std::memcpy(acc + c, &v, 16);
  }
  for (; c < w; ++c) acc[c] = static_cast<std::uint8_t>(acc[c] + (a0[c] ^ b0[c]) + (a1[c] ^ b1[c]));
}
}  // namespace

void count_sign_mismatches(const std::uint8_t* ids, const std::uint8_t* levels,
                           const std::uint32_t* level_rows, std::size_t n_rows, std::size_t cols,
                           std::size_t n_samples, std::uint32_t* counts) {
  // An odd row count pairs its last row with an all-zero row (no mismatch).
  const std::vector<std::uint8_t> zero(n_rows % 2 == 0 ? 0 : std::min(kMismatchTile, cols), 0);
  std::uint8_t acc[kMismatchTile];
  for (std::size_t c0 = 0; c0 < cols; c0 += kMismatchTile) {
    const std::size_t w = std::min(kMismatchTile, cols - c0);
    for (std::size_t s = 0; s < n_samples; ++s) {
      std::uint32_t* __restrict cnt = counts + s * cols + c0;
      std::fill(cnt, cnt + w, 0u);
      const std::uint32_t* rows = level_rows + s * n_rows;
      for (std::size_t k0 = 0; k0 < n_rows; k0 += kByteCounterRows) {
        const std::size_t k1 = std::min(n_rows, k0 + kByteCounterRows);
        std::fill(acc, acc + w, std::uint8_t{0});
        for (std::size_t k = k0; k < k1; k += 2) {
          const std::uint8_t* a0 = ids + k * cols + c0;
          const std::uint8_t* b0 = levels + rows[k] * cols + c0;
          const bool pair = k + 1 < k1;
          add_two_mismatch_rows(acc, a0, b0, pair ? a0 + cols : zero.data(),
                                pair ? levels + rows[k + 1] * cols + c0 : zero.data(), w);
        }
        for (std::size_t c = 0; c < w; ++c) cnt[c] += acc[c];
      }
    }
  }
}

PackedTernary pack_ternary(const std::vector<int>& d, int dont_care) {
  return pack_ternary(d.data(), d.size(), dont_care);
}

std::size_t ternary_distance(const PackedTernary& a, const PackedTernary& b) {
  XLDS_REQUIRE_MSG(a.bits() == b.bits(),
                   "ternary distance: " << a.bits() << " vs " << b.bits() << " bits");
  const std::uint64_t* va = a.value.words.data();
  const std::uint64_t* vb = b.value.words.data();
  const std::uint64_t* ca = a.care.words.data();
  const std::uint64_t* cb = b.care.words.data();
  std::size_t d = 0;
  for (std::size_t w = 0; w < a.value.words.size(); ++w)
    d += static_cast<std::size_t>(__builtin_popcountll((va[w] ^ vb[w]) & ca[w] & cb[w]));
  return d;
}

}  // namespace xlds::kernels
