// FNV-1a 64-bit — the framework's one content hash.  Header-only and at the
// bottom of the stack so every layer (the record framing of the journal and
// the result cache, result-cache keys, space identity) chains the *same*
// bytes-to-bits map: two subsystems hashing the same bytes always agree,
// which is what lets the cross-run result cache share entries with
// journal-compatible jobs.
#pragma once

#include <cstddef>
#include <cstdint>

namespace xlds::util {

constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Hash a byte range; `h` chains multiple ranges.
inline std::uint64_t fnv1a64(const void* data, std::size_t n,
                             std::uint64_t h = kFnvOffsetBasis) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace xlds::util
