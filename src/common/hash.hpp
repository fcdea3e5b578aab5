// FNV-1a 64-bit, the suite's one byte-string hash: plan fingerprints and
// journal keys (runner), request ids and cache keys (service), SplitSeed
// label derivation (common/rng) and the pinned cube_xml hash list
// (tests/golden).  Changing it changes all of those persisted values.
#pragma once

#include <cstdint>
#include <string_view>

namespace ats {

/// The FNV-1a 64-bit offset basis (the hash of the empty string).
inline constexpr std::uint64_t kFnv1a64Offset = 0xcbf29ce484222325ULL;

/// FNV-1a 64-bit over `bytes`, continuing from state `h`.  With the
/// default offset basis this is the published FNV-1a function.
constexpr std::uint64_t fnv1a64(std::string_view bytes,
                                std::uint64_t h = kFnv1a64Offset) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace ats
