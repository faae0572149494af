//===- support/SummaryCache.h - Persistent function-summary store ---------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk half of incremental reanalysis (`--cache-dir`): a directory
/// of entry files in a versioned binary format, one per analysed function
/// plus the demand pre-pass's seed table under a reserved name that no
/// function can take (svfa/Demand). It is the only store in the directory.
/// This layer is deliberately IR-agnostic — it stores opaque payload bytes
/// against a (name, content key) pair; encoding and decoding the pipeline
/// artifacts lives in svfa/SummaryIO, the seed table's in svfa/Demand.
///
/// Entry file layout (little-endian, see support/Serializer.h):
///
///   "PPSC"            magic
///   u32               format version
///   u64               content key (transitive SCC hash, see DESIGN.md §10)
///   str               function name (guards file-name hash collisions)
///   u64               payload checksum (Hasher digest of the payload)
///   u32               payload size
///   bytes             payload
///
/// Every integrity failure — short file, bad magic, version mismatch,
/// checksum mismatch — is reported as `Corrupt` with a human-readable
/// detail; a key mismatch is `Stale` (the function or its callees changed).
/// The pipeline falls back to a full rebuild in both cases. Writes go through a
/// unique temp file plus an atomic rename, so concurrent `--jobs` stores
/// and a reader racing a writer never observe a half-written entry.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_SUPPORT_SUMMARYCACHE_H
#define PINPOINT_SUPPORT_SUMMARYCACHE_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pinpoint {

class SummaryCache {
public:
  /// A handle always reads and writes. The one-value enum stays only for
  /// callers that name it.
  enum class Mode { ReadWrite };

  /// Bump whenever the payload encoding or the key derivation changes; old
  /// entries then read as Corrupt("format version ...") and are rebuilt.
  static constexpr uint32_t FormatVersion = 1;

  SummaryCache(std::string Directory, Mode) : Dir(std::move(Directory)) {}

  /// Creates the directory and sweeps `*.tmp*` files that a crashed run's
  /// atomic write-then-rename left orphaned (counted in the `cache.gc-tmp`
  /// stat). Returns false (with \p Err set) only if the directory cannot be
  /// created. Until then the handle creates nothing: `load` never writes,
  /// and every probe of a missing directory simply misses. Files this class
  /// did not write (such as an older build's leftovers) are never read.
  bool prepare(std::string &Err) const;

  enum class LoadStatus : uint8_t {
    Missing, ///< No entry (or a file-name hash collision with another fn).
    Corrupt, ///< Integrity failure; Detail says which check tripped.
    Stale,   ///< Entry exists but its content key does not match.
    Ok,
  };
  struct Loaded {
    LoadStatus Status;
    std::vector<uint8_t> Payload; ///< Filled only for Ok.
    std::string Detail;           ///< Filled for Corrupt.
  };

  Loaded load(const std::string &FnName, uint64_t ExpectKey) const;

  /// Atomically (re)writes \p FnName's entry. Returns false on I/O failure;
  /// the previous entry, if any, is left intact in that case.
  bool store(const std::string &FnName, uint64_t Key,
             const std::vector<uint8_t> &Payload) const;

  /// The entry file backing \p FnName (exposed for tests that corrupt it).
  std::string entryPath(const std::string &FnName) const;

private:
  std::string Dir;
};

} // namespace pinpoint

#endif // PINPOINT_SUPPORT_SUMMARYCACHE_H
