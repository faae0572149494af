//===- support/SummaryCache.cpp --------------------------------------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/SummaryCache.h"
#include "support/Hasher.h"
#include "support/Serializer.h"
#include "support/Statistics.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace pinpoint {

namespace {

constexpr char Magic[4] = {'P', 'P', 'S', 'C'};

/// Whole-file read; empty optional when the file does not exist or cannot
/// be opened.
bool readFileBytes(const std::string &Path, std::vector<uint8_t> &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  Out.assign((std::istreambuf_iterator<char>(In)),
             std::istreambuf_iterator<char>());
  return true;
}

} // namespace

std::string SummaryCache::entryPath(const std::string &FnName) const {
  // File names are a hex hash of the function name, not the name itself:
  // generated subjects have thousands of functions and names are not
  // guaranteed filesystem-safe. A collision maps two functions to one file;
  // the stored name disambiguates and the loser simply misses.
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                (unsigned long long)Hasher::hashString(FnName));
  return Dir + "/" + Buf + ".pps";
}

bool SummaryCache::prepare(std::string &Err) const {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC) {
    Err = "cannot create cache directory " + Dir + ": " + EC.message();
    return false;
  }
  // Sweep temp files orphaned by a crash between write and rename (every
  // store in this directory goes through `store`'s `<final>.tmp<counter>`
  // rename; older builds' stores did too). Startup is the one moment no
  // store of ours is in flight; a concurrent process losing an in-flight
  // tmp just sees its rename fail and reports an unstored entry, which is
  // the same contract as any other I/O failure.
  int64_t Swept = 0;
  std::error_code IterEC;
  for (std::filesystem::directory_iterator
           It(Dir, IterEC),
       End;
       !IterEC && It != End; It.increment(IterEC)) {
    if (!It->is_regular_file(EC))
      continue;
    if (It->path().filename().string().find(".tmp") == std::string::npos)
      continue;
    std::error_code RmEC;
    if (std::filesystem::remove(It->path(), RmEC) && !RmEC)
      ++Swept;
  }
  if (Swept)
    Counters::get().add("cache.gc-tmp", Swept);
  return true;
}

SummaryCache::Loaded SummaryCache::load(const std::string &FnName,
                                        uint64_t ExpectKey) const {
  std::vector<uint8_t> Raw;
  if (!readFileBytes(entryPath(FnName), Raw))
    return {LoadStatus::Missing, {}, ""};

  try {
    ByteReader R(Raw);
    char M[4];
    for (char &C : M)
      C = static_cast<char>(R.u8());
    if (std::memcmp(M, Magic, sizeof(Magic)) != 0)
      return {LoadStatus::Corrupt, {}, "bad magic"};
    uint32_t Version = R.u32();
    if (Version != FormatVersion)
      return {LoadStatus::Corrupt,
              {},
              "format version " + std::to_string(Version) + " != " +
                  std::to_string(FormatVersion)};
    uint64_t Key = R.u64();
    std::string Name = R.str();
    if (Name != FnName)
      return {LoadStatus::Missing, {}, ""}; // File-name hash collision.
    uint64_t Checksum = R.u64();
    uint32_t Size = R.u32();
    if (Size != R.remaining())
      return {LoadStatus::Corrupt, {}, "payload size mismatch"};
    std::vector<uint8_t> Payload(Size);
    for (uint32_t I = 0; I < Size; ++I)
      Payload[I] = R.u8();
    if (Hasher().bytes(Payload.data(), Payload.size()).digest() != Checksum)
      return {LoadStatus::Corrupt, {}, "payload checksum mismatch"};
    if (Key != ExpectKey)
      return {LoadStatus::Stale, {}, ""};
    return {LoadStatus::Ok, std::move(Payload), ""};
  } catch (const SerializationError &) {
    return {LoadStatus::Corrupt, {}, "truncated entry"};
  }
}

bool SummaryCache::store(const std::string &FnName, uint64_t Key,
                         const std::vector<uint8_t> &Payload) const {
  ByteWriter W;
  for (char C : Magic)
    W.u8(static_cast<uint8_t>(C));
  W.u32(FormatVersion);
  W.u64(Key);
  W.str(FnName);
  W.u64(Hasher().bytes(Payload.data(), Payload.size()).digest());
  W.u32(static_cast<uint32_t>(Payload.size()));
  std::vector<uint8_t> Bytes = W.take();
  Bytes.insert(Bytes.end(), Payload.begin(), Payload.end());

  // Unique temp name per store (concurrent --jobs writers, and a crashed
  // run's leftovers never collide), then an atomic rename into place.
  static std::atomic<uint64_t> TmpCounter{0};
  std::string Final = entryPath(FnName);
  std::string Tmp =
      Final + ".tmp" + std::to_string(TmpCounter.fetch_add(1)) + "." +
      std::to_string(static_cast<unsigned long long>(
          Hasher::hashString(FnName) & 0xffff));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out.write(reinterpret_cast<const char *>(Bytes.data()),
              static_cast<std::streamsize>(Bytes.size()));
    if (!Out)
      return false;
  }
  std::error_code EC;
  std::filesystem::rename(Tmp, Final, EC);
  if (EC) {
    std::filesystem::remove(Tmp, EC);
    return false;
  }
  return true;
}

} // namespace pinpoint
