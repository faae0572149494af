//===- ir/Fingerprint.h - Stable structural function hashing --------------===//
//
// Part of the Pinpoint reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content-hashes a function's pre-SSA IR for the incremental summary
/// cache. The fingerprint covers everything the per-function pipeline's
/// output depends on — signature, CFG shape, every statement's kind and
/// operands (variables by function-local id, constants by value, callees by
/// name) — and deliberately *excludes* source locations: reports print
/// locations from the live IR, so a pure line shift re-uses the cached
/// summary and still prints the shifted lines.
///
/// Must be taken *before* SSA construction, as the frontend built the
/// function. SSA is a pure function of that body, so the pre-SSA hash
/// identifies the post-SSA content too, and it can be taken for every
/// function before the demand pre-pass decides which ones get SSA at all.
/// The connector transforms (call-site rewriting / interface transform)
/// run later still: their extra statements are derived state that the
/// cache replays, not input.
///
//===----------------------------------------------------------------------===//

#ifndef PINPOINT_IR_FINGERPRINT_H
#define PINPOINT_IR_FINGERPRINT_H

#include <cstdint>
#include <vector>

namespace pinpoint::ir {

class Function;
class Module;

/// The structural, location-independent content hash of \p F.
uint64_t fingerprintFunction(const Function &F);

/// Every function's fingerprint, indexed by function id. One sweep feeds
/// both consumers — the summary cache's SCC content keys and the relevance
/// entry's per-function records — so a module is never hashed twice per
/// run, and a run without `--cache-dir` never hashes it at all.
std::vector<uint64_t> fingerprintModule(const Module &M);

} // namespace pinpoint::ir

#endif // PINPOINT_IR_FINGERPRINT_H
