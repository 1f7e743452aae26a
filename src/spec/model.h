// The executable PPO specification: an operational model over abstract
// events (CPU store/persist/fence/load, NDP log write, log application,
// commit-class doorbell, cross-device sync) that enumerates every
// crash-reachable persisted state of a litmus program and predicts which
// ordering races and sanitizer findings the program *can* exhibit.
//
// The model is deliberately independent of src/pmem, src/ndp and src/core:
// it re-derives the documented crash semantics (DESIGN.md sections 4/16)
// from the litmus program alone, over ten abstract cache lines (four data
// locations plus header+payload per slot). The conformance harness
// (src/spec/conformance.h) then checks the real machine against it:
//
//  * allowed states -- every request slice independently lands in
//    {dropped, torn prefix, durable}, every pending CPU line independently
//    survives or is lost, and a free synchronization reach level picks how
//    far the delayed-sync frontier got; the repair rules (observation
//    retires, dispatcher conflicts, same-line dependencies, write-back
//    guards, the sync frontier) then constrain the combinations exactly the
//    way PmSpace::CrashWith repairs sampled outcomes.
//  * race predictions -- purely structural "may" facts (which reads/persists
//    overlap which declared request ranges, which doorbells lack syncs);
//    the harness separately confirms from the raw trace whether the timing
//    *witnessed* each race before requiring the PpoChecker / PM-Sanitizer
//    to have flagged it.
//
// SpecMutation deliberately breaks the model for the teeth tests: a
// conformance run against a mutated spec must produce disagreements, or the
// harness could not detect a divergent implementation.
#ifndef SRC_SPEC_MODEL_H_
#define SRC_SPEC_MODEL_H_

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.h"
#include "src/common/types.h"
#include "src/spec/litmus.h"

namespace nearpm {
namespace spec {

// Deliberate spec faults for the teeth mode. Each shrinks the model's
// allowed/predicted behavior below what the machine really does, so a
// healthy machine *must* disagree with the mutated spec.
enum class SpecMutation : std::uint8_t {
  kNone = 0,
  // Requests never tear: the model forgets partial (torn-prefix) outcomes.
  kAtomicRequests,
  // CPU stores are durable at issue: the model forgets that un-persisted
  // lines can be dropped with the cache (and the sanitizer shadow map).
  kWritesDurable,
  // The model predicts no ordering races at all: every real checker or
  // sanitizer race finding becomes a spec disagreement.
  kNoRaces,
};

// Every mutation by name, in declaration order (the --mutate-spec values
// and the litmus repro "mutation" key).
const NameTable<SpecMutation>& SpecMutationNames();
const char* SpecMutationName(SpecMutation mutation);
bool SpecMutationFromString(std::string_view text, SpecMutation* out);

// Abstract cache lines: the four data locations, then header and payload
// per slot.
inline constexpr int kNumLines = kNumLocs + 2 * kNumSlots;
int LocLine(int loc);
int SlotHeaderLine(int slot);
int SlotPayloadLine(int slot);
PmAddr LineAddr(int line);
int LineDevice(int line);

// Abstract value of one line: a uniform fill pattern (data locations, slot
// payloads, freed headers read as fill 0) or a decoded slot header.
struct AbsVal {
  bool is_header = false;
  std::uint8_t fill = 0;        // !is_header: uniform fill byte
  int target_loc = -1;          // is_header: decoded target location
  std::uint8_t payload = 0;     // is_header: checksummed payload fill
  bool operator==(const AbsVal& other) const = default;
  std::string Token() const;    // "0".."9" | "u:L2:5" | "?"
};

// One device slice of one NDP request (mirrors PmSpace's RequestRecord).
struct SpecLineEvent {
  int line = 0;
  AbsVal old_val;
  AbsVal new_val;
};

struct SpecRecord {
  std::uint64_t req = 0;     // request ordinal, shared by all slices
  int device = 0;
  std::size_t ordinal = 0;   // index among this device's records
  bool deferred = false;
  std::uint64_t needs_sync = 0;  // deferred: sync that gates its start
  std::uint64_t after_sync = 0;  // sync counter at issue (frontier input)
  bool forced = false;           // retired before any crash point
  AddrRange read_range{};
  AddrRange write_range{};
  std::vector<SpecLineEvent> events;     // functional execution order
  std::vector<std::size_t> deps;         // same-device record indices
  std::vector<std::size_t> conflicts;    // same-device dispatcher conflicts
};

// Structural may-race / sanitizer predictions for one executed prefix.
struct SpecPredictions {
  bool inv1 = false;    // CPU load may overlap an in-flight write set
  bool inv2 = false;    // CPU persist may overlap an in-flight read/write set
  bool inv3 = false;    // deferred maintenance may begin before earlier units
  bool npm002 = false;  // doorbell over un-persisted operand lines
  bool npm003 = false;  // un-stalled CPU read of an in-flight write set
  bool npm004 = false;  // commit-class doorbell without cross-device sync
  bool npm005 = false;  // redundant persist (no dirty line)
  bool npm006 = false;  // unpersisted lines at end of run
};

// The abstract machine after executing a program prefix.
struct SpecExec {
  bool enforce = true;
  SpecMutation mutation = SpecMutation::kNone;
  std::array<AbsVal, kNumLines> vol{};   // cache-visible image
  std::map<int, AbsVal> pending;         // line -> pre-image (un-persisted)
  std::vector<SpecRecord> records;       // all slices, issue order
  // Marker positions per sync id (1-based): each device's record count at
  // the instant the sync was issued.
  std::vector<std::array<std::size_t, kNumDevices>> markers;
  std::uint64_t last_sync = 0;
  std::map<int, std::uint64_t> guards;      // line -> guarding request
  std::map<int, std::uint64_t> last_writer; // line -> last NDP writer request
  std::set<int> dirty;                      // sanitizer shadow (dirty lines)
  SpecPredictions preds;
};

// Executes the first `prefix_len` instructions of `program` on the abstract
// machine.
SpecExec Simulate(const LitmusProgram& program, std::size_t prefix_len,
                  bool enforce, SpecMutation mutation);

// Canonical state string: the Token() of every abstract line, comma-joined
// in line order.
std::string CanonState(const std::array<AbsVal, kNumLines>& lines);

// Every crash-reachable persisted state of the executed prefix, canonical,
// sorted and deduplicated.
std::vector<std::string> AllowedStates(const SpecExec& exec);

}  // namespace spec
}  // namespace nearpm

#endif  // SRC_SPEC_MODEL_H_
