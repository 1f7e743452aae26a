#include "src/trace/ppo_checker.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace nearpm {

namespace {

// CrashOutcome::kDurable from src/pmem -- mirrored here as an integer so the
// trace layer stays below pmem (the producer records the enum value).
constexpr std::uint64_t kOutcomeDurable = 2;

// Distinct non-empty address ranges ordered by (begin, end), each with a
// summary of the spans recorded under it. A range overlapping a query ends
// after the query's begin and is at most `max_len` long, so it begins less
// than `max_len` bytes before the query: one lower_bound finds the first
// candidate and the walk stops at the query's end.
template <typename Summary>
struct RangeIndex {
  std::map<std::pair<PmAddr, PmAddr>, Summary> ranges;
  std::uint64_t max_len = 0;

  Summary& operator[](const AddrRange& r) {
    max_len = std::max(max_len, r.size());
    return ranges[{r.begin, r.end}];
  }

  // True iff `hit` holds for the summary of some range overlapping `q`.
  template <typename Hit>
  bool AnyOverlapping(const AddrRange& q, Hit hit) const {
    if (q.empty()) {
      return false;
    }
    const PmAddr from = q.begin > max_len ? q.begin - max_len : 0;
    for (auto it = ranges.lower_bound({from, 0});
         it != ranges.end() && it->first.first < q.end; ++it) {
      if (it->first.second > q.begin && hit(it->second)) {
        return true;
      }
    }
    return false;
  }
};

struct EpochChecker {
  EpochChecker(std::size_t max, std::uint32_t disabled)
      : max_violations(max), disabled_mask(disabled) {}

  std::size_t max_violations;
  std::uint32_t disabled_mask;
  std::vector<PpoViolation> violations;
  // Exec spans seen so far, in issue (record) order.
  std::vector<const TraceEvent*> spans;
  // (seq << 8 | pid-low) retire keys seen so far.
  std::unordered_set<std::uint64_t> retired;
  std::set<std::uint32_t> device_pids;
  const TraceEvent* crash = nullptr;
  std::unordered_set<std::uint64_t> replayed;
  // seq -> true iff some device sampled a non-durable outcome at the crash.
  std::unordered_map<std::uint64_t, bool> any_non_durable;

  // Exact existence index over `spans` (see the header): a scan below runs
  // only when the index says it will report.
  // Invariant 1: latest end of the spans writing each range.
  RangeIndex<SimTime> write_ends;
  // Invariant 2: ends of the unretired spans touching each range (write or
  // read set), keyed back by retire key so a kRetire removes them.
  RangeIndex<std::multiset<SimTime>> unretired_ends;
  std::unordered_multimap<std::uint64_t, const TraceEvent*> unretired;
  // Invariant 3: latest end of the kUnitExec spans.
  SimTime unit_end = 0;
  // Invariant 4: seq -> earliest order among its spans.
  std::unordered_map<std::uint64_t, std::uint64_t> first_order;

  bool Full() const { return violations.size() >= max_violations; }

  bool Enabled(int invariant) const {
    return invariant < 1 || (disabled_mask & (1u << (invariant - 1))) == 0;
  }

  void Add(int invariant, const TraceEvent& at, std::uint64_t seq,
           std::string detail) {
    if (Full() || !Enabled(invariant)) {
      return;
    }
    violations.push_back(
        PpoViolation{invariant, seq, at.epoch, at.ts, std::move(detail)});
  }

  static std::uint64_t RetireKey(std::uint64_t seq, std::uint32_t pid) {
    return (seq << 8) ^ pid;
  }

  void Consume(const TraceEvent& e) {
    switch (e.phase) {
      case TracePhase::kUnitExec:
      case TracePhase::kDeferredExec:
        device_pids.insert(e.pid);
        if (e.phase == TracePhase::kDeferredExec) {
          CheckInvariant3(e);
        }
        spans.push_back(&e);
        Index(e);
        break;
      case TracePhase::kRetire:
        Retire(RetireKey(e.seq, e.pid));
        break;
      case TracePhase::kCpuRead:
        CheckInvariant1(e);
        break;
      case TracePhase::kCpuPersist:
        CheckInvariant2(e);
        break;
      case TracePhase::kCrash:
        crash = &e;
        break;
      case TracePhase::kCrashOutcome:
        if (e.arg0 != kOutcomeDurable) {
          any_non_durable[e.seq] = true;
        } else {
          any_non_durable.emplace(e.seq, false);
        }
        break;
      case TracePhase::kRecoveryReplay:
        CheckInvariant4(e);
        break;
      default:
        break;
    }
  }

  void Index(const TraceEvent& s) {
    if (!s.range.empty()) {
      SimTime& end = write_ends[s.range];
      end = std::max(end, s.end());
    }
    if (s.phase == TracePhase::kUnitExec) {
      unit_end = std::max(unit_end, s.end());
    }
    auto [first, fresh] = first_order.emplace(s.seq, s.order);
    if (!fresh) {
      first->second = std::min(first->second, s.order);
    }
    // A span whose key already retired is ordered for good.
    const std::uint64_t key = RetireKey(s.seq, s.pid);
    if (retired.contains(key)) {
      return;
    }
    unretired.emplace(key, &s);
    for (const AddrRange* r : {&s.range, &s.range2}) {
      if (!r->empty()) {
        unretired_ends[*r].insert(s.end());
      }
    }
  }

  void Retire(std::uint64_t key) {
    retired.insert(key);
    const auto [first, last] = unretired.equal_range(key);
    for (auto it = first; it != last; ++it) {
      const TraceEvent& s = *it->second;
      for (const AddrRange* r : {&s.range, &s.range2}) {
        if (r->empty()) {
          continue;
        }
        auto node = unretired_ends.ranges.find({r->begin, r->end});
        node->second.erase(node->second.find(s.end()));
        if (node->second.empty()) {
          unretired_ends.ranges.erase(node);
        }
      }
    }
    unretired.erase(first, last);
  }

  // Invariant 1: the load must not land inside the execution window of an
  // earlier-issued request that writes an overlapping range.
  void CheckInvariant1(const TraceEvent& read) {
    const auto in_window = [&](SimTime end) { return read.ts < end; };
    if (!Enabled(1) || !write_ends.AnyOverlapping(read.range, in_window)) {
      return;
    }
    for (const TraceEvent* s : spans) {
      if (s->range.Overlaps(read.range) && read.ts < s->end()) {
        Add(1, read, s->seq,
            "CPU load at t=" + std::to_string(read.ts) +
                " observes addresses request seq=" + std::to_string(s->seq) +
                " is still writing until t=" + std::to_string(s->end()));
        if (Full()) return;
      }
    }
  }

  // Invariant 2: a persist overlapping an in-flight request's operands must
  // have been ordered behind it (the request retired at queue acceptance).
  void CheckInvariant2(const TraceEvent& persist) {
    const auto in_window = [&](const std::multiset<SimTime>& ends) {
      return persist.ts < *ends.rbegin();
    };
    if (!Enabled(2) ||
        !unretired_ends.AnyOverlapping(persist.range, in_window)) {
      return;
    }
    for (const TraceEvent* s : spans) {
      const bool overlap = s->range.Overlaps(persist.range) ||
                           s->range2.Overlaps(persist.range);
      if (overlap && persist.ts < s->end() &&
          retired.find(RetireKey(s->seq, s->pid)) == retired.end()) {
        Add(2, persist, s->seq,
            "CPU persist at t=" + std::to_string(persist.ts) +
                " overlaps in-flight request seq=" + std::to_string(s->seq) +
                " (completes t=" + std::to_string(s->end()) +
                ") without ordering it first");
        if (Full()) return;
      }
    }
  }

  // Invariant 3: in a multi-device epoch, maintenance work (log deletion)
  // begins only after everything issued before it has completed everywhere.
  void CheckInvariant3(const TraceEvent& del) {
    // The check is cross-device by nature; a single device orders same-
    // address work through its in-flight table already.
    if (device_pids.size() < 2 || !Enabled(3) || del.ts >= unit_end) {
      return;
    }
    for (const TraceEvent* s : spans) {
      if (s->phase != TracePhase::kUnitExec) {
        continue;
      }
      if (del.ts < s->end()) {
        Add(3, del, del.seq,
            "log deletion seq=" + std::to_string(del.seq) + " executes at t=" +
                std::to_string(del.ts) + " before earlier request seq=" +
                std::to_string(s->seq) + " completes at t=" +
                std::to_string(s->end()) +
                " (commit not ordered behind synchronization)");
        if (Full()) return;
      }
    }
  }

  // Invariant 4: replay only after a crash, only of requests issued before
  // it, never of requests already durable everywhere, never twice.
  void CheckInvariant4(const TraceEvent& replay) {
    if (crash == nullptr) {
      Add(4, replay, replay.seq, "recovery replay without a preceding crash");
      return;
    }
    if (!replayed.insert(replay.seq).second) {
      Add(4, replay, replay.seq,
          "request seq=" + std::to_string(replay.seq) + " replayed twice");
      return;
    }
    const auto issued = first_order.find(replay.seq);
    if (issued == first_order.end() || issued->second >= crash->order) {
      Add(4, replay, replay.seq,
          "replayed request seq=" + std::to_string(replay.seq) +
              " was never issued before the crash");
      return;
    }
    auto it = any_non_durable.find(replay.seq);
    if (it != any_non_durable.end() && !it->second) {
      Add(4, replay, replay.seq,
          "request seq=" + std::to_string(replay.seq) +
              " was already durable on every device yet was replayed");
    }
  }
};

}  // namespace

std::vector<PpoViolation> PpoChecker::Check(
    const std::vector<TraceEvent>& events) const {
  std::vector<PpoViolation> all;
  // A wrapped recorder ring drops the oldest events; the surviving snapshot
  // then starts at some global order > 1, and any invariant verdict would
  // rest on spans we never saw.
  if (require_full_history && !events.empty() && events.front().order != 1) {
    all.push_back(PpoViolation{
        0, 0, events.front().epoch, events.front().ts,
        "insufficient history: trace ring wrapped (first surviving event has "
        "order " + std::to_string(events.front().order) +
        "); invariants cannot be established"});
    return all;
  }
  // Events arrive sorted by global order; epochs are contiguous runs.
  std::size_t i = 0;
  while (i < events.size() && all.size() < max_violations) {
    const std::uint32_t epoch = events[i].epoch;
    EpochChecker checker(max_violations - all.size(), disable_invariants);
    for (; i < events.size() && events[i].epoch == epoch; ++i) {
      if (!checker.Full()) {
        checker.Consume(events[i]);
      }
    }
    all.insert(all.end(), checker.violations.begin(),
               checker.violations.end());
  }
  return all;
}

std::string PpoChecker::Report(const std::vector<PpoViolation>& violations) {
  if (violations.empty()) {
    return "PPO invariants 1-4 hold over the trace\n";
  }
  std::string out = "PPO violations (" + std::to_string(violations.size()) +
                    "):\n";
  for (const PpoViolation& v : violations) {
    out += "  [invariant " + std::to_string(v.invariant) + "] epoch " +
           std::to_string(v.epoch) + " t=" + std::to_string(v.ts) + " seq=" +
           std::to_string(v.seq) + ": " + v.detail + "\n";
  }
  return out;
}

}  // namespace nearpm
