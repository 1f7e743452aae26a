#include "src/spec/model.h"

#include <algorithm>
#include <cassert>
#include <optional>

namespace nearpm {
namespace spec {

const NameTable<SpecMutation>& SpecMutationNames() {
  static const NameTable<SpecMutation> table{
      {SpecMutation::kNone, "none"},
      {SpecMutation::kAtomicRequests, "atomic-requests"},
      {SpecMutation::kWritesDurable, "writes-durable"},
      {SpecMutation::kNoRaces, "no-races"}};
  return table;
}

const char* SpecMutationName(SpecMutation mutation) {
  return SpecMutationNames().Name(mutation);
}

bool SpecMutationFromString(std::string_view text, SpecMutation* out) {
  const std::optional<SpecMutation> m = SpecMutationNames().Parse(text);
  if (m) {
    *out = *m;
  }
  return m.has_value();
}

int LocLine(int loc) { return loc; }
int SlotHeaderLine(int slot) { return kNumLocs + 2 * slot; }
int SlotPayloadLine(int slot) { return kNumLocs + 2 * slot + 1; }

PmAddr LineAddr(int line) {
  if (line < kNumLocs) return LocAddr(line);
  const int slot = (line - kNumLocs) / 2;
  const bool payload = ((line - kNumLocs) % 2) != 0;
  return SlotAddr(slot) + (payload ? kCacheLineSize : 0);
}

int LineDevice(int line) { return DeviceOf(LineAddr(line)); }

std::string AbsVal::Token() const {
  if (!is_header) return std::string(1, static_cast<char>('0' + fill));
  std::string out = "u:";
  out += LocName(target_loc);
  out += ':';
  out += static_cast<char>('0' + payload);
  return out;
}

std::string CanonState(const std::array<AbsVal, kNumLines>& lines) {
  std::string out;
  for (int i = 0; i < kNumLines; ++i) {
    if (i > 0) out += ',';
    out += lines[i].Token();
  }
  return out;
}

namespace {

// Declared write range of an undo-log request: the whole slot (header plus
// the 4 kB payload area), mirroring the documented CC-area layout without
// depending on src/core/log_layout.h.
constexpr std::uint64_t kSlotSize = 64 + 4096;

AbsVal Fill(std::uint8_t v) { return AbsVal{false, v, -1, 0}; }

AddrRange RangeOfLine(int line) {
  const PmAddr a = LineAddr(line);
  return AddrRange{a, a + kCacheLineSize};
}

// Abstract lines overlapping a declared (concrete) range.
std::vector<int> LinesIn(const AddrRange& range) {
  std::vector<int> out;
  if (range.empty()) return out;
  for (int line = 0; line < kNumLines; ++line) {
    const PmAddr a = LineAddr(line);
    if (a < range.end && a + kCacheLineSize > range.begin) out.push_back(line);
  }
  return out;
}

bool RangesOverlap(const AddrRange& a, const AddrRange& b) {
  return !a.empty() && !b.empty() && a.Overlaps(b);
}

// Mirror of the simulated machine during one prefix execution.
struct Sim {
  const bool enforce;
  const SpecMutation mutation;
  SpecExec x;
  std::array<int, kNumLines> lw_idx;       // line -> last writer record index
  std::vector<bool> san_retired;           // per request (1-based)
  std::array<std::size_t, kNumDevices> dev_count{};
  std::uint64_t sync_counter = 0;
  std::uint64_t last_marker = 0;           // sanitizer's marker mirror
  std::uint64_t num_reqs = 0;

  Sim(bool enforce_in, SpecMutation mutation_in)
      : enforce(enforce_in), mutation(mutation_in) {
    x.enforce = enforce_in;
    x.mutation = mutation_in;
    lw_idx.fill(-1);
    san_retired.push_back(false);  // request ordinals are 1-based
  }

  bool TrackCpuState() const {
    return mutation != SpecMutation::kWritesDurable;
  }

  bool DirtyIn(const AddrRange& range) const {
    for (int line : LinesIn(range)) {
      if (x.dirty.count(line) != 0) return true;
    }
    return false;
  }

  void ErasePendingAndShadow(const AddrRange& range) {
    for (int line : LinesIn(range)) {
      x.pending.erase(line);
      x.dirty.erase(line);
    }
  }

  // Retire one slice and, transitively, its same-device dependencies
  // (PmSpace::RetireRequest).
  void RetireSlice(std::size_t idx) {
    SpecRecord& rec = x.records[idx];
    if (rec.forced) return;
    rec.forced = true;
    san_retired[rec.req] = true;
    for (std::size_t dep : rec.deps) RetireSlice(dep);
  }

  void RetireWholeRequest(std::uint64_t req) {
    for (std::size_t i = 0; i < x.records.size(); ++i) {
      if (x.records[i].req == req) RetireSlice(i);
    }
  }

  // The all-device host barrier a CPU access takes in enforce mode:
  // retires every request whose declared ranges conflict with `range`.
  void BarrierRetire(const AddrRange& range, bool access_is_write) {
    if (!enforce) return;
    std::vector<std::uint64_t> hit;
    for (const SpecRecord& rec : x.records) {
      const bool conflict =
          access_is_write
              ? RangesOverlap(range, rec.read_range) ||
                    RangesOverlap(range, rec.write_range)
              : RangesOverlap(range, rec.write_range);
      if (conflict) hit.push_back(rec.req);
    }
    for (std::uint64_t req : hit) RetireWholeRequest(req);
  }

  void RecordSyncMarker() {
    ++sync_counter;
    x.markers.push_back(dev_count);
    x.last_sync = sync_counter;
    last_marker = sync_counter;
  }

  // One request slice: appends the record, wires dependency and dispatcher
  // conflict edges, applies the functional writes.
  std::size_t AppendSlice(std::uint64_t req, int device, bool deferred,
                          std::uint64_t needs_sync, const AddrRange& rd,
                          const AddrRange& wr,
                          std::vector<SpecLineEvent> events) {
    SpecRecord rec;
    rec.req = req;
    rec.device = device;
    rec.ordinal = dev_count[device]++;
    rec.deferred = deferred;
    rec.needs_sync = needs_sync;
    rec.after_sync = sync_counter;
    rec.read_range = rd;
    rec.write_range = wr;
    for (std::size_t i = 0; i < x.records.size(); ++i) {
      const SpecRecord& prev = x.records[i];
      if (prev.device != device) continue;
      // The Dispatcher stalls a conflicting request behind its
      // predecessor's completion: observing the successor started implies
      // the predecessor's slice is durable. Deferred maintenance only
      // checks its write set against in-flight work.
      const bool conflict =
          (!deferred && RangesOverlap(rd, prev.write_range)) ||
          RangesOverlap(wr, prev.read_range) ||
          RangesOverlap(wr, prev.write_range);
      if (conflict) rec.conflicts.push_back(i);
    }
    const std::size_t idx = x.records.size();
    for (SpecLineEvent& ev : events) {
      ev.old_val = x.vol[ev.line];
      const int lw = lw_idx[ev.line];
      if (lw >= 0 && !x.records[lw].forced &&
          x.records[lw].req != req) {
        rec.deps.push_back(static_cast<std::size_t>(lw));
      }
      lw_idx[ev.line] = static_cast<int>(idx);
      x.last_writer[ev.line] = req;
      x.vol[ev.line] = ev.new_val;
      rec.events.push_back(ev);
    }
    x.records.push_back(std::move(rec));
    return idx;
  }

  // The device registers an eviction guard over *both* declared operand
  // ranges of a unit-path request (NearPmDevice::Execute calls GuardRange
  // for read_range and write_range); a later request's registration
  // overwrites earlier guards line by line. Deferred (maintenance) slices
  // register no guards.
  void GuardRanges(std::uint64_t req, const AddrRange& rd,
                   const AddrRange& wr) {
    for (int line : LinesIn(rd)) x.guards[line] = req;
    for (int line : LinesIn(wr)) x.guards[line] = req;
  }

  // The software-managed coherence write-back ahead of every NDP command in
  // enforce mode: pending operand lines are persisted (and leave the
  // sanitizer shadow) before the device may observe them. ObserveRange then
  // retires the last writer of every line the command reads.
  void PreIssue(const AddrRange& rd, const AddrRange& wr) {
    if (enforce) {
      ErasePendingAndShadow(rd);
      ErasePendingAndShadow(wr);
      for (int line : LinesIn(rd)) {
        if (lw_idx[line] >= 0) {
          RetireSlice(static_cast<std::size_t>(lw_idx[line]));
        }
      }
    } else {
      x.preds.npm002 = x.preds.npm002 || DirtyIn(rd) || DirtyIn(wr);
    }
  }

  void DoWrite(int loc, std::uint8_t value) {
    const int line = LocLine(loc);
    // CPU stores land in the cache hierarchy and never consult the devices'
    // in-flight tables -- the relaxation at the heart of PPO. Only loads and
    // persists take the host barrier.
    if (TrackCpuState()) {
      x.pending.emplace(line, x.vol[line]);  // pre-image on first dirtying
      x.dirty.insert(line);
    }
    x.vol[line] = Fill(value);
  }

  void DoPersist(int loc) {
    const AddrRange range = RangeOfLine(LocLine(loc));
    for (const SpecRecord& rec : x.records) {
      if (RangesOverlap(range, rec.read_range) ||
          RangesOverlap(range, rec.write_range)) {
        x.preds.inv2 = true;
      }
    }
    x.preds.npm005 = x.preds.npm005 || !DirtyIn(range);
    BarrierRetire(range, /*access_is_write=*/true);
    ErasePendingAndShadow(range);
  }

  void DoRead(int loc) {
    const AddrRange range = RangeOfLine(LocLine(loc));
    for (const SpecRecord& rec : x.records) {
      if (RangesOverlap(range, rec.write_range)) x.preds.inv1 = true;
    }
    BarrierRetire(range, /*access_is_write=*/false);
    for (const SpecRecord& rec : x.records) {
      if (!san_retired[rec.req] && RangesOverlap(range, rec.write_range)) {
        x.preds.npm003 = true;
      }
    }
  }

  void DoLog(int slot, int loc) {
    const AddrRange rd = RangeOfLine(LocLine(loc));
    const AddrRange wr{SlotAddr(slot), SlotAddr(slot) + kSlotSize};
    PreIssue(rd, wr);
    const std::uint64_t req = ++num_reqs;
    san_retired.push_back(false);
    const AbsVal src = x.vol[LocLine(loc)];
    const int hdr = SlotHeaderLine(slot);
    const int pay = SlotPayloadLine(slot);
    AbsVal header;
    header.is_header = true;
    header.target_loc = loc;
    header.payload = src.fill;
    // Work order is payload copy then validity header; the functional
    // execution walks devices in ascending id order.
    struct Item {
      int line;
      AbsVal val;
    };
    std::vector<Item> work = {{pay, src}, {hdr, header}};
    for (int device = 0; device < kNumDevices; ++device) {
      std::vector<SpecLineEvent> events;
      for (const Item& item : work) {
        if (LineDevice(item.line) != device) continue;
        events.push_back(SpecLineEvent{item.line, AbsVal{}, item.val});
      }
      if (events.empty()) continue;
      AppendSlice(req, device, /*deferred=*/false, 0, rd, wr,
                  std::move(events));
    }
    GuardRanges(req, rd, wr);
  }

  void DoApply(int slot, int loc) {
    const int pay = SlotPayloadLine(slot);
    const AddrRange rd = RangeOfLine(pay);
    const AddrRange wr = RangeOfLine(LocLine(loc));
    PreIssue(rd, wr);
    const std::uint64_t req = ++num_reqs;
    san_retired.push_back(false);
    std::vector<SpecLineEvent> events = {
        SpecLineEvent{LocLine(loc), AbsVal{}, x.vol[pay]}};
    AppendSlice(req, LineDevice(LocLine(loc)), /*deferred=*/false, 0, rd, wr,
                std::move(events));
    GuardRanges(req, rd, wr);
  }

  void DoCommit(const std::vector<int>& slots) {
    std::uint64_t needs_sync = 0;
    if (enforce) {
      // Delayed synchronization: one cross-device sync gates every delete
      // of this commit; the marker precedes the deferred issues.
      RecordSyncMarker();
      needs_sync = sync_counter;
    }
    for (int slot : slots) {
      const int hdr = SlotHeaderLine(slot);
      const AddrRange wr = RangeOfLine(hdr);
      const AddrRange rd{};
      const int touched = LineDevice(hdr);
      if (enforce) {
        ErasePendingAndShadow(wr);
      } else {
        x.preds.npm002 = x.preds.npm002 || DirtyIn(wr);
      }
      // NPM004: any *other* device still carrying a live, non-deferred
      // request issued since the last sync marker.
      for (const SpecRecord& rec : x.records) {
        if (rec.device == touched || rec.deferred) continue;
        if (!san_retired[rec.req] && rec.after_sync == last_marker) {
          x.preds.npm004 = true;
        }
      }
      // Invariant 3: deferred maintenance in a multi-device epoch may start
      // before an earlier unit request completes.
      bool earlier_unit = false;
      std::set<int> devs = {touched};
      for (const SpecRecord& rec : x.records) {
        if (!rec.deferred) earlier_unit = true;
        devs.insert(rec.device);
      }
      if (earlier_unit && devs.size() >= 2) x.preds.inv3 = true;
      const std::uint64_t req = ++num_reqs;
      san_retired.push_back(false);
      std::vector<SpecLineEvent> events = {
          SpecLineEvent{hdr, AbsVal{}, Fill(0)}};
      AppendSlice(req, touched, /*deferred=*/true, needs_sync, rd, wr,
                  std::move(events));
    }
  }

  void DoSync() {
    RecordSyncMarker();
    for (std::size_t i = 0; i < x.records.size(); ++i) RetireSlice(i);
  }
};

}  // namespace

SpecExec Simulate(const LitmusProgram& program, std::size_t prefix_len,
                  bool enforce, SpecMutation mutation) {
  Sim sim(enforce, mutation);
  const std::size_t n = std::min(prefix_len, program.instrs.size());
  for (std::size_t i = 0; i < n; ++i) {
    const LitmusInstr& instr = program.instrs[i];
    switch (instr.op) {
      case LOp::kWrite: sim.DoWrite(instr.loc, instr.value); break;
      case LOp::kPersist: sim.DoPersist(instr.loc); break;
      case LOp::kFence: break;
      case LOp::kRead: sim.DoRead(instr.loc); break;
      case LOp::kLog: sim.DoLog(instr.slot, instr.loc); break;
      case LOp::kApply: sim.DoApply(instr.slot, instr.loc); break;
      case LOp::kCommit: {
        std::vector<int> slots = {instr.slot};
        if (instr.slot2 >= 0) slots.push_back(instr.slot2);
        sim.DoCommit(slots);
        break;
      }
      case LOp::kSync: sim.DoSync(); break;
    }
  }
  sim.x.preds.npm006 = !sim.x.dirty.empty();
  if (mutation == SpecMutation::kNoRaces) {
    sim.x.preds.inv1 = sim.x.preds.inv2 = sim.x.preds.inv3 = false;
    sim.x.preds.npm002 = sim.x.preds.npm003 = sim.x.preds.npm004 = false;
  }
  return sim.x;
}

namespace {

// Per-slice crash assignment: started=false is "dropped"; started with
// keep == events.size() is "durable"; anything shorter is a torn prefix.
struct Assign {
  bool started = false;
  std::uint8_t keep = 0;
};

struct Enumerator {
  const SpecExec& x;
  std::vector<Assign> asgn;
  std::set<std::string>* out;

  bool Durable(std::size_t i) const {
    return asgn[i].started && asgn[i].keep == x.records[i].events.size();
  }

  // Every pending CPU line independently survives (the cache line happened
  // to reach PM on its own) or drops with the cache; the survival choice
  // feeds the write-back guard repair, so each subset is a separate
  // CrashWith evaluation.
  void Leaf() {
    std::vector<std::pair<int, AbsVal>> pending(x.pending.begin(),
                                                x.pending.end());
    const std::size_t variants = std::size_t{1} << pending.size();
    for (std::size_t mask = 0; mask < variants; ++mask) {
      EmitWith(pending, mask);
    }
  }

  // Mirrors PmSpace::CrashWith steps 3-6 for one natural outcome assignment
  // and one pending-line survival subset.
  void EmitWith(const std::vector<std::pair<int, AbsVal>>& pending,
                std::size_t survive_mask) {
    std::vector<bool> durable(x.records.size());
    for (std::size_t i = 0; i < x.records.size(); ++i) {
      durable[i] = x.records[i].forced || Durable(i);
    }
    const auto force_request = [&](std::uint64_t req) {
      for (std::size_t i = 0; i < x.records.size(); ++i) {
        if (x.records[i].req == req) durable[i] = true;
      }
    };
    // 3. Write-back guard repair (enforce mode only): a surviving line
    //    reached PM through the host queue, ordered behind the request
    //    guarding it and behind the line's last NDP writer -- the memory
    //    controller write-back forces *every* slice of those requests
    //    durable, without chasing their dispatcher-conflict predecessors.
    if (x.enforce) {
      for (std::size_t b = 0; b < pending.size(); ++b) {
        if ((survive_mask & (std::size_t{1} << b)) == 0) continue;
        const int line = pending[b].first;
        auto guard = x.guards.find(line);
        if (guard != x.guards.end()) force_request(guard->second);
        auto writer = x.last_writer.find(line);
        if (writer != x.last_writer.end()) force_request(writer->second);
      }
    }
    // 4. Dependency repair: a non-dropped slice forces its same-device
    //    same-line predecessors durable (reverse pass for transitivity).
    for (std::size_t i = x.records.size(); i > 0; --i) {
      if (!durable[i - 1] && !asgn[i - 1].started) continue;
      for (std::size_t dep : x.records[i - 1].deps) durable[dep] = true;
    }
    // 5. Synchronization repair: if anything issued after sync S survives
    //    anywhere, everything issued before S is durable everywhere.
    std::uint64_t frontier = 0;
    for (std::size_t i = 0; i < x.records.size(); ++i) {
      if (durable[i] || asgn[i].started) {
        frontier = std::max(frontier, x.records[i].after_sync);
      }
    }
    if (frontier > 0) {
      for (std::size_t i = 0; i < x.records.size(); ++i) {
        const SpecRecord& rec = x.records[i];
        if (rec.ordinal < x.markers[frontier - 1][rec.device]) {
          durable[i] = true;
        }
      }
    }
    // 6. Roll back non-durable slices newest-first; then resolve pending
    //    lines (machine order is pending first, rollback second, so a
    //    rolled-back line ends at the rollback value either way).
    std::array<AbsVal, kNumLines> image = x.vol;
    std::array<bool, kNumLines> rolled{};
    for (std::size_t i = x.records.size(); i > 0; --i) {
      const SpecRecord& rec = x.records[i - 1];
      if (durable[i - 1]) continue;
      const std::size_t keep = asgn[i - 1].started ? asgn[i - 1].keep : 0;
      for (std::size_t e = rec.events.size(); e > keep; --e) {
        const SpecLineEvent& ev = rec.events[e - 1];
        image[ev.line] = ev.old_val;
        rolled[ev.line] = true;
      }
    }
    for (std::size_t b = 0; b < pending.size(); ++b) {
      const auto& [line, pre] = pending[b];
      if (rolled[line]) continue;
      if ((survive_mask & (std::size_t{1} << b)) == 0) {
        image[line] = pre;
      }
    }
    out->insert(CanonState(image));
  }

  void Recurse(std::size_t i) {
    if (i == x.records.size()) {
      Leaf();
      return;
    }
    const SpecRecord& rec = x.records[i];
    const auto n = static_cast<std::uint8_t>(rec.events.size());
    auto consistent = [&](bool started) {
      if (!started) return true;
      // A started slice implies its dependency and dispatcher-conflict
      // predecessors (always earlier indices) completed.
      for (std::size_t dep : rec.deps) {
        if (!Durable(dep)) return false;
      }
      for (std::size_t c : rec.conflicts) {
        if (!Durable(c)) return false;
      }
      return true;
    };
    if (rec.forced) {
      // A retired slice is durable unconditionally; retiring never forces
      // dispatcher-conflict predecessors durable (RetireRequest only chases
      // same-device dependencies), so no consistency constraint applies.
      asgn[i] = Assign{true, n};
      Recurse(i + 1);
      return;
    }
    asgn[i] = Assign{false, 0};
    Recurse(i + 1);
    if (!consistent(true)) return;
    if (x.mutation == SpecMutation::kAtomicRequests) {
      asgn[i] = Assign{true, n};
      Recurse(i + 1);
      return;
    }
    for (std::uint8_t keep = 0; keep <= n; ++keep) {
      asgn[i] = Assign{true, keep};
      Recurse(i + 1);
    }
  }
};

}  // namespace

std::vector<std::string> AllowedStates(const SpecExec& exec) {
  std::set<std::string> states;
  Enumerator e{exec, std::vector<Assign>(exec.records.size()), &states};
  e.Recurse(0);
  return {states.begin(), states.end()};
}

}  // namespace spec
}  // namespace nearpm
