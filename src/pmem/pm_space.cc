#include "src/pmem/pm_space.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/analyze/sanitizer.h"

namespace nearpm {
namespace {

// Execution outcome of a request at the failure instant, derived from its
// execution window on the device timeline.
enum class ReqState { kDropped, kPartial, kDurable };

}  // namespace

PmSpace::PmSpace(const PmSpaceOptions& options)
    : options_(options),
      interleave_(options.num_devices, options.stripe),
      current_(MapZeroedArray<std::uint8_t>(options.size)),
      size_(options.size),
      device_logs_(static_cast<size_t>(options.num_devices)) {
  if (options_.retain_crash_state) {
    const std::size_t lines =
        (size_ + kCacheLineSize - 1) / kCacheLineSize;
    read_guards_ = MapZeroedArray<LineSeq>(lines);
    for (DeviceLog& log : device_logs_) {
      log.last_writer = MapZeroedArray<LineSeq>(lines);
    }
  }
}

void PmSpace::CheckRange(PmAddr addr, std::uint64_t len) const {
  assert(addr + len <= size_ && addr + len >= addr);
  (void)addr;
  (void)len;
}

void PmSpace::SnapshotPendingLine(PmAddr line_base) {
  auto [it, inserted] = pending_.try_emplace(line_base);
  if (inserted) {  // else the pre-image was captured since the last persist
    std::memcpy(it->second.data(), current_.get() + line_base,
                kCacheLineSize);
  }
}

void PmSpace::ObserveRange(const AddrRange& range) {
  if (!options_.retain_crash_state || !options_.enforce_observation ||
      range.empty()) {
    return;
  }
  const PmAddr first = AlignDown(range.begin, kCacheLineSize);
  const PmAddr last = AlignDown(range.end - 1, kCacheLineSize);
  for (PmAddr line = first; line <= last; line += kCacheLineSize) {
    const DeviceId dev = interleave_.DeviceOf(line);
    DeviceLog& log = device_logs_[dev];
    if (log.last_writer_lines == 0) {
      continue;
    }
    if (const LineSeq* w = Find(log.last_writer, line)) {
      RetireRequest(dev, w->seq);
    }
  }
}

void PmSpace::CpuWrite(PmAddr addr, std::span<const std::uint8_t> data) {
  CheckRange(addr, data.size());
  // A blind store does not observe NDP writes to the same lines; crash
  // consistency of the overlap is handled by the write-back guard repair
  // (surviving line => last NDP writer durable) and by rollback ordering.
  if (options_.retain_crash_state && !data.empty()) {
    const PmAddr first = AlignDown(addr, kCacheLineSize);
    const PmAddr last = AlignDown(addr + data.size() - 1, kCacheLineSize);
    for (PmAddr line = first; line <= last; line += kCacheLineSize) {
      SnapshotPendingLine(line);
    }
  }
  std::memcpy(current_.get() + addr, data.data(), data.size());
}

void PmSpace::CpuRead(PmAddr addr, std::span<std::uint8_t> out) {
  CheckRange(addr, out.size());
  // Observation ordering: a load that returns an NDP request's write is
  // ordered after that request's completion.
  ObserveRange(AddrRange{addr, addr + out.size()});
  std::memcpy(out.data(), current_.get() + addr, out.size());
}

void PmSpace::CpuPersist(PmAddr addr, std::uint64_t size) {
  if (!options_.retain_crash_state || size == 0) {
    return;
  }
  CheckRange(addr, size);
  const PmAddr first = AlignDown(addr, kCacheLineSize);
  const PmAddr last = AlignDown(addr + size - 1, kCacheLineSize);
  for (PmAddr line = first; line <= last; line += kCacheLineSize) {
    pending_.erase(line);
  }
}

std::uint64_t PmSpace::PendingLinesIn(const AddrRange& range) const {
  if (range.empty() || pending_.empty()) {
    return 0;
  }
  std::uint64_t n = 0;
  const PmAddr first = AlignDown(range.begin, kCacheLineSize);
  const PmAddr last = AlignDown(range.end - 1, kCacheLineSize);
  for (PmAddr line = first; line <= last; line += kCacheLineSize) {
    n += pending_.count(line);
  }
  return n;
}

void PmSpace::BeginNdpRequest(DeviceId device, std::uint64_t request_seq,
                              std::uint64_t start_ns,
                              std::uint64_t completion_ns) {
  if (!options_.retain_crash_state) {
    return;
  }
  assert(device < device_logs_.size());
  DeviceLog& log = device_logs_[device];
  assert(log.by_seq.find(request_seq) == log.by_seq.end() &&
         "request already declared on this device");
  log.by_seq.emplace(request_seq, log.base + log.records.size());
  log.records.push_back(RequestRecord{});
  RequestRecord& rec = log.records.back();
  rec.seq = request_seq;
  rec.after_sync = last_sync_id_;
  rec.start_ns = start_ns;
  rec.completion_ns = completion_ns;
}

void PmSpace::NdpWrite(DeviceId device, std::uint64_t request_seq, PmAddr addr,
                       std::span<const std::uint8_t> data) {
  CheckRange(addr, data.size());
  assert(device < device_logs_.size());
  if (!options_.retain_crash_state) {
    std::memcpy(current_.get() + addr, data.data(), data.size());
    return;
  }
  // The runtime persists CPU pending lines before issuing any NDP request
  // that touches them (software-managed coherence, Section 7); an overlap
  // here is a PPO violation in the caller (legal in the ablation mode).
  assert(!options_.enforce_observation ||
         PendingLinesIn(AddrRange{addr, addr + data.size()}) == 0);

  DeviceLog& log = device_logs_[device];
  assert(!log.records.empty() && log.records.back().seq == request_seq &&
         !log.records.back().retired && "request not declared on this device");
  RequestRecord* rec = &log.records.back();

  // Record one event per cacheline so a crash can truncate a copy mid-way,
  // and collect dependency edges to earlier live requests on the same lines.
  std::uint64_t off = 0;
  while (off < data.size()) {
    const PmAddr cur = addr + off;
    const PmAddr line_base = AlignDown(cur, kCacheLineSize);
    const PmAddr line_end = line_base + kCacheLineSize;
    const std::uint64_t n =
        std::min<std::uint64_t>(line_end - cur, data.size() - off);

    if (const LineSeq* w = Find(log.last_writer, line_base)) {
      if (w->seq != request_seq) {
        auto pos = log.by_seq.find(w->seq);
        if (pos != log.by_seq.end() &&
            !log.records[pos->second - log.base].retired) {
          rec->deps.push_back(w->seq);
        }
      }
    } else {
      ++log.last_writer_lines;
    }
    Stamp(log.last_writer, line_base, request_seq);

    LineEvent& ev = rec->lines.emplace_back();
    ev.addr = cur;
    ev.len = static_cast<std::uint8_t>(n);
    std::memcpy(ev.old_bytes.data(), current_.get() + cur, n);
    std::memcpy(current_.get() + cur, data.data() + off, n);
    off += n;
  }
}

void PmSpace::GuardRange(DeviceId device, std::uint64_t request_seq,
                         const AddrRange& range) {
  if (!options_.retain_crash_state || range.empty()) {
    return;
  }
  const PmAddr first = AlignDown(range.begin, kCacheLineSize);
  const PmAddr last = AlignDown(range.end - 1, kCacheLineSize);
  (void)device;  // only the seq is read back (the crash's guard repair)
  for (PmAddr line = first; line <= last; line += kCacheLineSize) {
    Stamp(read_guards_, line, request_seq);
  }
}

void PmSpace::SyncMarker(std::uint64_t sync_id) {
  NEARPM_SAN_HOOK(san_, OnSyncMarker(sync_id));
  if (!options_.retain_crash_state) {
    return;
  }
  assert(sync_id > last_sync_id_);
  last_sync_id_ = sync_id;
  for (auto& log : device_logs_) {
    log.sync_positions.emplace_back(sync_id, log.base + log.records.size());
  }
}

void PmSpace::RetireRecord(DeviceLog& log, RequestRecord& rec) {
  if (rec.retired) {
    return;
  }
  rec.retired = true;
  for (const LineEvent& ev : rec.lines) {
    LineSeq* w = Find(log.last_writer, AlignDown(ev.addr, kCacheLineSize));
    if (w != nullptr && w->seq == rec.seq) {
      w->generation = 0;
      --log.last_writer_lines;
    }
  }
  rec.lines.clear();
  rec.lines.shrink_to_fit();
  rec.deps.clear();
}

void PmSpace::RetireRequest(DeviceId device, std::uint64_t request_seq) {
  NEARPM_SAN_HOOK(san_, OnRetire(device, request_seq));
  if (!options_.retain_crash_state) {
    return;
  }
  DeviceLog& log = device_logs_[device];
  auto it = log.by_seq.find(request_seq);
  if (it == log.by_seq.end()) {
    return;  // never wrote anything on this device, or already compacted
  }
  RequestRecord& rec = log.records[it->second - log.base];
  // A request completes only after everything it was ordered behind.
  for (std::uint64_t dep : rec.deps) {
    RetireRequest(device, dep);
  }
  RetireRecord(log, rec);
  CompactLogs();
}

void PmSpace::RetireThroughSync(std::uint64_t sync_id) {
  NEARPM_SAN_HOOK(san_, OnSyncComplete(sync_id));
  if (!options_.retain_crash_state) {
    return;
  }
  for (auto& log : device_logs_) {
    std::size_t pos = 0;
    for (const auto& [id, p] : log.sync_positions) {
      if (id <= sync_id) {
        pos = p;
      }
    }
    for (std::size_t i = log.base; i < pos; ++i) {
      RetireRecord(log, log.records[i - log.base]);
    }
  }
  CompactLogs();
}

void PmSpace::CompactLogs() {
  for (auto& log : device_logs_) {
    while (!log.records.empty() && log.records.front().retired) {
      log.by_seq.erase(log.records.front().seq);
      log.records.pop_front();
      ++log.base;
    }
    // Markers older than every live record can go as soon as no live record
    // precedes them.
    while (log.sync_positions.size() > 1 &&
           log.sync_positions[1].second <= log.base) {
      log.sync_positions.erase(log.sync_positions.begin());
    }
  }
}

std::uint64_t PmSpace::live_request_count(DeviceId device) const {
  const DeviceLog& log = device_logs_.at(device);
  std::uint64_t n = 0;
  for (const auto& rec : log.records) {
    n += rec.retired ? 0 : 1;
  }
  return n;
}

std::vector<PmAddr> PmSpace::PendingLineAddrs() const {
  std::vector<PmAddr> lines;
  lines.reserve(pending_.size());
  for (const auto& [line, old_bytes] : pending_) {
    lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

CrashReport PmSpace::Crash(Rng& rng, std::uint64_t crash_time) {
  // Keeps the historical sampling order (map iteration) so seeded test
  // sweeps reproduce the same crash states as before the plan API existed.
  return CrashWith(crash_time, [&](PmAddr) {
    return rng.NextBool(options_.pending_line_survival);
  });
}

CrashReport PmSpace::Crash(const CrashPlan& plan) {
  const std::vector<PmAddr> ranked = PendingLineAddrs();
  std::unordered_map<PmAddr, bool> survive_by_line;
  survive_by_line.reserve(ranked.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    survive_by_line[ranked[i]] =
        i < plan.line_survival.size() && plan.line_survival[i];
  }
  return CrashWith(plan.crash_time, [&](PmAddr line) {
    return survive_by_line[line];
  });
}

template <typename SurviveFn>
CrashReport PmSpace::CrashWith(std::uint64_t crash_time, SurviveFn&& survive) {
  CrashReport report;
  assert(options_.retain_crash_state);

  const std::size_t num_devices = device_logs_.size();
  report.outcomes.resize(num_devices);

  // 1. Resolve pending CPU lines: each independently survived (was evicted
  //    to PM on its own) or is lost with the cache. Survivors' lines are
  //    collected for the write-back guard repair below.
  std::vector<PmAddr> survivor_lines;
  for (auto& [line, old_bytes] : pending_) {
    if (survive(line)) {
      ++report.cpu_lines_survived;
      survivor_lines.push_back(line);
    } else {
      std::memcpy(current_.get() + line, old_bytes.data(), kCacheLineSize);
      ++report.cpu_lines_dropped;
    }
  }
  pending_.clear();

  // 2. Derive each request's outcome from its execution window: completed
  //    before the failure -> durable; mid-execution -> truncated; not yet
  //    started -> dropped. Outcome per live record, indexed per device by
  //    record index.
  std::vector<std::vector<ReqState>> state(num_devices);
  for (std::size_t d = 0; d < num_devices; ++d) {
    auto& recs = device_logs_[d].records;
    state[d].resize(recs.size(), ReqState::kDurable);
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (recs[i].retired || recs[i].completion_ns <= crash_time) {
        continue;
      }
      state[d][i] = recs[i].start_ns >= crash_time ? ReqState::kDropped
                                                   : ReqState::kPartial;
    }
  }

  // 3. Write-back guard repair: a surviving un-persisted line reached PM
  //    through the device's host queue, which orders it behind every
  //    in-flight request reading or writing the line -- those requests must
  //    have completed. (Skipped in the enforce_ppo=false ablation: naive
  //    hardware provides no such ordering.)
  if (options_.enforce_observation) {
    // The write-back goes through the memory controller, which orders it
    // behind the guarded request on *every* device the (possibly duplicated)
    // command runs on -- the same all-device barrier an explicit persist
    // takes. Forcing only one device's slice durable could keep a slot
    // header whose payload half on the sibling device was lost.
    auto force_durable = [&](std::uint64_t seq) {
      for (std::size_t dev = 0; dev < num_devices; ++dev) {
        DeviceLog& log = device_logs_[dev];
        auto it = log.by_seq.find(seq);
        if (it != log.by_seq.end()) {
          state[dev][it->second - log.base] = ReqState::kDurable;
        }
      }
    };
    for (PmAddr line : survivor_lines) {
      if (const LineSeq* guard = Find(read_guards_, line)) {
        force_durable(guard->seq);
      }
      const DeviceId dev = interleave_.DeviceOf(line);
      if (const LineSeq* writer = Find(device_logs_[dev].last_writer, line)) {
        force_durable(writer->seq);
      }
    }
  }

  // 4. Dependency repair: a request observed (even partially) implies its
  //    conflicting predecessors fully executed (the Dispatcher serialized
  //    them). Reverse pass gives transitivity since deps point backwards.
  for (std::size_t d = 0; d < num_devices; ++d) {
    DeviceLog& log = device_logs_[d];
    for (std::size_t i = log.records.size(); i > 0; --i) {
      const RequestRecord& rec = log.records[i - 1];
      if (rec.retired || state[d][i - 1] == ReqState::kDropped) {
        continue;
      }
      for (std::uint64_t dep : rec.deps) {
        auto it = log.by_seq.find(dep);
        if (it != log.by_seq.end()) {
          state[d][it->second - log.base] = ReqState::kDurable;
        }
      }
    }
  }

  // 5. Synchronization repair (Invariant 3): if anything issued after sync S
  //    is durable anywhere, everything issued before S is durable everywhere.
  std::uint64_t frontier = 0;
  for (std::size_t d = 0; d < num_devices; ++d) {
    const auto& recs = device_logs_[d].records;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (!recs[i].retired && state[d][i] != ReqState::kDropped) {
        frontier = std::max(frontier, recs[i].after_sync);
      }
      if (recs[i].retired) {
        frontier = std::max(frontier, recs[i].after_sync);
      }
    }
  }
  report.frontier_sync = frontier;
  if (frontier != 0 && !options_.skip_frontier_replay) {
    for (std::size_t d = 0; d < num_devices; ++d) {
      DeviceLog& log = device_logs_[d];
      std::size_t pos = 0;
      for (const auto& [id, p] : log.sync_positions) {
        if (id <= frontier) {
          pos = p;
        }
      }
      for (std::size_t i = log.base; i < pos; ++i) {
        const std::size_t idx = i - log.base;
        if (!log.records[idx].retired &&
            state[d][idx] != ReqState::kDurable) {
          state[d][idx] = ReqState::kDurable;
          ++report.forced_by_sync;
        }
      }
    }
  }

  // 6. Roll back, newest first within each device. Dropped requests restore
  //    all pre-images; partial requests keep a random prefix of their line
  //    writes (the DMA engine copies in address order) and restore the rest.
  for (std::size_t d = 0; d < num_devices; ++d) {
    DeviceLog& log = device_logs_[d];
    for (std::size_t i = log.records.size(); i > 0; --i) {
      RequestRecord& rec = log.records[i - 1];
      if (rec.retired) {
        ++report.requests_durable;
        report.outcomes[d][rec.seq] = CrashOutcome::kDurable;
        continue;
      }
      std::size_t keep = rec.lines.size();
      switch (state[d][i - 1]) {
        case ReqState::kDurable:
          ++report.requests_durable;
          report.outcomes[d][rec.seq] = CrashOutcome::kDurable;
          continue;
        case ReqState::kPartial: {
          // The DMA engine writes lines in order; keep the prefix matching
          // the elapsed fraction of the execution window.
          const double span_ns =
              static_cast<double>(rec.completion_ns - rec.start_ns);
          const double frac =
              span_ns <= 0.0 ? 0.0
                             : static_cast<double>(crash_time - rec.start_ns) /
                                   span_ns;
          keep = static_cast<std::size_t>(
              frac * static_cast<double>(rec.lines.size()));
          ++report.requests_truncated;
          report.outcomes[d][rec.seq] = CrashOutcome::kPartial;
          break;
        }
        case ReqState::kDropped:
          keep = 0;
          ++report.requests_dropped;
          report.outcomes[d][rec.seq] = CrashOutcome::kDropped;
          break;
      }
      for (std::size_t j = rec.lines.size(); j > keep; --j) {
        const LineEvent& ev = rec.lines[j - 1];
        std::memcpy(current_.get() + ev.addr, ev.old_bytes.data(), ev.len);
      }
    }
  }

  if (NEARPM_TRACE_ENABLED(trace_)) {
    for (std::size_t d = 0; d < report.outcomes.size(); ++d) {
      for (const auto& [seq, outcome] : report.outcomes[d]) {
        NEARPM_TRACE_EVENT(trace_, .phase = TracePhase::kCrashOutcome,
                           .pid = TraceDevicePid(static_cast<DeviceId>(d)),
                           .tid = kTraceDispatcherTid, .ts = crash_time,
                           .seq = seq,
                           .arg0 = static_cast<std::uint64_t>(outcome));
      }
    }
  }

  ClearLogs();
  last_sync_id_ = 0;
  return report;
}

void PmSpace::Quiesce() {
  NEARPM_SAN_HOOK(san_, OnQuiesce());
  pending_.clear();
  ClearLogs();
}

void PmSpace::ClearLogs() {
  for (auto& log : device_logs_) {
    log.records.clear();
    log.by_seq.clear();
    log.last_writer_lines = 0;
    log.sync_positions.clear();
    log.base = 0;
  }
  ++generation_;  // empties every line table at once
}

}  // namespace nearpm
