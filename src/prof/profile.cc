#include "src/prof/profile.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>

#include "src/trace/chrome_exporter.h"
#include "src/trace/metrics.h"

namespace nearpm {

namespace {

// In-flight state of one request lifecycle while its events stream past.
// The device records kCmdPost, kFifoEnqueue, kDevPipeline, optional
// kConflictStall and kUnitExec contiguously (the simulator runs on one OS
// thread), so a builder opens at kCmdPost and closes at kUnitExec.
struct SliceBuilder {
  std::uint32_t epoch = 0;
  std::uint64_t op = 0;
  std::uint64_t trace = 0;
  SimTime post_ts = 0;
  SimTime post_end = 0;
  SimTime nominal_release = 0;  // kCmdPost arg1
  bool has_pipeline = false;
  SimTime pipe_ts = 0;
  SimTime pipe_end = 0;
  SimTime start_lb = 0;  // kDevPipeline arg1 (ordered start lower bound)
  bool has_stall = false;
  SimTime stall_ts = 0;
  SimTime stall_end = 0;
};

// Closes a builder against its kUnitExec event. Returns false when the
// recorded windows do not tile the span exactly -- an attribution
// violation, meaning instrumentation and profiler disagree; `out` then
// carries the slice's identity only.
bool FinalizeSlice(const SliceBuilder& b, const TraceEvent& exec,
                   RequestSlice* out) {
  out->seq = exec.seq;
  out->trace = b.trace != 0 ? b.trace : exec.trace;
  out->epoch = b.epoch;
  out->device_pid = exec.pid;
  out->unit_tid = exec.tid;
  out->op = b.op;
  out->post_ts = b.post_ts;
  out->completion = exec.end();

  // Continuity: each window must start where the previous one ended.
  if (!b.has_pipeline || b.pipe_ts != b.post_end) return false;
  if (b.nominal_release < b.post_ts || b.nominal_release > b.post_end) {
    return false;
  }
  if (b.start_lb < b.pipe_end) return false;
  if (b.has_stall && b.stall_ts != b.start_lb) return false;
  const SimTime ready = b.has_stall ? b.stall_end : b.start_lb;
  if (exec.ts < ready || exec.end() < exec.ts) return false;

  auto set = [out](AttrPhase p, SimTime v) {
    out->phase_ns[static_cast<int>(p)] = v;
  };
  set(AttrPhase::kCmdPost, b.nominal_release - b.post_ts);
  set(AttrPhase::kFifoBackpressure, b.post_end - b.nominal_release);
  set(AttrPhase::kDevPipeline, b.pipe_end - b.pipe_ts);
  set(AttrPhase::kSyncWait, b.start_lb - b.pipe_end);
  set(AttrPhase::kConflictStall, b.has_stall ? b.stall_end - b.stall_ts : 0);
  set(AttrPhase::kUnitWait, exec.ts - ready);
  set(AttrPhase::kUnitExec, exec.dur);
  return out->PhaseSum() == out->span_ns();
}

}  // namespace

const char* AttrPhaseName(AttrPhase phase) {
  switch (phase) {
    case AttrPhase::kCmdPost:
      return "cmd_post";
    case AttrPhase::kFifoBackpressure:
      return "fifo_backpressure";
    case AttrPhase::kDevPipeline:
      return "dev_pipeline";
    case AttrPhase::kSyncWait:
      return "sync_wait";
    case AttrPhase::kConflictStall:
      return "conflict_stall";
    case AttrPhase::kUnitWait:
      return "unit_wait";
    case AttrPhase::kUnitExec:
      return "unit_exec";
    case AttrPhase::kNumPhases:
      break;
  }
  return "?";
}

SimTime RequestSlice::PhaseSum() const {
  SimTime sum = 0;
  for (int i = 0; i < kNumAttrPhases; ++i) {
    sum += phase_ns[i];
  }
  return sum;
}

Profile BuildProfile(const std::vector<TraceEvent>& events,
                     const ProfileOptions& options) {
  std::vector<TraceEvent> sorted = events;
  std::sort(sorted.begin(), sorted.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.order < b.order;
            });

  Profile profile;
  profile.events = sorted.size();

  std::unordered_map<std::uint64_t, SliceBuilder> open;
  std::map<std::uint32_t, SimTime> epoch_end;
  struct Interval {
    std::uint32_t epoch;
    SimTime ts;
    SimTime end;
  };
  struct TrackAcc {
    std::uint64_t spans = 0;
    std::vector<Interval> intervals;
  };
  std::map<std::pair<std::uint32_t, std::uint32_t>, TrackAcc> tracks;
  struct OccAcc {
    std::uint64_t samples = 0;
    std::uint64_t max = 0;
    double sum = 0.0;
  };
  std::map<std::tuple<TracePhase, std::uint32_t, std::uint32_t>, OccAcc> occ;
  std::set<std::uint32_t> epochs;

  for (const TraceEvent& e : sorted) {
    epochs.insert(e.epoch);
    SimTime& end = epoch_end[e.epoch];
    end = std::max(end, e.end());

    if (TracePhaseIsCounter(e.phase)) {
      OccAcc& acc = occ[{e.phase, e.pid, e.tid}];
      ++acc.samples;
      acc.max = std::max(acc.max, e.arg0);
      acc.sum += static_cast<double>(e.arg0);
      continue;
    }

    if (e.is_span()) {
      TrackAcc& acc = tracks[{e.pid, e.tid}];
      ++acc.spans;
      acc.intervals.push_back({e.epoch, e.ts, e.end()});
      // Pipeline-stage spans are keyed per stage so a sweep can compare
      // dispatch vs execute vs writeback residency directly. They nest
      // inside their request's kUnitExec span on the same unit track, so
      // the duty-cycle union above is unchanged by their presence.
      std::string key = TracePhaseName(e.phase);
      if (e.phase == TracePhase::kPipeStage) {
        key += '_';
        key += PipeStageName(static_cast<PipeStage>(e.arg0));
      }
      SpanTotal& total = profile.span_totals[key];
      ++total.count;
      total.total_ns += e.dur;
    }

    switch (e.phase) {
      case TracePhase::kCmdPost: {
        auto it = open.find(e.seq);
        if (it != open.end()) {
          // A lifecycle for this seq never reached kUnitExec: its tail was
          // evicted from a ring. Drop it and start over.
          ++profile.incomplete_slices;
          open.erase(it);
        }
        SliceBuilder& b = open[e.seq];
        b.epoch = e.epoch;
        b.op = e.arg0;
        b.trace = e.trace;
        b.post_ts = e.ts;
        b.post_end = e.end();
        b.nominal_release = e.arg1;
        break;
      }
      case TracePhase::kDevPipeline: {
        auto it = open.find(e.seq);
        if (it != open.end() && it->second.epoch == e.epoch &&
            !it->second.has_pipeline) {
          it->second.has_pipeline = true;
          it->second.pipe_ts = e.ts;
          it->second.pipe_end = e.end();
          it->second.start_lb = e.arg1;
        }
        break;
      }
      case TracePhase::kConflictStall: {
        auto it = open.find(e.seq);
        if (it != open.end() && it->second.epoch == e.epoch &&
            it->second.has_pipeline && !it->second.has_stall) {
          it->second.has_stall = true;
          it->second.stall_ts = e.ts;
          it->second.stall_end = e.end();
        }
        break;
      }
      case TracePhase::kUnitExec: {
        auto it = open.find(e.seq);
        if (it == open.end() || it->second.epoch != e.epoch) {
          // Head of the lifecycle was evicted from its ring.
          ++profile.incomplete_slices;
          if (it != open.end()) open.erase(it);
          break;
        }
        RequestSlice slice;
        if (FinalizeSlice(it->second, e, &slice)) {
          profile.total_span_ns += slice.span_ns();
          for (int i = 0; i < kNumAttrPhases; ++i) {
            profile.phase_total_ns[i] += slice.phase_ns[i];
          }
          profile.slices.push_back(slice);
        } else {
          profile.attribution_violations.push_back(slice);
        }
        open.erase(it);
        break;
      }
      default:
        break;
    }
  }
  // Lifecycles still open at end of stream never completed.
  profile.incomplete_slices += open.size();
  profile.epochs = static_cast<std::uint32_t>(epochs.size());

  // Slowest slices, deterministically ordered: span descending, then
  // (epoch, seq, device) ascending as the tie break.
  profile.slowest.resize(profile.slices.size());
  for (std::size_t i = 0; i < profile.slowest.size(); ++i) {
    profile.slowest[i] = i;
  }
  std::sort(profile.slowest.begin(), profile.slowest.end(),
            [&](std::size_t a, std::size_t b) {
              const RequestSlice& sa = profile.slices[a];
              const RequestSlice& sb = profile.slices[b];
              if (sa.span_ns() != sb.span_ns()) {
                return sa.span_ns() > sb.span_ns();
              }
              return std::tie(sa.epoch, sa.seq, sa.device_pid) <
                     std::tie(sb.epoch, sb.seq, sb.device_pid);
            });
  if (options.top_slowest >= 0 &&
      profile.slowest.size() > static_cast<std::size_t>(options.top_slowest)) {
    profile.slowest.resize(static_cast<std::size_t>(options.top_slowest));
  }

  // The observation window is the same for every resource: the sum of the
  // per-epoch makespans (each epoch restarts the virtual clocks at zero).
  SimTime window = 0;
  for (const auto& [epoch, end] : epoch_end) {
    (void)epoch;
    window += end;
  }
  for (auto& [key, acc] : tracks) {
    ResourceUsage usage;
    usage.pid = key.first;
    usage.tid = key.second;
    usage.name = TraceProcessName(usage.pid) + " / " +
                 TraceThreadName(usage.pid, usage.tid);
    usage.spans = acc.spans;
    // Busy time is the union of the track's span intervals, not the sum of
    // their durations: spans overlap legitimately (per-thread virtual
    // clocks issue against one device concurrently, batch spans nest their
    // requests' spans), and a duty cycle must stay within [0, 1].
    std::sort(acc.intervals.begin(), acc.intervals.end(),
              [](const Interval& a, const Interval& b) {
                return std::tie(a.epoch, a.ts, a.end) <
                       std::tie(b.epoch, b.ts, b.end);
              });
    SimTime busy = 0;
    bool open_interval = false;
    Interval current{};
    for (const Interval& iv : acc.intervals) {
      if (open_interval && iv.epoch == current.epoch &&
          iv.ts <= current.end) {
        current.end = std::max(current.end, iv.end);
        continue;
      }
      if (open_interval) busy += current.end - current.ts;
      current = iv;
      open_interval = true;
    }
    if (open_interval) busy += current.end - current.ts;
    usage.busy_ns = busy;
    usage.window_ns = window;
    profile.resources.push_back(usage);
  }
  for (const auto& [key, acc] : occ) {
    OccupancySeries series;
    series.phase = std::get<0>(key);
    series.pid = std::get<1>(key);
    series.tid = std::get<2>(key);
    series.name = TraceProcessName(series.pid) + " / " +
                  TraceThreadName(series.pid, series.tid);
    series.samples = acc.samples;
    series.max = acc.max;
    series.mean =
        acc.samples == 0 ? 0.0 : acc.sum / static_cast<double>(acc.samples);
    profile.occupancy.push_back(series);
  }
  return profile;
}

Profile BuildProfile(const TraceRecorder& recorder,
                     const ProfileOptions& options) {
  return BuildProfile(recorder.Snapshot(), options);
}

void ExportResourceMetrics(const Profile& profile, MetricsRegistry* registry,
                           const std::string& prefix,
                           const std::string& extra_labels) {
  // Track names ("network fabric / link 0->1", "serve front end / worker")
  // are arbitrary strings; they ride as label values and must be escaped per
  // the Prometheus exposition rules.
  for (const ResourceUsage& usage : profile.resources) {
    const std::string labels =
        "{" + extra_labels + "resource=\"" + EscapeLabelValue(usage.name) +
        "\"}";
    registry->SetGauge(prefix + "duty" + labels, usage.duty());
    registry->SetGauge(prefix + "busy_ns" + labels,
                       static_cast<double>(usage.busy_ns));
  }
  for (const OccupancySeries& series : profile.occupancy) {
    const std::string labels = "{" + extra_labels + "series=\"" +
                               TracePhaseName(series.phase) +
                               "\",resource=\"" +
                               EscapeLabelValue(series.name) + "\"}";
    registry->SetGauge(prefix + "occupancy_mean" + labels, series.mean);
    registry->SetGauge(prefix + "occupancy_max" + labels,
                       static_cast<double>(series.max));
    registry->SetGauge(prefix + "occupancy_samples" + labels,
                       static_cast<double>(series.samples));
  }
}

}  // namespace nearpm
