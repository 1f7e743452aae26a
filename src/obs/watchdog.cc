#include "src/obs/watchdog.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "src/common/json.h"

namespace nearpm {
namespace obs {

namespace {

std::string DoubleText(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

const char* SloRuleName(SloRule rule) {
  switch (rule) {
    case SloRule::kP99Latency:
      return "p99_latency";
    case SloRule::kErrorRate:
      return "error_rate";
    case SloRule::kStallFraction:
      return "stall_fraction";
  }
  return "?";
}

std::string SloAlertJson(const SloAlert& alert) {
  std::ostringstream os;
  os << "{\"id\":" << alert.id << ",\"sim_now\":" << alert.sim_now
     << ",\"rule\":\"" << SloRuleName(alert.rule) << "\""
     << ",\"observed\":" << DoubleText(alert.observed)
     << ",\"bound\":" << DoubleText(alert.bound) << ",\"window\":{"
     << "\"window_ns\":" << alert.window.window_ns
     << ",\"count\":" << alert.window.count
     << ",\"errors\":" << alert.window.errors
     << ",\"qps\":" << DoubleText(alert.window.Qps())
     << ",\"error_rate\":" << DoubleText(alert.window.ErrorRate())
     << ",\"p50_ns\":" << alert.window.latency.Percentile(0.5)
     << ",\"p99_ns\":" << alert.window.latency.Percentile(0.99)
     << ",\"depth_max\":" << alert.window.depth_max << "}"
     << ",\"stalled\":" << alert.stalled
     << ",\"attempted\":" << alert.attempted << ",\"slow\":[";
  for (std::size_t i = 0; i < alert.window.slowest.size(); ++i) {
    const SlowRequest& slow = alert.window.slowest[i];
    os << (i > 0 ? "," : "") << "{\"trace\":" << slow.trace
       << ",\"latency_ns\":" << slow.latency_ns << ",\"ts\":" << slow.ts
       << "}";
  }
  os << "]}";
  return os.str();
}

void WriteFlightDump(std::ostream& os, const FlightRecorder& flight,
                     const SloAlert* alert) {
  os << "{\"schema\":\"" << kFlightSchema << "\""
     << ",\"capacity\":" << FlightRecorder::kEventsPerSource
     << ",\"accepted\":" << flight.accepted() << ",\"sources\":[";
  const std::vector<std::string>& labels = flight.source_labels();
  for (std::size_t i = 0; i < labels.size(); ++i) {
    os << (i > 0 ? "," : "") << JsonQuote(labels[i]);
  }
  os << "]";
  if (alert != nullptr) {
    os << ",\"alert\":" << SloAlertJson(*alert);
  }
  os << "}\n";
  flight.WriteRecords(os);
}

SloWatchdog::SloWatchdog(const WatchdogOptions& options)
    : options_(options),
      interval_ns_(options.check_interval_ns > 0
                       ? options.check_interval_ns
                       : static_cast<SimTime>(options.spec.window_ns) / 8) {
  if (interval_ns_ == 0) {
    interval_ns_ = 1;
  }
}

bool SloWatchdog::MaybeCheck(SimTime now,
                             const std::vector<const SlidingWindow*>& windows,
                             std::uint64_t stalled, std::uint64_t attempted,
                             TraceRecorder* recorder) {
  // Fast path: one relaxed load. Workers race to move next_check_ns_
  // forward; the mutex below serializes the losers.
  if (now < next_check_ns_.load(std::memory_order_relaxed)) {
    return false;
  }
  std::lock_guard lock(mu_);
  if (now < next_check_ns_.load(std::memory_order_relaxed)) {
    return false;  // another worker checked while we waited
  }
  next_check_ns_.store(now + interval_ns_, std::memory_order_relaxed);
  if (now < cooldown_until_ns_) {
    return false;
  }
  return Evaluate(now, windows, stalled, attempted, recorder);
}

bool SloWatchdog::ForceCheck(SimTime now,
                             const std::vector<const SlidingWindow*>& windows,
                             std::uint64_t stalled, std::uint64_t attempted,
                             TraceRecorder* recorder) {
  std::lock_guard lock(mu_);
  return Evaluate(now, windows, stalled, attempted, recorder);
}

bool SloWatchdog::Evaluate(SimTime now,
                           const std::vector<const SlidingWindow*>& windows,
                           std::uint64_t stalled, std::uint64_t attempted,
                           TraceRecorder* recorder) {
  checks_.fetch_add(1, std::memory_order_relaxed);
  const SloSpec& spec = options_.spec;
  const WindowStats stats = SlidingWindow::Merge(windows, now);

  const std::uint64_t stall_delta =
      stalled >= prev_stalled_ ? stalled - prev_stalled_ : 0;
  const std::uint64_t attempt_delta =
      attempted >= prev_attempted_ ? attempted - prev_attempted_ : 0;
  prev_stalled_ = stalled;
  prev_attempted_ = attempted;

  SloAlert alert;
  alert.sim_now = now;
  alert.window = stats;
  alert.stalled = stall_delta;
  alert.attempted = attempt_delta;
  bool breached = false;

  if (spec.p99_ns > 0 && stats.count >= spec.min_requests) {
    const double p99 =
        static_cast<double>(stats.latency.Percentile(0.99));
    if (p99 > spec.p99_ns) {
      alert.rule = SloRule::kP99Latency;
      alert.observed = p99;
      alert.bound = spec.p99_ns;
      breached = true;
    }
  }
  if (!breached && spec.max_error_rate > 0 &&
      stats.count >= spec.min_requests) {
    const double rate = stats.ErrorRate();
    if (rate > spec.max_error_rate) {
      alert.rule = SloRule::kErrorRate;
      alert.observed = rate;
      alert.bound = spec.max_error_rate;
      breached = true;
    }
  }
  if (!breached && spec.max_stall_fraction > 0 &&
      attempt_delta >= spec.min_requests) {
    const double fraction = static_cast<double>(stall_delta) /
                            static_cast<double>(attempt_delta);
    if (fraction > spec.max_stall_fraction) {
      alert.rule = SloRule::kStallFraction;
      alert.observed = fraction;
      alert.bound = spec.max_stall_fraction;
      breached = true;
    }
  }

  if (!breached) {
    return false;
  }
  alert.id = alert_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  cooldown_until_ns_ = now + static_cast<SimTime>(spec.window_ns);
  EmitAlert(alert, recorder);
  alerts_.push_back(std::move(alert));
  return true;
}

void SloWatchdog::EmitAlert(const SloAlert& alert, TraceRecorder* recorder) {
  NEARPM_TRACE_EVENT(recorder, .phase = TracePhase::kSloAlert,
                     .pid = kTraceObsPid, .tid = 0, .ts = alert.sim_now,
                     .seq = alert.id,
                     .arg0 = static_cast<std::uint64_t>(alert.rule),
                     .arg1 = static_cast<std::uint64_t>(alert.observed));
  if (options_.flight != nullptr && !options_.dump_path.empty()) {
    std::ofstream out(options_.dump_path, std::ios::trunc);
    if (out) {
      WriteFlightDump(out, *options_.flight, &alert);
      out.close();
    }
    if (!out) {
      dump_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

std::vector<SloAlert> SloWatchdog::alerts() const {
  std::lock_guard lock(mu_);
  return alerts_;
}

}  // namespace obs
}  // namespace nearpm
