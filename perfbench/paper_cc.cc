// paper-cc: the paper's own claim. The nine Table-4 applications x {logging,
// checkpointing, shadow paging}, each run in the CPU baseline and in NearPM
// multi-device delayed-sync mode through Workload::Setup/RunOp/Verify on one
// thread, with the geometry of bench/harness.cc (512 MB PM, 4 MB pools, 500
// preloaded keys). Runtime construction and Setup are timed apart from the
// operation phase, so work moved into set-up shows in setup_s, not ops_per_s.
//
// Simulated results are a pure function of (seed, ops per cell): the
// speedups repeat bit for bit, the host timings do not.
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "report.h"
#include "src/common/stats.h"
#include "src/core/runtime.h"
#include "src/workloads/workload.h"

namespace perfbench {
namespace {

using nearpm::ExecMode;
using nearpm::Mechanism;

constexpr Mechanism kMechanisms[] = {Mechanism::kLogging,
                                     Mechanism::kCheckpointing,
                                     Mechanism::kShadowPaging};
constexpr ExecMode kModes[] = {ExecMode::kCpuBaseline,
                               ExecMode::kNdpMultiDelayed};

// Paper means recorded in EXPERIMENTS.md (Fig. 15 region speedup and Fig. 16
// end-to-end speedup of NearPM MD), in kMechanisms order.
constexpr double kPaperCc[] = {6.97, 4.26, 9.76};
constexpr double kPaperE2e[] = {1.35, 1.22, 1.33};

// Operations per cell: 500 per second of --seconds (5000 at the default 10).
std::uint64_t OpsPerCell(int seconds) {
  return 500 * static_cast<std::uint64_t>(seconds > 0 ? seconds : 1);
}

// Workload::Verify is timed this many times per cell and the median kept:
// one pass is ~0.3 ms, short enough for a host hiccup to double it.
constexpr int kVerifyRuns = 9;
// A cell's op phase is timed in this many equal chunks, and its time is
// kOpChunks x the median chunk, so a host stall inside one chunk does not
// count as operation time.
constexpr int kOpChunks = 5;

struct Cell {
  // Simulated (virtual ns), op phase only.
  double total_ns = 0;
  double cc_ns = 0;
  double overlap_ns = 0;
  double data_movement_ns = 0;
  double ordering_ns = 0;
  std::uint64_t ndp_cmds = 0;
  // Host wall clock.
  double ctor_s = 0;
  double setup_s = 0;  // Workload::Setup + the drain that closes it
  double op_s = 0;      // kOpChunks x median chunk time
  double op_p50_ns = 0;  // exact quantiles of the cell's RunOp wall times
  double op_p99_ns = 0;
  double drain_s = 0;
  double verify_s = 0;
  std::uint64_t ops = 0;
};

std::uint64_t PrimitiveTotal(const nearpm::PrimitiveCounters& c) {
  return c.undolog_create + c.applylog + c.commit_log + c.ckpoint_create +
         c.shadowcpy + c.raw_copy;
}

// Runs one (application, mechanism, mode) cell. Per-op simulated latencies
// of NearPM-MD cells are appended to `sim_op_ns`.
Cell RunCell(const std::string& app, Mechanism mech, ExecMode mode,
             const PassArgs& args, SpanLog* spans, Report& report,
             std::vector<double>& sim_op_ns) {
  Cell cell;
  ScopedSpan cell_span(spans, Layer::kBench, "cell");

  nearpm::RuntimeOptions opts;
  opts.mode = mode;
  opts.max_threads = 1;
  opts.pm_size = 512ull << 20;
  opts.retain_crash_state = false;
  std::int64_t t = NowNs();
  std::unique_ptr<nearpm::Runtime> rt;
  {
    ScopedSpan span(spans, Layer::kCore, "Runtime::Runtime");
    rt = std::make_unique<nearpm::Runtime>(opts);
  }
  cell.ctor_s = SecondsSince(t);

  nearpm::PoolArena arena(0);
  std::unique_ptr<nearpm::Workload> workload = nearpm::CreateWorkload(app);
  nearpm::WorkloadConfig wc;
  wc.mechanism = mech;
  wc.threads = 1;
  wc.data_size = 4ull << 20;
  wc.initial_keys = 500;
  wc.seed = args.seed;
  t = NowNs();
  nearpm::Status st;
  {
    ScopedSpan span(spans, Layer::kWorkloads, "Workload::Setup");
    st = workload->Setup(*rt, arena, wc);
  }
  {
    ScopedSpan span(spans, Layer::kCore, "Runtime::DrainDevices");
    rt->DrainDevices(0);
  }
  cell.setup_s = SecondsSince(t);
  report.Check(st.ok());
  if (!st.ok()) {
    report.Fail(app + " setup: " + st.ToString());
    return cell;
  }

  const nearpm::RuntimeStats before = rt->stats();
  const nearpm::PrimitiveCounters counters_before = rt->counters();
  nearpm::Rng rng(args.seed * 31 + 1);
  const std::uint64_t ops = OpsPerCell(args.seconds);
  std::vector<double> wall_op_ns;
  wall_op_ns.reserve(ops);
  std::vector<double> chunk_s;
  std::int64_t chunk_start = NowNs();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const nearpm::SimTime sim0 = rt->Now(0);
    const std::int64_t w0 = NowNs();
    {
      ScopedSpan span(spans, Layer::kWorkloads, "Workload::RunOp");
      st = workload->RunOp(0, rng);
    }
    wall_op_ns.push_back(static_cast<double>(NowNs() - w0));
    if (mode == ExecMode::kNdpMultiDelayed) {
      sim_op_ns.push_back(static_cast<double>(rt->Now(0) - sim0));
    }
    report.Check(st.ok());
    if (!st.ok()) {
      report.Fail(app + " op " + std::to_string(i) + ": " + st.ToString());
      break;
    }
    ++cell.ops;
    if (cell.ops % (ops / kOpChunks) == 0) {
      chunk_s.push_back(SecondsSince(chunk_start));
      chunk_start = NowNs();
    }
  }
  cell.op_s = Median(chunk_s) * static_cast<double>(chunk_s.size());
  cell.op_p50_ns = Quantile(wall_op_ns, 0.50);
  cell.op_p99_ns = Quantile(std::move(wall_op_ns), 0.99);
  t = NowNs();
  {
    ScopedSpan span(spans, Layer::kCore, "Runtime::DrainDevices");
    rt->DrainDevices(0);
  }
  cell.drain_s = SecondsSince(t);

  const nearpm::RuntimeStats& after = rt->stats();
  cell.total_ns = static_cast<double>(after.MaxThreadTime()) -
                  static_cast<double>(before.MaxThreadTime());
  cell.cc_ns = after.CcRegionNs() - before.CcRegionNs();
  cell.overlap_ns = after.OverlapNs() - before.OverlapNs();
  cell.data_movement_ns =
      after.CategoryNs(nearpm::CcCategory::kDataMovement) -
      before.CategoryNs(nearpm::CcCategory::kDataMovement);
  cell.ordering_ns = after.CategoryNs(nearpm::CcCategory::kOrdering) -
                     before.CategoryNs(nearpm::CcCategory::kOrdering);
  cell.ndp_cmds =
      PrimitiveTotal(rt->counters()) - PrimitiveTotal(counters_before);

  std::vector<double> verify_s;
  for (int v = 0; v < kVerifyRuns; ++v) {
    t = NowNs();
    {
      ScopedSpan span(spans, Layer::kWorkloads, "Workload::Verify");
      st = workload->Verify();
    }
    verify_s.push_back(SecondsSince(t));
    report.Check(st.ok());
    if (!st.ok()) {
      report.Fail(app + " verify: " + st.ToString());
      break;
    }
  }
  cell.verify_s = Median(verify_s);
  workload.reset();  // the heap refers into the runtime
  ScopedSpan span(spans, Layer::kCore, "Runtime::~Runtime");
  rt.reset();
  return cell;
}

}  // namespace

Report RunPaperCc(const PassArgs& args) {
  Report report;
  SpanLog* spans = args.spans != nullptr ? args.spans->NewLog() : nullptr;
  std::vector<double> sim_op_ns;
  std::vector<double> cell_p50_ns;
  std::vector<double> cell_p99_ns;
  const std::vector<std::string> apps = nearpm::EvaluatedWorkloads();

  double setup_s = 0;
  double ctor_s = 0;
  double wl_setup_s = 0;
  double op_s = 0;
  double drain_s = 0;
  double verify_s = 0;
  std::uint64_t ops = 0;
  std::uint64_t cells = 0;
  double md_ops = 0;
  double md_sim_ns = 0;
  std::vector<double> all_e2e;
  std::vector<double> all_cc;
  std::uint64_t digest = 0;  // of the simulated results (determinism check)

  for (std::size_t m = 0; m < std::size(kMechanisms); ++m) {
    const Mechanism mech = kMechanisms[m];
    const std::string mname = nearpm::MechanismName(mech);
    std::vector<double> e2e;
    std::vector<double> cc;
    double dm_frac = 0;
    double ord_frac = 0;
    double overlap_frac = 0;
    std::uint64_t md_cmds = 0;
    std::uint64_t md_mech_ops = 0;
    double op_s_mode[2] = {0, 0};
    std::uint64_t ops_mode[2] = {0, 0};
    for (const std::string& app : apps) {
      Cell result[2];
      for (int k = 0; k < 2; ++k) {
        result[k] = RunCell(app, mech, kModes[k], args, spans, report,
                            sim_op_ns);
        const Cell& c = result[k];
        cell_p50_ns.push_back(c.op_p50_ns);
        cell_p99_ns.push_back(c.op_p99_ns);
        ctor_s += c.ctor_s;
        wl_setup_s += c.setup_s;
        setup_s += c.ctor_s + c.setup_s;
        op_s += c.op_s;
        drain_s += c.drain_s;
        verify_s += c.verify_s;
        ops += c.ops;
        op_s_mode[k] += c.op_s;
        ops_mode[k] += c.ops;
        ++cells;
        for (double v : {c.total_ns, c.cc_ns, c.overlap_ns, c.data_movement_ns,
                         c.ordering_ns}) {
          digest = digest * 1099511628211ull ^
                   static_cast<std::uint64_t>(std::llround(v));
        }
      }
      const Cell& base = result[0];
      const Cell& md = result[1];
      e2e.push_back(Ratio(base.total_ns, md.total_ns));
      cc.push_back(Ratio(base.cc_ns, md.cc_ns));
      dm_frac += Ratio(md.data_movement_ns, md.cc_ns) / apps.size();
      ord_frac += Ratio(md.ordering_ns, md.cc_ns) / apps.size();
      overlap_frac += Ratio(md.overlap_ns, md.total_ns) / apps.size();
      md_cmds += md.ndp_cmds;
      md_mech_ops += md.ops;
      md_ops += static_cast<double>(md.ops);
      md_sim_ns += md.total_ns;
    }
    all_e2e.insert(all_e2e.end(), e2e.begin(), e2e.end());
    all_cc.insert(all_cc.end(), cc.begin(), cc.end());
    const double sp_e2e = nearpm::GeoMean(e2e);
    const double sp_cc = nearpm::GeoMean(cc);
    if (spans == nullptr) {
      std::printf(
          "paper-cc %-14s speedup_cc %.3fx (paper %.2fx, rel err %+.1f%%)  "
          "speedup_e2e %.3fx (paper %.2fx, rel err %+.1f%%)\n",
          mname.c_str(), sp_cc, kPaperCc[m],
          100.0 * (sp_cc - kPaperCc[m]) / kPaperCc[m], sp_e2e, kPaperE2e[m],
          100.0 * (sp_e2e - kPaperE2e[m]) / kPaperE2e[m]);
      continue;
    }
    report.Set("sim.speedup_e2e." + mname, sp_e2e, "x");
    report.Set("sim.speedup_cc." + mname, sp_cc, "x");
    report.Set("sim.data_movement_frac." + mname, dm_frac, "frac");
    report.Set("sim.ordering_frac." + mname, ord_frac, "frac");
    report.Set("sim.overlap_frac." + mname, overlap_frac, "frac");
    report.Set("core.ndp_cmds_per_op." + mname,
               Ratio(static_cast<double>(md_cmds),
                     static_cast<double>(md_mech_ops)),
               "count");
    report.Set("workloads.run_op_ns." + mname + ".baseline",
               Ratio(op_s_mode[0] * 1e9, static_cast<double>(ops_mode[0])),
               "ns");
    report.Set("workloads.run_op_ns." + mname + ".md",
               Ratio(op_s_mode[1] * 1e9, static_cast<double>(ops_mode[1])),
               "ns");
  }
  std::printf(
      "paper-cc: the simulator's cost model is calibrated to the paper's "
      "FPGA prototype (Fig. 17 copies); it has no hardware validation beyond "
      "the paper means compared above.\n");
  std::printf("paper-cc: %" PRIu64 " cells x %" PRIu64
              " ops, simulated-result digest %016" PRIx64 "\n",
              cells, OpsPerCell(args.seconds), digest);

  report.Set("setup_s", setup_s, "s");
  report.Set("ops_per_s", Ratio(static_cast<double>(ops), op_s), "1/s");
  // The cells' latencies differ by app and mode, so a quantile of the pooled
  // samples lands between modes and jumps; the geomean of per-cell exact
  // quantiles does not.
  report.Set("p50_us", nearpm::GeoMean(cell_p50_ns) * 1e-3, "us");
  report.Set("p99_us", nearpm::GeoMean(cell_p99_ns) * 1e-3, "us");
  report.Set("sim_ops_per_s", Ratio(md_ops, md_sim_ns * 1e-9), "1/s");
  report.Set("sim_p99_ns", Quantile(sim_op_ns, 0.99), "ns");
  report.Set("audit_s", verify_s, "s");
  report.Set("sim_speedup_e2e", nearpm::GeoMean(all_e2e), "x");
  report.Set("sim_speedup_cc", nearpm::GeoMean(all_cc), "x");
  std::printf("paper-cc: wall p50/p99 are geomeans over %zu cells of exact "
              "per-cell quantiles over n=%" PRIu64 " ops each; simulated p99 "
              "over n=%zu NearPM-MD ops\n",
              cell_p50_ns.size(), OpsPerCell(args.seconds), sim_op_ns.size());

  if (spans == nullptr) {
    return report;
  }
  report.Set("core.runtime_ctor_s", ctor_s, "s");
  report.Set("workloads.setup_s", wl_setup_s, "s");
  report.Set("core.drain_ns", Ratio(drain_s * 1e9, static_cast<double>(cells)),
             "ns");
  return report;
}

}  // namespace perfbench
