// Cross-node request timeline: every trace event carrying one request's
// trace id, merged across recorders into a single navigable story.
//
// A request that enters KvService::Submit touches many independent trace
// streams: the coordinator shard's recorder (queue, batch, device
// pipeline), the fabric recorder (kNetXfer frames carrying the intent to
// backups), and each backup shard's recorder (redo landing, NDP replay).
// Each recorder has its own `order` sequence, so the streams cannot be
// merged by order; they CAN be merged by simulated time, because every
// node's virtual clock advances in the same simulated nanoseconds and the
// fabric couples them at each delivery. BuildRequestTimeline filters each
// labeled source down to the request's events, runs the seven-phase
// profiler per source to recover the request's device slices, and stitches
// the result into one time-sorted timeline.
//
// Two renderers feed tools/nearpm_trace: a human-readable listing (span
// table, per-hop gaps, slice attribution) and a Chrome/Perfetto JSON
// export where each source becomes one per-request track, so one request's
// cross-replica journey renders as parallel lanes.
#ifndef SRC_PROF_REQUEST_TIMELINE_H_
#define SRC_PROF_REQUEST_TIMELINE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/prof/profile.h"
#include "src/trace/recorder.h"
#include "src/trace/trace_event.h"

namespace nearpm {

// One event of the request, tagged with the source it came from.
struct TimelineHop {
  int source = 0;  // index into the sources passed to BuildRequestTimeline
  TraceEvent event;
};

struct RequestTimeline {
  std::uint64_t trace = 0;
  std::vector<std::string> source_labels;
  // All events carrying the trace id, sorted by (ts, end, source, order).
  std::vector<TimelineHop> hops;
  // Device slices belonging to the request (one per device command the
  // request issued, across every node), with the seven-phase attribution.
  std::vector<RequestSlice> slices;
  // The request's device commands whose recorded windows do not tile their
  // span (Profile::attribution_violations). A lifecycle cut off at the
  // start or end of a source is incomplete, not listed here.
  std::vector<RequestSlice> attribution_violations;
  SimTime start = 0;  // earliest event start
  SimTime end = 0;    // latest event end

  SimTime span_ns() const { return end > start ? end - start : 0; }
  bool empty() const { return hops.empty(); }
  // True when every device command of the request tiles its span exactly
  // (the profiler invariant).
  bool AttributionHolds() const { return attribution_violations.empty(); }
};

// Distinct nonzero trace ids present in `sources`, ascending.
std::vector<std::uint64_t> ListTraceIds(
    const std::vector<TimelineSource>& sources);

// Reconstructs the timeline of one request across all sources.
RequestTimeline BuildRequestTimeline(
    const std::vector<TimelineSource>& sources, std::uint64_t trace_id);

// Human-readable rendering: header, hop-by-hop listing with inter-hop
// gaps, and the per-slice seven-phase attribution table.
void RenderRequestTimeline(const RequestTimeline& timeline, std::ostream& os);

// Chrome trace-event JSON with one process per source ("trace <id> /
// <source>"), so Perfetto renders the request's journey as parallel
// per-source lanes. Events keep their in-source (pid, tid) as the thread
// dimension.
void WriteRequestTimelinePerfetto(const RequestTimeline& timeline,
                                  std::ostream& os);

}  // namespace nearpm

#endif  // SRC_PROF_REQUEST_TIMELINE_H_
