// Per-layer timing for the traced rep of sbrs_bench.
//
// Decorators around the library's public protocol interfaces split one
// threaded run into its layers without touching src/:
//   - TimedClient wraps a ClientProtocol and times every client step
//     (on_invoke / on_response) as self time, excluding the triggers made
//     inside it;
//   - TimedContext wraps the ExecutionContext a step receives and times
//     trigger() — the channel send plus any backpressure wait;
//   - every triggered RmwFn is wrapped so its apply on the object's worker
//     thread is timed too.
// The time an operation spends outside its client steps is the wait for
// replies. Each thread accumulates into its own slot (no shared lock), and
// every 64th operation also keeps its spans in memory for the Chrome
// trace_event file written at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "registers/register_algorithm.h"
#include "runtime/context.h"

namespace sbrs::e2e {

using Clock = std::chrono::steady_clock;

inline int64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

/// Operations whose OpId is a multiple of this keep their spans.
inline constexpr uint64_t kSpanEvery = 64;

/// One recorded span, in nanoseconds from the traced rep's start.
struct Span {
  const char* name = "";
  uint32_t tid = 0;  // 1 + client for drivers, 1000 + object for workers
  uint64_t op = 0;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
};

/// Totals of one client session, written only by its driver thread.
struct alignas(64) DriverTotals {
  int64_t client_step_ns = 0;  // step self time, triggers excluded
  int64_t trigger_ns = 0;
  int64_t reply_wait_ns = 0;
  uint64_t client_steps = 0;
  std::vector<Span> spans;
};

/// Totals of one base object, written only by its worker thread.
struct alignas(64) WorkerTotals {
  int64_t apply_ns = 0;
  std::vector<Span> spans;
};

/// The timing state of one traced mesh (a store shard or a register run).
/// Closures handed to the mesh hold its address, so it must outlive the
/// run; run_threaded joins every thread before returning, after which the
/// totals may be read.
class MeshTrace {
 public:
  MeshTrace(uint32_t num_clients, uint32_t num_objects,
            Clock::time_point epoch);
  MeshTrace(const MeshTrace&) = delete;
  MeshTrace& operator=(const MeshTrace&) = delete;

  /// `inner`'s clients, each wrapped in a TimedClient reporting here.
  runtime::ClientFactory wrap(runtime::ClientFactory inner);

  const std::vector<DriverTotals>& drivers() const { return drivers_; }
  const std::vector<WorkerTotals>& workers() const { return workers_; }

 private:
  friend class TimedClient;
  friend class TimedContext;

  Clock::time_point epoch_;
  std::vector<DriverTotals> drivers_;  // indexed by client id
  std::vector<WorkerTotals> workers_;  // indexed by object id
};

/// A RegisterAlgorithm identical to `inner` except that its clients report
/// to `trace` — what the register workloads pass to run_register_experiment.
class TracedAlgorithm final : public registers::RegisterAlgorithm {
 public:
  TracedAlgorithm(const registers::RegisterAlgorithm& inner, MeshTrace& trace)
      : inner_(inner), trace_(trace) {}

  std::string name() const override { return inner_.name(); }
  const registers::RegisterConfig& config() const override {
    return inner_.config();
  }
  codec::CodecPtr codec() const override { return inner_.codec(); }
  runtime::ObjectFactory object_factory() const override {
    return inner_.object_factory();
  }
  runtime::ClientFactory client_factory() const override {
    return trace_.wrap(inner_.client_factory());
  }
  runtime::RepairPlanner repair_planner() const override {
    return inner_.repair_planner();
  }

 private:
  const registers::RegisterAlgorithm& inner_;
  MeshTrace& trace_;
};

/// The per-thread totals of any number of meshes, summed.
struct LayerTotals {
  double client_step_s = 0;
  double trigger_s = 0;
  double reply_wait_s = 0;
  double rmw_apply_s = 0;
  uint64_t client_steps = 0;

  void add(const MeshTrace& mesh);
};

/// A traced mesh as a trace_event process.
struct TraceProcess {
  const MeshTrace* mesh = nullptr;
  uint32_t pid = 0;
  std::string name;
};

/// Chrome/Perfetto trace_event JSON (one event per line, the layout
/// obs/export uses). Process 0 ("sbrs_bench") carries `segments`, the
/// traced rep's top-level calls, one track per shard. Each mesh process
/// carries "op" spans on its driver tracks with "client_step" and
/// "trigger" children, and "apply" spans on its object tracks, all with
/// the op id in args.
void write_chrome_trace(std::ostream& os, const std::vector<Span>& segments,
                        const std::vector<TraceProcess>& processes);

}  // namespace sbrs::e2e
