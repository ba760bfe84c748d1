#include "layers.h"

#include <optional>
#include <utility>

#include "common/check.h"

namespace sbrs::e2e {

namespace {

constexpr uint32_t kDriverTidBase = 1;
constexpr uint32_t kWorkerTidBase = 1000;

}  // namespace

/// The context one client step runs against: everything is forwarded to
/// the backend's context; trigger() is timed, and the RMW it sends is
/// wrapped so its apply is timed on the target object's worker thread.
class TimedContext final : public runtime::ExecutionContext {
 public:
  TimedContext(runtime::ExecutionContext& inner, MeshTrace& mesh,
               DriverTotals& totals, uint32_t tid, uint64_t op, bool keep)
      : inner_(inner),
        mesh_(mesh),
        totals_(totals),
        tid_(tid),
        op_(op),
        keep_(keep) {}

  RmwId trigger(ObjectId target, runtime::RmwFn fn,
                metrics::StorageFootprint request_footprint) override {
    SBRS_CHECK_MSG(target.value < mesh_.workers_.size(),
                   "traced trigger on out-of-range object");
    // Only the target's worker thread runs this closure, so its slot needs
    // no lock.
    WorkerTotals* worker = &mesh_.workers_[target.value];
    runtime::RmwFn timed =
        [worker, epoch = mesh_.epoch_, tid = kWorkerTidBase + target.value,
         op = op_, keep = keep_,
         fn = std::move(fn)](runtime::ObjectStateBase& state) {
          const auto start = Clock::now();
          runtime::ResponsePtr response = fn(state);
          const int64_t dur = ns_between(start, Clock::now());
          worker->apply_ns += dur;
          if (keep) {
            worker->spans.push_back(
                {"apply", tid, op, ns_between(epoch, start), dur});
          }
          return response;
        };

    const auto start = Clock::now();
    const RmwId id = inner_.trigger(target, std::move(timed),
                                    std::move(request_footprint));
    const int64_t dur = ns_between(start, Clock::now());
    trigger_ns_ += dur;
    if (keep_) {
      totals_.spans.push_back(
          {"trigger", tid_, op_, ns_between(mesh_.epoch_, start), dur});
    }
    return id;
  }

  void complete(OpId op, std::optional<Value> result) override {
    completed_ = true;
    inner_.complete(op, std::move(result));
  }

  ClientId self() const override { return inner_.self(); }
  uint32_t num_objects() const override { return inner_.num_objects(); }
  uint64_t now() const override { return inner_.now(); }

  int64_t trigger_ns() const { return trigger_ns_; }
  bool completed() const { return completed_; }

 private:
  runtime::ExecutionContext& inner_;
  MeshTrace& mesh_;
  DriverTotals& totals_;
  uint32_t tid_;
  uint64_t op_;
  bool keep_;
  int64_t trigger_ns_ = 0;
  bool completed_ = false;
};

/// A client protocol whose every step is timed. A session has one
/// operation outstanding at a time, so each step belongs to the operation
/// last invoked; the operation's time outside its steps is reply wait.
class TimedClient final : public runtime::ClientProtocol {
 public:
  TimedClient(std::unique_ptr<runtime::ClientProtocol> inner, MeshTrace& mesh,
              DriverTotals& totals, uint32_t tid)
      : inner_(std::move(inner)), mesh_(mesh), totals_(totals), tid_(tid) {
    SBRS_CHECK(inner_ != nullptr);
  }

  void on_invoke(const runtime::Invocation& inv,
                 runtime::ExecutionContext& ctx) override {
    op_ = inv.op.value;
    keep_ = op_ % kSpanEvery == 0;
    op_start_ = Clock::now();
    op_busy_ns_ = 0;
    step(ctx, [&](runtime::ExecutionContext& c) { inner_->on_invoke(inv, c); });
  }

  void on_response(RmwId rmw, runtime::ResponsePtr response,
                   runtime::ExecutionContext& ctx) override {
    step(ctx, [&](runtime::ExecutionContext& c) {
      inner_->on_response(rmw, std::move(response), c);
    });
  }

  metrics::StorageFootprint footprint() const override {
    return inner_->footprint();
  }
  uint64_t stored_bits() const override { return inner_->stored_bits(); }

 private:
  template <typename Run>
  void step(runtime::ExecutionContext& ctx, Run&& run) {
    TimedContext timed(ctx, mesh_, totals_, tid_, op_, keep_);
    const auto start = Clock::now();
    run(timed);
    const auto end = Clock::now();
    const int64_t dur = ns_between(start, end);
    totals_.client_step_ns += dur - timed.trigger_ns();
    totals_.trigger_ns += timed.trigger_ns();
    ++totals_.client_steps;
    op_busy_ns_ += dur;
    if (keep_) {
      totals_.spans.push_back(
          {"client_step", tid_, op_, ns_between(mesh_.epoch_, start), dur});
    }
    if (timed.completed()) {
      const int64_t op_ns = ns_between(op_start_, end);
      totals_.reply_wait_ns += op_ns - op_busy_ns_;
      if (keep_) {
        totals_.spans.push_back(
            {"op", tid_, op_, ns_between(mesh_.epoch_, op_start_), op_ns});
      }
    }
  }

  std::unique_ptr<runtime::ClientProtocol> inner_;
  MeshTrace& mesh_;
  DriverTotals& totals_;
  uint32_t tid_;
  uint64_t op_ = 0;
  bool keep_ = false;
  Clock::time_point op_start_;
  int64_t op_busy_ns_ = 0;
};

MeshTrace::MeshTrace(uint32_t num_clients, uint32_t num_objects,
                     Clock::time_point epoch)
    : epoch_(epoch), drivers_(num_clients), workers_(num_objects) {}

runtime::ClientFactory MeshTrace::wrap(runtime::ClientFactory inner) {
  return [this, inner = std::move(inner)](
             ClientId c) -> std::unique_ptr<runtime::ClientProtocol> {
    SBRS_CHECK_MSG(c.value < drivers_.size(), "traced client out of range");
    return std::make_unique<TimedClient>(inner(c), *this, drivers_[c.value],
                                         kDriverTidBase + c.value);
  };
}

void LayerTotals::add(const MeshTrace& mesh) {
  for (const DriverTotals& d : mesh.drivers()) {
    client_step_s += d.client_step_ns * 1e-9;
    trigger_s += d.trigger_ns * 1e-9;
    reply_wait_s += d.reply_wait_ns * 1e-9;
    client_steps += d.client_steps;
  }
  for (const WorkerTotals& w : mesh.workers()) {
    rmw_apply_s += w.apply_ns * 1e-9;
  }
}

namespace {

void write_process(std::ostream& os, uint32_t pid, const std::string& name) {
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
     << ",\"args\":{\"name\":\"" << name << "\"}}";
}

void write_thread(std::ostream& os, uint32_t pid, uint32_t tid,
                  const std::string& name) {
  os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
     << ",\"tid\":" << tid << ",\"args\":{\"name\":\"" << name << "\"}}";
}

void write_span(std::ostream& os, uint32_t pid, const Span& s) {
  os << ",\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":" << pid
     << ",\"tid\":" << s.tid << ",\"ts\":" << s.start_ns / 1e3
     << ",\"dur\":" << s.dur_ns / 1e3 << ",\"args\":{\"op\":" << s.op << "}}";
}

}  // namespace

void write_chrome_trace(std::ostream& os, const std::vector<Span>& segments,
                        const std::vector<TraceProcess>& processes) {
  const auto saved_flags = os.flags();
  const auto saved_precision = os.precision(3);
  os << std::fixed << "{\"traceEvents\":[\n";
  write_process(os, 0, "sbrs_bench");
  for (const Span& s : segments) write_span(os, 0, s);
  for (const TraceProcess& p : processes) {
    os << ",\n";
    write_process(os, p.pid, p.name);
    const auto& drivers = p.mesh->drivers();
    for (uint32_t c = 0; c < drivers.size(); ++c) {
      write_thread(os, p.pid, kDriverTidBase + c, "client" + std::to_string(c));
      for (const Span& s : drivers[c].spans) write_span(os, p.pid, s);
    }
    const auto& workers = p.mesh->workers();
    for (uint32_t o = 0; o < workers.size(); ++o) {
      write_thread(os, p.pid, kWorkerTidBase + o, "object" + std::to_string(o));
      for (const Span& s : workers[o].spans) write_span(os, p.pid, s);
    }
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  os.flags(saved_flags);
  os.precision(saved_precision);
}

}  // namespace sbrs::e2e
