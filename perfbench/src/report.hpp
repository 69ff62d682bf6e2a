// Raw results of one benchmark run, and the in-memory span recorder of the
// traced run.  Everything here is measurement plumbing: the arithmetic that
// turns samples into metrics (percentiles, self times, ratios) lives in
// run.py, where it is unit-tested.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::uint64_t id = 0;
  std::string name;
  std::string layer;  ///< module the span's time is charged to
  double start = 0.0;  ///< seconds since the tracer's origin
  double end = 0.0;
  std::uint64_t parent = 0;  ///< 0: root
  std::uint64_t request = 0;  ///< request id for request spans, else 0
  std::map<std::string, double> counts;  ///< counter deltas over the span
};

/// Spans and counts kept in memory and written out once, at the end of the
/// run.  Disabled tracers record nothing (begin returns 0 and end ignores
/// it), so untraced runs pay one branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  double now() const { return seconds_between(origin_, Clock::now()); }

  std::uint64_t begin(const std::string& name, const std::string& layer,
                      std::uint64_t parent = 0);
  void end(std::uint64_t id);
  void count(std::uint64_t id, const std::string& name, double value);
  /// A span whose interval is already known (request spans, measured on the
  /// client's event loop and handed over when it completes).
  void add(const std::string& name, const std::string& layer, double start,
           double end, std::uint64_t parent, std::uint64_t request);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::size_t> open_;  ///< span id -> index
};

/// RAII span around one call into a layer.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, const std::string& layer,
        std::uint64_t parent = 0)
      : tracer_(tracer), id_(tracer.begin(name, layer, parent)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Report {
  explicit Report(bool traced) : tracer(traced) {}

  std::map<std::string, double> scalars;
  std::map<std::string, std::vector<double>> samples;
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Tracer tracer;

  void check(const std::string& name, bool ok, const std::string& detail = {}) {
    checks.push_back({name, ok, detail});
  }
  void write_json(std::ostream& out) const;
};

/// Calls fn(worker) on `threads` threads at once, `reps` times on each, and
/// returns the seconds every call took.  Single-threaded work measured this
/// way samples every vCPU at the same moment, so the drift of one vCPU's
/// speed on a shared host does not move the median.
std::vector<double> time_concurrently(int threads, int reps,
                                      const std::function<void(int)>& fn);

/// Calls round(worker, index) in a loop on each of `threads` threads at
/// once for `seconds`: whole rounds only, at least one per worker, and no
/// round started that would overrun the window at the last round's pace.
void run_rounds(int threads, double seconds,
                const std::function<void(int, int)>& round);

/// Median microseconds per call of `fn`: repeats it in batches of at least
/// `batch_seconds` (5 batches), so one-off stalls do not set the figure.
double us_per_call(const std::function<void()>& fn,
                   double batch_seconds = 0.01);

}  // namespace perfbench
