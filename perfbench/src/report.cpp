#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <thread>

namespace perfbench {

namespace {

void write_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u" << std::hex << std::setw(4) << std::setfill('0')
              << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

/// JSON has no infinity: a request that never completed is written as null
/// and read back as +inf (it missed every latency limit).
void write_number(std::ostream& out, double v) {
  if (std::isfinite(v)) {
    out << v;
  } else {
    out << "null";
  }
}

}  // namespace

std::uint64_t Tracer::begin(const std::string& name, const std::string& layer,
                            std::uint64_t parent) {
  if (!enabled_) return 0;
  const double t = now();
  std::lock_guard<std::mutex> lk(mu_);
  Span s;
  s.id = spans_.size() + 1;
  s.name = name;
  s.layer = layer;
  s.start = t;
  s.end = t;
  s.parent = parent;
  open_[s.id] = spans_.size();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::end(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  const double t = now();
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end = t;
  open_.erase(it);
}

void Tracer::count(std::uint64_t id, const std::string& name, double value) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  spans_[id - 1].counts[name] += value;
}

void Tracer::add(const std::string& name, const std::string& layer,
                 double start, double end, std::uint64_t parent,
                 std::uint64_t request) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lk(mu_);
  Span s;
  s.id = spans_.size() + 1;
  s.name = name;
  s.layer = layer;
  s.start = start;
  s.end = end;
  s.parent = parent;
  s.request = request;
  spans_.push_back(std::move(s));
}

void Report::write_json(std::ostream& out) const {
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "{\"attempted\": " << attempted << ", \"failed\": " << failed;
  out << ", \"scalars\": {";
  bool first = true;
  for (const auto& [k, v] : scalars) {
    out << (first ? "" : ", ");
    write_string(out, k);
    out << ": ";
    write_number(out, v);
    first = false;
  }
  out << "}, \"samples\": {";
  first = true;
  for (const auto& [k, vs] : samples) {
    out << (first ? "" : ", ");
    write_string(out, k);
    out << ": [";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) out << ',';
      write_number(out, vs[i]);
    }
    out << ']';
    first = false;
  }
  out << "}, \"checks\": [";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    out << (i > 0 ? ", " : "") << "{\"name\": ";
    write_string(out, checks[i].name);
    out << ", \"ok\": " << (checks[i].ok ? "true" : "false")
        << ", \"detail\": ";
    write_string(out, checks[i].detail);
    out << '}';
  }
  out << "], \"spans\": [";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i > 0 ? ",\n" : "\n") << "{\"id\": " << s.id << ", \"name\": ";
    write_string(out, s.name);
    out << ", \"layer\": ";
    write_string(out, s.layer);
    out << ", \"start\": " << s.start << ", \"end\": " << s.end
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"counts\": {";
    bool first_count = true;
    for (const auto& [k, v] : s.counts) {
      out << (first_count ? "" : ", ");
      write_string(out, k);
      out << ": ";
      write_number(out, v);
      first_count = false;
    }
    out << "}}";
  }
  out << "]}\n";
}

std::vector<double> time_concurrently(int threads, int reps,
                                      const std::function<void(int)>& fn) {
  std::vector<std::vector<double>> seconds(static_cast<std::size_t>(threads));
  const auto work = [&](int w) {
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      fn(w);
      seconds[static_cast<std::size_t>(w)].push_back(
          seconds_between(t0, Clock::now()));
    }
  };
  std::vector<std::thread> pool;
  for (int w = 1; w < threads; ++w) pool.emplace_back(work, w);
  work(0);
  for (auto& t : pool) t.join();
  std::vector<double> all;
  for (const auto& v : seconds) all.insert(all.end(), v.begin(), v.end());
  return all;
}

void run_rounds(int threads, double seconds,
                const std::function<void(int, int)>& round) {
  const auto start = Clock::now();
  const auto work = [&](int w) {
    double last = 0.0;
    for (int i = 0; i == 0 || seconds_between(start, Clock::now()) + last <=
                                  seconds;
         ++i) {
      const auto t0 = Clock::now();
      round(w, i);
      last = seconds_between(t0, Clock::now());
    }
  };
  std::vector<std::thread> pool;
  for (int w = 1; w < threads; ++w) pool.emplace_back(work, w);
  work(0);
  for (auto& t : pool) t.join();
}

double us_per_call(const std::function<void()>& fn, double batch_seconds) {
  const auto timed = [&fn](long calls) {
    const auto start = Clock::now();
    for (long i = 0; i < calls; ++i) fn();
    return seconds_between(start, Clock::now());
  };
  // Grow the batch until it fills the window (this also warms caches and
  // lazy state), then time five batches of that size.
  long calls = 1;
  while (timed(calls) < batch_seconds && calls < (1L << 40)) calls *= 2;
  std::vector<double> per_call;
  for (int batch = 0; batch < 5; ++batch) {
    per_call.push_back(timed(calls) * 1e6 / static_cast<double>(calls));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

}  // namespace perfbench
