// The benchmark's span recorder. Spans are recorded only in the
// benchmark's own code, around its calls into the program's layers.
// A span is named "<layer>.<call>"; it records start, end, its parent
// span and the request it belongs to. Spans are kept in memory and
// written out when the run ends. Single-threaded: the traced replay
// issues one request at a time.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the tracer was created
  double end = 0.0;
  int parent = -1;  // index into spans(), -1 for a root
  std::uint64_t request = 0;
};

class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  // Opens a span under the innermost open one; returns its index.
  int begin(std::string name, std::uint64_t request);
  void end(int index);

  // Opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& t, std::string name, std::uint64_t request)
        : t_(t), index_(t.begin(std::move(name), request)) {}
    ~Scope() { t_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int index_;
  };

  const std::vector<Span>& spans() const noexcept { return spans_; }
  double duration(int index) const;

  // A span's duration minus the part of it its child spans cover,
  // summed per layer (the name up to the first '.').
  std::map<std::string, double> self_seconds_by_layer() const;

  // One JSON object per span, one per line.
  bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
