#include "trace.hpp"

#include <fstream>

#include "common/json.hpp"

namespace perfbench {

int Tracer::begin(std::string name, std::uint64_t request) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  s.start = std::chrono::duration<double>(Clock::now() - t0_).count();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end =
      std::chrono::duration<double>(Clock::now() - t0_).count();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

double Tracer::duration(int index) const {
  const Span& s = spans_[static_cast<std::size_t>(index)];
  return s.end - s.start;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  // Children nest strictly inside their parent (one thread, scoped
  // spans), so the covered part is the sum of child durations.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string& n = spans_[i].name;
    out[n.substr(0, n.find('.'))] += self[i];
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  for (const Span& s : spans_) {
    repro::json::Value o = repro::json::Value::object();
    o.set("name", s.name);
    o.set("start", s.start);
    o.set("end", s.end);
    o.set("parent", s.parent);
    o.set("request", static_cast<std::int64_t>(s.request));
    os << o.dump() << "\n";
  }
  return static_cast<bool>(os);
}

}  // namespace perfbench
