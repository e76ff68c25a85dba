#include "trace.h"

#include <fstream>
#include <vector>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(const char* name, int instance) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, parent, instance, NowUs(), 0});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int span) {
  spans_[span].end_us = NowUs();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::map<std::string, double> Tracer::SelfTimeMs() const {
  std::vector<double> child_us(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name] += (s.end_us - s.start_us - child_us[i]) / 1000.0;
  }
  return self;
}

bool Tracer::WriteChromeTrace(
    const std::string& path,
    const std::map<std::string, std::string>& metadata) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  // Whole span trees are written in order while fewer than
  // kMaxWrittenSpans spans are out; the trees of the probe pass (root
  // "probe") are always written. Self times count every span either way.
  std::vector<bool> keep(spans_.size());
  size_t written = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string name = s.name;
    keep[i] = s.parent >= 0 ? keep[s.parent]
                            : written < kMaxWrittenSpans || name == "probe";
    if (!keep[i]) continue;
    const std::string layer = name.substr(0, name.find('.'));
    out << (written++ == 0 ? "" : ",") << "\n{\"name\":\"" << name
        << "\",\"cat\":\"" << layer
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
        << ",\"dur\":" << s.end_us - s.start_us << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"instance\":" << s.instance
        << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans_recorded\":\""
      << spans_.size() << "\",\"spans_written\":\"" << written << "\"";
  for (const auto& [key, value] : metadata) {
    out << ",\"" << key << "\":\"" << value << "\"";
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
