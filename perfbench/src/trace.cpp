#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::int32_t Tracer::open(const char* name, std::uint64_t id) {
  Span span;
  span.name = name;
  span.parent = current_;
  span.id = id;
  span.start_ns = now_ns();
  spans_.push_back(span);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void Tracer::close(std::int32_t index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  current_ = span.parent;
}

double Tracer::span_cost_ns() {
  constexpr int kBatches = 9;
  constexpr int kSpans = 4096;
  std::vector<double> per_span;
  for (int b = 0; b < kBatches; ++b) {
    Tracer scratch;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kSpans; ++i) {
      Scope outer(scratch, "span_cost", static_cast<std::uint64_t>(i));
    }
    const std::chrono::duration<double, std::nano> dt =
        std::chrono::steady_clock::now() - t0;
    per_span.push_back(dt.count() / kSpans);
  }
  std::sort(per_span.begin(), per_span.end());
  return per_span[kBatches / 2];
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    Totals& t = out[spans_[i].name];
    t.total_ms += static_cast<double>(dur) / 1e6;
    t.self_ms += static_cast<double>(dur - child_ns[i]) / 1e6;
    ++t.count;
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::string& metadata_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,\n",
               metadata_json.c_str());
  std::fprintf(f, "\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span\":%zu,\"parent\":%d,\"id\":%llu}}%s\n",
                 s.name, static_cast<int>(std::string(s.name).find('.')),
                 s.name, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<int>(s.parent),
                 static_cast<unsigned long long>(s.id),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
