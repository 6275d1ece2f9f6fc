// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark's own code around its calls into the
// library's public entry points (one layer per span name prefix: "ae.",
// "aer.", "ba.", "exp.", "svc."). Each span keeps its name, start, end,
// parent span and the trial or instance id it belongs to. Nothing is written
// while the workload runs; at exit the spans are dumped as Chrome
// trace-event JSON (loads in Perfetto or chrome://tracing) and summarized as
// per-name totals and self times.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  ///< index into spans(), -1 for a root span.
    std::uint64_t id = 0;      ///< trial, instance or batch index.
  };

  /// Per-name totals: wall time inside spans of that name, the part of it
  /// not covered by child spans, and the number of spans.
  struct Totals {
    double total_ms = 0;
    double self_ms = 0;
    std::uint64_t count = 0;
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t id)
        : tracer_(tracer), index_(tracer.open(name, id)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_;
  };

  Tracer();

  std::int32_t open(const char* name, std::uint64_t id);
  void close(std::int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Wall cost of opening and closing one span, measured on a scratch
  /// tracer (median of several batches).
  static double span_cost_ns();
  std::map<std::string, Totals> totals() const;

  /// Writes every span as a Chrome trace-event "X" event; `metadata_json` is
  /// a JSON object stored under "otherData". Returns false on I/O failure.
  bool write_chrome_json(const std::string& path,
                         const std::string& metadata_json) const;

 private:
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

}  // namespace perfbench
