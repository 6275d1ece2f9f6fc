// fba_perfbench: the repo benchmark's program (see perfbench/README.md).
//
//   fba_perfbench --workload=ba-fig1b|svc-lossy|scale-soa --seed=N
//                 --seconds=S --trace=0|1 [--trace-out=FILE]
//                 [--git-describe=TEXT] [--source-digest=TEXT]
//
// --trace=0 times the workload's closed loop of ops (a fixed count for S,
// about S seconds of work on the reference box) and prints the end-to-end
// metrics. The timing metrics are taken from the pass's fastest stretch
// (best batch, fastest unit), because the host's load moves whole-pass
// figures by more than a code change would. --trace=1 runs the ops for S/2 untraced, then the same ops again
// with spans around every public library call, and prints the per-layer
// metrics; both passes must produce the same digest.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Errors go to stderr with exit code 2 and no result line.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "alloc_count.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using clock = std::chrono::steady_clock;

// Set-up is repeated at least kMinSetupReps times and until kSetupBudgetS
// seconds are spent (at most kMaxSetupReps); setup_s is the median.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 25;
constexpr double kSetupBudgetS = 2.0;

struct Metric {
  const char* name;
  const char* unit;
};

// The names and units BENCHMARK.json declares, in its order.
constexpr Metric kEndToEnd[] = {
    {"ops_per_s", "1/s"},       {"op_ms_min", "ms"},
    {"cpu_ms_min", "ms"},
    {"peak_rss_mb", "MB"},      {"allocs_per_op", "count"},
    {"setup_s", "s"},           {"decided_share", "ratio"},
    {"bits_per_node", "bits"},  {"sim_rounds_mean", "rounds"},
};

constexpr Metric kPerLayer[] = {
    {"ae.run_ms", "ms"},
    {"ae.rounds", "rounds"},
    {"ae.msgs", "count"},
    {"ba.compose_ms", "ms"},
    {"aer.build_ms", "ms"},
    {"aer.run_ms", "ms"},
    {"aer.msgs_per_s", "1/s"},
    {"aer.max_deferred_answers", "count"},
    {"aer.push_bits_per_node", "bits"},
    {"sampler.rows_built", "count"},
    {"sampler.mem_bytes_per_node", "bytes"},
    {"net.msgs", "count"},
    {"net.bits", "bits"},
    {"net.fault_dropped_msgs", "count"},
    {"net.recovery_retransmit_msgs", "count"},
    {"net.recovery_dead_msgs", "count"},
    {"net.recovery_dup_msgs", "count"},
    {"net.recovery_useful_ratio", "ratio"},
    {"exp.setup_ms", "ms"},
    {"exp.run_ms", "ms"},
    {"exp.reduce_ms", "ms"},
    {"svc.worker_busy_share", "ratio"},
    {"svc.jobs_pop_blocks", "count"},
    {"svc.jobs_push_blocks", "count"},
    {"svc.done_mean_depth", "count"},
    {"trace.overhead_share", "ratio"},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
  std::string git_describe = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr, "fba_perfbench: %s\n", message.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      fail("missing value for " + arg);
    }
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') fail("--seed needs an integer");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o.seconds > 0)) {
        fail("--seconds needs a positive number");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") fail("--trace needs 0 or 1");
      o.trace = value == "1" ? 1 : 0;
    } else if (arg == "--trace-out") {
      o.trace_out = value;
    } else if (arg == "--git-describe") {
      o.git_describe = value;
    } else if (arg == "--source-digest") {
      o.source_digest = value;
    } else {
      fail("unknown flag " + arg);
    }
  }
  if (o.workload.empty() || o.seconds <= 0 || o.trace < 0) {
    fail("usage: --workload=NAME --seed=N --seconds=S --trace=0|1");
  }
  return o;
}

double seconds_since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Linear-interpolated quantile of `v`.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Wall, CPU and allocation measurements of one pass, per op.
struct PassTiming {
  std::uint64_t ops = 0;
  std::uint64_t units = 0;
  double wall_s = 0;  ///< summed around the entry calls only.
  double cpu_s = 0;
  std::vector<double> op_wall_s;
  std::vector<double> op_cpu_s;
  std::vector<double> op_units;
  std::vector<double> allocs_per_unit;
};

constexpr std::size_t kBatches = 20;

/// Units per wall second in the pass's fastest stretch: its ops split into
/// kBatches consecutive batches (one op each when there are fewer ops), and
/// the batch with the most units per second.
double best_batch_units_per_s(const PassTiming& t) {
  double best = 0;
  const std::size_t ops = t.op_wall_s.size();
  const std::size_t batches = std::min(kBatches, ops);
  for (std::size_t b = 0; b < batches; ++b) {
    double wall = 0;
    double units = 0;
    for (std::size_t i = b * ops / batches; i < (b + 1) * ops / batches; ++i) {
      wall += t.op_wall_s[i];
      units += t.op_units[i];
    }
    if (units > 0) best = std::max(best, units / wall);
  }
  return best;
}

/// Runs the ops of a pass of `seconds`. Timing and allocation counting cover
/// only run_op.
PassTiming run_pass(Workload& w, double seconds, Tracer* tracer) {
  PassTiming t;
  const std::uint64_t ops = w.begin_pass(seconds);
  for (std::uint64_t i = 0; i < ops; ++i) {
    const double cpu0 = cpu_seconds();
    const std::uint64_t allocs0 = alloc_count();
    set_alloc_counting(true);
    const auto t0 = clock::now();
    const std::uint64_t units = w.run_op(i, tracer);
    const double wall = seconds_since(t0);
    set_alloc_counting(false);
    const double allocs = static_cast<double>(alloc_count() - allocs0);
    const double cpu = cpu_seconds() - cpu0;
    t.cpu_s += cpu;
    t.wall_s += wall;
    t.op_wall_s.push_back(wall);
    t.op_cpu_s.push_back(cpu);
    t.op_units.push_back(static_cast<double>(units));
    t.allocs_per_unit.push_back(units ? allocs / static_cast<double>(units)
                                      : allocs);
    t.units += units;
    ++t.ops;
  }
  return t;
}

std::string read_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string provenance_json(const Options& o) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"git_describe\":\"%s\",\"source_digest\":\"%s\",\"nproc\":%ld,"
      "\"cpu_model\":\"%s\",\"compiler\":\"g++ %s\"}",
      json_escape(o.workload).c_str(),
      static_cast<unsigned long long>(o.seed), o.seconds, o.trace,
      json_escape(o.git_describe).c_str(),
      json_escape(o.source_digest).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      json_escape(read_cpu_model()).c_str(), json_escape(__VERSION__).c_str());
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metric* metrics, std::size_t count,
                  const std::map<std::string, double>& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = values.find(metrics[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name, v, metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Checks a pass's safety and internal consistency; prints why not.
bool pass_ok(const PassResult& r, const char* label) {
  bool ok = true;
  if (r.wrong_decisions > 0) {
    std::printf("CHECK FAILED (%s): %llu wrong decisions\n", label,
                static_cast<unsigned long long>(r.wrong_decisions));
    ok = false;
  }
  if (r.units == 0 || r.correct_nodes == 0) {
    std::printf("CHECK FAILED (%s): no completed units\n", label);
    ok = false;
  }
  if (!r.check_error.empty()) {
    std::printf("CHECK FAILED (%s): %s\n", label, r.check_error.c_str());
    ok = false;
  }
  return ok;
}

int run(const Options& o) {
  std::unique_ptr<Workload> workload = make_workload(o.workload, o.seed);
  if (!workload) {
    fail("unknown workload '" + o.workload +
         "' (known: ba-fig1b, svc-lossy, scale-soa)");
  }
  const std::string provenance = provenance_json(o);
  std::printf("provenance %s\n", provenance.c_str());

  std::vector<double> setup_s;
  double setup_total = 0;
  for (int rep = 0; rep < kMaxSetupReps; ++rep) {
    if (rep >= kMinSetupReps && setup_total >= kSetupBudgetS) break;
    const auto t0 = clock::now();
    workload->prepare(static_cast<std::uint64_t>(rep));
    setup_s.push_back(seconds_since(t0));
    setup_total += setup_s.back();
  }
  const double setup_median = quantile(setup_s, 0.5);

  if (o.trace == 0) {
    const PassTiming t = run_pass(*workload, o.seconds, nullptr);
    const PassResult r = workload->finish_pass(nullptr);
    const bool ok = pass_ok(r, "untraced");
    // Per-op wall and CPU times per unit: a trial, or an instance of a
    // stream.
    std::vector<double> unit_ms;
    std::vector<double> cpu_unit_ms;
    for (std::size_t i = 0; i < t.op_wall_s.size(); ++i) {
      const double units = std::max(t.op_units[i], 1.0);
      unit_ms.push_back(t.op_wall_s[i] * 1e3 / units);
      cpu_unit_ms.push_back(t.op_cpu_s[i] * 1e3 / units);
    }
    std::map<std::string, double> m;
    m["ops_per_s"] = best_batch_units_per_s(t);
    m["op_ms_min"] = r.has_unit_latency
                         ? r.unit_ms_min
                         : *std::min_element(unit_ms.begin(), unit_ms.end());
    m["cpu_ms_min"] =
        *std::min_element(cpu_unit_ms.begin(), cpu_unit_ms.end());
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    m["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
    m["allocs_per_op"] = quantile(t.allocs_per_unit, 0.5);
    m["setup_s"] = setup_median;
    m["decided_share"] = static_cast<double>(r.decided_nodes) /
                         static_cast<double>(r.correct_nodes);
    m["bits_per_node"] = r.bits_per_node;
    m["sim_rounds_mean"] = r.sim_rounds;
    std::printf("workload %s: %llu ops, %llu units, %.3f s timed; digest %016llx\n",
                o.workload.c_str(), static_cast<unsigned long long>(t.ops),
                static_cast<unsigned long long>(t.units), t.wall_s,
                static_cast<unsigned long long>(r.digest));
    // Whole-pass figures: they follow the host's load as much as the code,
    // so they are printed here and not reported as metrics.
    std::printf(
        "whole pass: %.4f units/s, %.4f CPU ms/unit; unit wall ms p50 %.4f, "
        "p90 %.4f\n",
        static_cast<double>(t.units) / t.wall_s,
        t.cpu_s * 1e3 / static_cast<double>(t.units),
        r.has_unit_latency ? r.unit_ms_p50 : quantile(unit_ms, 0.5),
        r.has_unit_latency ? r.unit_ms_p90 : quantile(unit_ms, 0.9));
    if (t.ops <= 32) {
      std::printf("ms per unit, by op:");
      for (const double ms : unit_ms) std::printf(" %.1f", ms);
      std::printf("\n");
    }
    for (const Metric& metric : kEndToEnd) {
      std::printf("  %-16s %14.6g %s\n", metric.name, m[metric.name],
                  metric.unit);
    }
    print_result(ok, r.units, ok ? 0 : r.units, kEndToEnd,
                 std::size(kEndToEnd), m);
    return 0;
  }

  // Traced run: an untraced reference pass, then the same ops traced.
  const PassTiming ta = run_pass(*workload, o.seconds / 2, nullptr);
  const PassResult ra = workload->finish_pass(nullptr);
  Tracer tracer;
  const PassTiming tb = run_pass(*workload, o.seconds / 2, &tracer);
  const std::size_t pass_spans = tracer.spans().size();
  PassResult rb = workload->finish_pass(&tracer);
  const bool untraced_ok = pass_ok(ra, "untraced");
  bool ok = pass_ok(rb, "traced") && untraced_ok;
  if (ra.digest != rb.digest || ra.units != rb.units) {
    std::printf("CHECK FAILED: traced digest %016llx != untraced %016llx\n",
                static_cast<unsigned long long>(rb.digest),
                static_cast<unsigned long long>(ra.digest));
    ok = false;
  }
  // Tracing overhead from the tracer's own cost: the pass's spans times the
  // measured cost of one span, over the traced wall time. The untraced and
  // traced ops_per_s are printed too, but they ran one after the other and
  // their difference carries the host's drift.
  const double span_ns = Tracer::span_cost_ns();
  rb.layer["trace.overhead_share"] =
      static_cast<double>(pass_spans) * span_ns / (tb.wall_s * 1e9);
  const double ops_untraced = static_cast<double>(ta.units) / ta.wall_s;
  const double ops_traced = static_cast<double>(tb.units) / tb.wall_s;
  std::printf(
      "workload %s: %llu ops traced; digest %016llx (untraced %016llx)\n"
      "tracing overhead: %zu spans x %.1f ns = %.3g of %.3f s traced; "
      "ops_per_s untraced %.4f, traced %.4f, diff %.4f\n",
      o.workload.c_str(), static_cast<unsigned long long>(tb.ops),
      static_cast<unsigned long long>(rb.digest),
      static_cast<unsigned long long>(ra.digest), pass_spans, span_ns,
      rb.layer["trace.overhead_share"], tb.wall_s, ops_untraced, ops_traced,
      ops_untraced - ops_traced);

  // Self time per span name and per layer (the name's prefix).
  std::map<std::string, double> layer_self;
  std::printf("%-28s %10s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto& [name, t] : tracer.totals()) {
    std::printf("%-28s %10llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_ms,
                t.self_ms);
    layer_self[name.substr(0, name.find('.'))] += t.self_ms;
  }
  for (const auto& [layer, ms] : layer_self) {
    std::printf("layer %-8s self %12.3f ms\n", layer.c_str(), ms);
  }
  for (const Metric& metric : kPerLayer) {
    std::printf("  %-30s %14.6g %s\n", metric.name, rb.layer[metric.name],
                metric.unit);
  }
  if (!o.trace_out.empty()) {
    if (tracer.write_chrome_json(o.trace_out, provenance)) {
      std::printf("trace written to %s (%zu spans)\n", o.trace_out.c_str(),
                  tracer.spans().size());
    } else {
      std::printf("warning: could not write %s\n", o.trace_out.c_str());
    }
  }
  print_result(ok, rb.units, ok ? 0 : rb.units, kPerLayer,
               std::size(kPerLayer), rb.layer);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Keep freed memory in the process. With glibc's defaults every fresh
  // ba-fig1b world is handed back to the kernel and faulted in again by the
  // next trial (~35-43k minor faults, about half of a trial's wall time in
  // the kernel), and what a fault costs follows the host's memory pressure.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
#endif
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fba_perfbench: %s\n", e.what());
    return 2;
  }
}
