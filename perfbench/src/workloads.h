// The benchmark's three closed-loop workloads, each driven through the
// library's public entry points:
//
//   ba-fig1b   serial ba::run_ba (AER reduction), n = 256, sync-rushing,
//              5% static corruption, a fresh world per trial.
//   svc-lossy  consecutive exp::run_service streams of 60 instances: AER at
//              n = 64 on the async engine, lossy-5pct + arq-fast recovery, grudge-stuff
//              adversary, 2 executors (generator + 2 executors + reducer =
//              4 threads), workers + 2 instances in flight.
//   scale-soa  serial exp::run_aer_scale_trial through one exp::ScaleArena,
//              n = 10^4, d = 8, sync-rushing, no adversary strategy.
//
// Every op's seed derives from the workload seed through exp::trial_seed
// (point 0 for timed ops, point 1 for set-up), and the service stream's
// instance seeds through exp::instance_seed inside the library. A traced op
// wraps each public call it makes in a span; where the untraced op is a
// single library call (run_ba, run_aer_scale_trial) the traced op makes the
// same public calls that entry point makes, one by one, so that each layer
// gets its own span. The pass digest (Aggregate / ServiceStats fingerprint)
// proves the two produce identical results.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "trace.h"

namespace perfbench {

/// Deterministic outcome of one pass of ops plus the workload's per-layer
/// counts. Per-layer values are per trial / per instance unless the name
/// says otherwise; layers a workload does not exercise are left out.
struct PassResult {
  std::uint64_t units = 0;  ///< trials or service instances completed.
  std::uint64_t digest = 0;
  std::uint64_t wrong_decisions = 0;
  std::uint64_t correct_nodes = 0;
  std::uint64_t decided_nodes = 0;
  double bits_per_node = 0;  ///< the paper's amortized bits/node, mean.
  double sim_rounds = 0;     ///< simulated completion time, mean.
  /// Set by workloads whose ops contain many units (svc-lossy): per-unit
  /// wall latency quantiles measured by the library.
  bool has_unit_latency = false;
  double unit_ms_min = 0;
  double unit_ms_p50 = 0;
  double unit_ms_p90 = 0;
  /// Empty when every internal consistency check passed.
  std::string check_error;
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One set-up from nothing: everything the workload builds before its
  /// first timed op. fba_perfbench calls it several times (rep = 0, 1, ...) to
  /// time it; the ops run on the state of the last call.
  virtual void prepare(std::uint64_t rep) = 0;

  /// Clears the outcomes of a previous pass (prepared state is kept) and
  /// returns how many ops a pass of `seconds` makes: `seconds` times a
  /// constant nominal rate, so the same `seconds` runs the same ops on every
  /// box and commit, and every simulated result is fixed by the seed.
  virtual std::uint64_t begin_pass(double seconds) = 0;

  /// Runs op `index` and returns the units it completed. With a tracer,
  /// each public library call is wrapped in a span.
  virtual std::uint64_t run_op(std::uint64_t index, Tracer* tracer) = 0;

  /// Reduces the pass. With a tracer, also derives the per-layer timings
  /// from its spans (and may run extra, untimed attribution work).
  virtual PassResult finish_pass(Tracer* tracer) = 0;
};

/// Known names: "ba-fig1b", "svc-lossy", "scale-soa". nullptr otherwise.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
