#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "fba.h"
#include "support/siphash.h"

namespace perfbench {
namespace {

using namespace fba;
using clock = std::chrono::steady_clock;

double ms_since(clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock::now() - t0).count();
}

/// Ops in a pass of `seconds` at `per_s` nominal ops per second (at least 1).
std::uint64_t ops_for(double seconds, double per_s) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(seconds * per_s)));
}

/// Logical bytes of the dense sampler rows built for the world's current
/// trial, per node (row layout as accounted in aer/soa.cpp: a distinct-count
/// header plus three d-sized regions; poll rows add a 4-entry header).
double sampler_bytes_per_node_of(const aer::AerWorld& world) {
  const aer::AerShared& shared = *world.shared;
  const double quorum_row =
      static_cast<double>((1 + 3 * shared.config.resolved_d()) *
                          sizeof(NodeId));
  const double bytes =
      static_cast<double>(shared.tables.push.rows_built() +
                          shared.tables.pull.rows_built()) *
          quorum_row +
      static_cast<double>(shared.tables.poll.rows_built()) *
          (quorum_row + 4 * sizeof(NodeId));
  return bytes / static_cast<double>(shared.config.n);
}

double rows_built(const aer::AerWorld& world) {
  const sampler::SharedTables& t = world.shared->tables;
  return static_cast<double>(t.push.rows_built() + t.pull.rows_built() +
                             t.poll.rows_built());
}

/// Sums of per-trial layer counts, turned into per-trial means at the end.
/// Plain fields: recording a trial happens inside the timed op and must not
/// allocate.
struct LayerSums {
  double ae_rounds = 0;
  double ae_msgs = 0;
  double aer_msgs = 0;
  double max_deferred = 0;
  double push_bits_per_node = 0;
  double msgs = 0;
  double bits = 0;
  double fault_dropped = 0;
  double retransmits = 0;
  double dead = 0;
  double dups = 0;
  double acked = 0;
  double rows = 0;
  double sampler_bytes_per_node = 0;
  std::uint64_t trials = 0;

  void add_outcome(const exp::TrialOutcome& o, std::size_t n) {
    max_deferred += static_cast<double>(o.max_deferred);
    push_bits_per_node += o.push_bits_per_node;
    msgs += o.total_messages;
    bits += o.amortized_bits * static_cast<double>(n);
    fault_dropped += o.fault_dropped_msgs;
    retransmits += o.recovery_retransmit_msgs;
    dead += o.recovery_dead_msgs;
    dups += o.recovery_dup_msgs;
    acked += o.recovery_acked_msgs;
    ++trials;
  }
  void add_world(const aer::AerWorld& world) {
    rows += rows_built(world);
    sampler_bytes_per_node += sampler_bytes_per_node_of(world);
  }

  /// Per-trial means, plus the recovery layer's useful ratio: acked sends
  /// over every ARQ transmission (first sends that were acked or given up
  /// on, plus retransmits); 0 when the layer is off.
  void write_means(std::map<std::string, double>& out) const {
    if (trials == 0) return;
    const double t = static_cast<double>(trials);
    out["aer.max_deferred_answers"] = max_deferred / t;
    out["aer.push_bits_per_node"] = push_bits_per_node / t;
    out["sampler.rows_built"] = rows / t;
    out["sampler.mem_bytes_per_node"] = sampler_bytes_per_node / t;
    out["net.msgs"] = msgs / t;
    out["net.bits"] = bits / t;
    out["net.fault_dropped_msgs"] = fault_dropped / t;
    out["net.recovery_retransmit_msgs"] = retransmits / t;
    out["net.recovery_dead_msgs"] = dead / t;
    out["net.recovery_dup_msgs"] = dups / t;
    const double attempts = acked + dead + retransmits;
    out["net.recovery_useful_ratio"] = attempts > 0 ? acked / attempts : 0;
  }
};

/// Total (or self) wall time of the spans named `name`.
double span_ms(const std::map<std::string, Tracer::Totals>& totals,
               const char* name, bool self = false) {
  const auto it = totals.find(name);
  if (it == totals.end()) return 0;
  return self ? it->second.self_ms : it->second.total_ms;
}

/// Aggregates a pass and serializes it as an fba.report, the way the figure
/// tools end a sweep, and fills `r` from the aggregate. exp.reduce_ms
/// times both steps.
void reduce_trials(const std::vector<exp::TrialOutcome>& outcomes,
                   const aer::AerConfig& base, const exp::GridPoint& point,
                   const char* figure, Tracer* tracer, PassResult& r) {
  const auto t0 = clock::now();
  std::unique_ptr<Tracer::Scope> span;
  if (tracer) span = std::make_unique<Tracer::Scope>(*tracer, "exp.reduce", 0);
  const exp::Aggregate a = exp::aggregate_outcomes(outcomes);
  exp::ReportMeta meta;
  meta.tool = "fba_perfbench";
  meta.figure = figure;
  meta.trials = outcomes.size();
  exp::Report report(meta);
  report.add_point(figure, exp::ReportPoint{
                               point, exp::point_provenance(base, point), a});
  if (report.to_json().empty()) r.check_error = "empty report";
  span.reset();
  r.layer["exp.reduce_ms"] = ms_since(t0);

  r.units = a.trials;
  r.digest = a.fingerprint();
  r.wrong_decisions = a.wrong_decisions;
  r.correct_nodes = a.correct_nodes;
  r.decided_nodes = a.correct_nodes - a.stalled_nodes;
  r.bits_per_node = a.amortized_bits.mean;
  r.sim_rounds = a.completion_time.mean;
}

// ----- ba-fig1b ---------------------------------------------------------------

class BaFig1b final : public Workload {
 public:
  explicit BaFig1b(std::uint64_t seed) : seed_(seed) {
    base_.n = kN;
    base_.corrupt_fraction = 0.05;
    exp::Grid grid;
    grid.ns = {kN};
    point_ = exp::expand_grid(base_, grid).front();
  }

  void prepare(std::uint64_t rep) override {
    // run_ba keeps no state between calls; its set-up is the lazy,
    // process-level warm-up of one composed run (allocator, page faults).
    const ba::BaReport warm =
        ba::run_ba(config(exp::trial_seed(seed_, 1, rep)), ba::Reduction::kAer);
    if (warm.ae.n != kN) throw ConfigError("ba-fig1b warm-up ran the wrong n");
  }

  std::uint64_t begin_pass(double seconds) override {
    const std::uint64_t ops = ops_for(seconds, kNominalOpsPerS);
    outcomes_.clear();
    outcomes_.reserve(ops);
    sums_ = LayerSums();
    return ops;
  }

  std::uint64_t run_op(std::uint64_t index, Tracer* tracer) override {
    const ba::BaConfig cfg = config(exp::trial_seed(seed_, 0, index));
    const ba::BaReport report = tracer ? run_ba_traced(cfg, *tracer, index)
                                       : ba::run_ba(cfg, ba::Reduction::kAer);
    outcomes_.push_back(exp::outcome_of(report));
    // net.* counts cover both phases (outcome_of totals the composition).
    sums_.ae_rounds += static_cast<double>(report.ae.rounds);
    sums_.ae_msgs += static_cast<double>(report.ae.total_messages);
    sums_.aer_msgs += static_cast<double>(report.reduction.total_messages);
    sums_.add_outcome(outcomes_.back(), kN);
    return 1;
  }

  PassResult finish_pass(Tracer* tracer) override {
    PassResult r;
    reduce_trials(outcomes_, base_, point_, "ba-fig1b", tracer, r);
    if (!tracer) return r;

    sums_.write_means(r.layer);
    const double trials = static_cast<double>(r.units);
    r.layer["ae.rounds"] = sums_.ae_rounds / trials;
    r.layer["ae.msgs"] = sums_.ae_msgs / trials;
    const auto totals = tracer->totals();
    const double aer_run_ms = span_ms(totals, "aer.run_aer_world");
    r.layer["ae.run_ms"] = span_ms(totals, "ae.run_ae") / trials;
    r.layer["ba.compose_ms"] = span_ms(totals, "ba.run_ba", true) / trials;
    r.layer["aer.build_ms"] = span_ms(totals, "aer.build_aer_world") / trials;
    r.layer["aer.run_ms"] = aer_run_ms / trials;
    r.layer["aer.msgs_per_s"] =
        aer_run_ms > 0 ? sums_.aer_msgs / (aer_run_ms / 1e3) : 0;
    return r;
  }

 private:
  static constexpr std::size_t kN = 256;
  // About 6-8 trials/s on the reference box (README, "Seed-commit numbers").
  static constexpr double kNominalOpsPerS = 7.0;

  ba::BaConfig config(std::uint64_t seed) const {
    ba::BaConfig c;
    c.n = kN;
    c.seed = seed;
    c.corrupt_fraction = base_.corrupt_fraction;
    c.reduction_model = aer::Model::kSyncRushing;
    return c;
  }

  /// ba::run_ba(config, Reduction::kAer) made call for call (src/ba/ba.cpp),
  /// with a span around each public call. The pass digest pins it to run_ba.
  ba::BaReport run_ba_traced(const ba::BaConfig& config, Tracer& tracer,
                             std::uint64_t id) {
    Tracer::Scope op(tracer, "ba.run_ba", id);
    ba::BaReport report;
    report.kind = ba::Reduction::kAer;

    ae::AeConfig ae_cfg;
    ae_cfg.n = config.n;
    ae_cfg.seed = config.seed;
    ae_cfg.corrupt_fraction = config.corrupt_fraction;
    ae_cfg.explicit_t = config.explicit_t;
    ae_cfg.root_size = config.root_size;
    ae_cfg.committee_size = config.committee_size;
    ae_cfg.gstring_c = config.gstring_c;
    ae_cfg.max_rounds = config.max_rounds;
    ae::AeRunResult ae_result;
    {
      Tracer::Scope span(tracer, "ae.run_ae", id);
      ae_result = ae::run_ae(ae_cfg);
    }
    report.ae = ae_result.report;
    if (ae_result.winner.empty()) {
      throw ConfigError("AE phase produced no assembled string");
    }

    aer::AerConfig aer_cfg;
    aer_cfg.n = config.n;
    aer_cfg.seed = config.seed + 1;
    aer_cfg.model = config.reduction_model;
    aer_cfg.explicit_t = static_cast<long>(ae_result.corrupt.size());
    aer_cfg.c_d = config.c_d;
    aer_cfg.d_override = config.d_override;
    aer_cfg.gstring_c = config.gstring_c;
    aer_cfg.answer_budget = config.answer_budget;
    aer_cfg.max_rounds = config.max_rounds;
    aer_cfg.max_time = config.max_time;
    aer_cfg.fault_plan = config.fault_plan;
    aer_cfg.recovery_plan = config.recovery_plan;
    auto same_corrupt = [&ae_result](std::size_t, std::size_t, Rng&,
                                     aer::AerShared&) {
      return ae_result.corrupt;
    };
    aer::AerWorld world;
    {
      Tracer::Scope span(tracer, "aer.build_aer_world", id);
      world = aer::build_aer_world(aer_cfg, same_corrupt);
    }

    aer::AerShared& shared = *world.shared;
    shared.gstring = shared.table.intern(ae_result.winner);
    world.view.gstring = shared.gstring;
    const std::size_t bits = ae_result.winner.size();
    Rng filler = Rng(config.seed).split(0xf111ull);
    for (NodeId node = 0; node < config.n; ++node) {
      world.view.knowledgeable[node] = false;
      if (std::find(ae_result.corrupt.begin(), ae_result.corrupt.end(),
                    node) != ae_result.corrupt.end()) {
        world.view.initial[node] = kNoString;
        continue;
      }
      const BitString& assembled = ae_result.assembled[node];
      if (assembled.empty()) {
        world.view.initial[node] =
            shared.table.intern(BitString::random(bits, filler));
      } else {
        world.view.initial[node] = shared.table.intern(assembled);
        world.view.knowledgeable[node] = assembled == ae_result.winner;
      }
    }

    {
      Tracer::Scope span(tracer, "aer.run_aer_world", id);
      report.reduction = aer::run_aer_world(world);
    }
    sums_.add_world(world);

    report.total_time =
        static_cast<double>(report.ae.rounds) + report.reduction.completion_time;
    report.total_messages =
        report.ae.total_messages + report.reduction.total_messages;
    report.total_bits = report.ae.total_bits + report.reduction.total_bits;
    report.amortized_bits =
        static_cast<double>(report.total_bits) / static_cast<double>(config.n);
    report.agreement = report.reduction.agreement;
    return report;
  }

  std::uint64_t seed_;
  aer::AerConfig base_;
  exp::GridPoint point_;
  std::vector<exp::TrialOutcome> outcomes_;
  LayerSums sums_;
};

// ----- scale-soa --------------------------------------------------------------

class ScaleSoa final : public Workload {
 public:
  explicit ScaleSoa(std::uint64_t seed) : seed_(seed) {
    base_.model = aer::Model::kSyncRushing;
    base_.d_override = 8;  // the fig3-scale configuration.
    exp::Grid grid;
    grid.ns = {kN};
    grid.models = {aer::Model::kSyncRushing};
    point_ = exp::expand_grid(base_, grid).front();
  }

  void prepare(std::uint64_t rep) override {
    // A fresh arena and its first, cold trial: world, sampler tables and
    // SoA state allocated and touched from nothing. Later trials reuse it.
    arena_ = std::make_unique<exp::ScaleArena>();
    aer::AerConfig cfg = point_.apply(base_);
    cfg.seed = exp::trial_seed(seed_, 1, rep);
    exp::TrialOutcome warm;
    exp::run_aer_scale_trial(cfg, point_, *arena_, warm);
    if (warm.correct == 0) throw ConfigError("scale-soa warm-up ran no nodes");
  }

  std::uint64_t begin_pass(double seconds) override {
    const std::uint64_t ops = ops_for(seconds, kNominalOpsPerS);
    outcomes_.clear();
    outcomes_.reserve(ops);
    sums_ = LayerSums();
    arena_->timing = exp::TrialTiming();
    return ops;
  }

  std::uint64_t run_op(std::uint64_t index, Tracer* tracer) override {
    aer::AerConfig cfg = point_.apply(base_);
    cfg.seed = exp::trial_seed(seed_, 0, index);
    outcomes_.emplace_back();
    exp::TrialOutcome& out = outcomes_.back();
    if (tracer) {
      trial_traced(cfg, out, *tracer, index);
    } else {
      exp::run_aer_scale_trial(cfg, point_, *arena_, out);
    }
    sums_.add_outcome(out, kN);
    sums_.add_world(arena_->world);
    return 1;
  }

  PassResult finish_pass(Tracer* tracer) override {
    PassResult r;
    reduce_trials(outcomes_, base_, point_, "scale-soa", tracer, r);
    if (tracer) {
      sums_.write_means(r.layer);
      const double trials = static_cast<double>(r.units);
      const auto totals = tracer->totals();
      const double aer_run_ms = span_ms(totals, "aer.run_aer_world_soa");
      r.layer["aer.build_ms"] =
          span_ms(totals, "aer.build_aer_world_into") / trials;
      r.layer["aer.run_ms"] = aer_run_ms / trials;
      r.layer["aer.msgs_per_s"] =
          aer_run_ms > 0 ? sums_.msgs / (aer_run_ms / 1e3) : 0;
      r.layer["exp.setup_ms"] = last_timing_ms_[0];
      r.layer["exp.run_ms"] = last_timing_ms_[1];
    } else if (arena_->timing.trials > 0) {
      // The library's own setup/run split of the untraced pass (the traced
      // pass makes the calls itself and does not feed it).
      const double trials = static_cast<double>(arena_->timing.trials);
      last_timing_ms_[0] = arena_->timing.setup_seconds * 1e3 / trials;
      last_timing_ms_[1] = arena_->timing.run_seconds * 1e3 / trials;
    }
    return r;
  }

 private:
  static constexpr std::size_t kN = 10000;
  static constexpr double kNominalOpsPerS = 0.4;

  /// exp::run_aer_scale_trial made call for call (src/exp/scenario.cpp; the
  /// point has no fault or recovery preset), a span around each public call.
  void trial_traced(const aer::AerConfig& cfg, exp::TrialOutcome& out,
                    Tracer& tracer, std::uint64_t id) {
    Tracer::Scope op(tracer, "exp.scale_trial", id);
    {
      Tracer::Scope span(tracer, "aer.build_aer_world_into", id);
      aer::build_aer_world_into(arena_->world, cfg);
    }
    const exp::ScaleTrialOptions defaults;
    aer::SoaRunOptions opts;
    opts.round_drain = defaults.round_drain;
    opts.bursts = defaults.bursts;
    aer::AerReport report;
    {
      Tracer::Scope span(tracer, "aer.run_aer_world_soa", id);
      report = aer::run_aer_world_soa(arena_->world, arena_->run, opts,
                                      exp::attack_factory(point_.strategy));
    }
    Tracer::Scope span(tracer, "exp.outcome_into", id);
    exp::outcome_into(report, arena_->world, out);
    out.seed = cfg.seed;
  }

  std::uint64_t seed_;
  aer::AerConfig base_;
  exp::GridPoint point_;
  std::unique_ptr<exp::ScaleArena> arena_;
  std::vector<exp::TrialOutcome> outcomes_;
  LayerSums sums_;
  double last_timing_ms_[2] = {0, 0};
};

// ----- svc-lossy --------------------------------------------------------------

class SvcLossy final : public Workload {
 public:
  explicit SvcLossy(std::uint64_t seed) : seed_(seed) {}

  void prepare(std::uint64_t rep) override {
    // What a service pays before its stream: plan resolution (names, grudge
    // roster), thread start-up and the executors' cold first instances.
    const exp::ServiceResult warm = exp::run_service(
        config(exp::trial_seed(seed_, 1, rep), kWarmupInstances));
    if (warm.stats.instances != kWarmupInstances) {
      throw ConfigError("svc-lossy warm-up lost instances");
    }
  }

  std::uint64_t begin_pass(double seconds) override {
    // Consecutive closed-loop streams of kStreamInstances each, as many as
    // `seconds` holds at the nominal rate.
    streams_.clear();
    return ops_for(seconds, kNominalInstancesPerS / kStreamInstances);
  }

  std::uint64_t run_op(std::uint64_t index, Tracer* tracer) override {
    const exp::ServiceConfig cfg = config(stream_seed(index), kStreamInstances);
    streams_.emplace_back();
    if (tracer) {
      Tracer::Scope span(*tracer, "svc.run_service", index);
      streams_.back() = exp::run_service(cfg);
    } else {
      streams_.back() = exp::run_service(cfg);
    }
    return streams_.back().stats.instances;
  }

  PassResult finish_pass(Tracer* tracer) override {
    PassResult r;
    std::uint64_t digest = 0;
    double bits = 0;
    double latency = 0;
    exp::StreamingStats wall_ms;
    for (const exp::ServiceResult& stream : streams_) {
      const exp::ServiceStats& s = stream.stats;
      r.units += s.instances;
      digest = siphash_words(SipKey{}, {digest, s.fingerprint()});
      r.wrong_decisions += s.wrong_decisions;
      r.correct_nodes += s.correct_nodes;
      r.decided_nodes += s.correct_nodes - s.stalled_nodes;
      bits += s.amortized_bits.total();
      latency += s.instance_latency.total();
      wall_ms.merge(stream.load.instance_wall_ms);
    }
    if (r.units == 0) return r;
    const double instances = static_cast<double>(r.units);
    r.digest = digest;
    r.bits_per_node = bits / instances;
    r.sim_rounds = latency / instances;
    r.has_unit_latency = true;
    r.unit_ms_min = wall_ms.min();
    r.unit_ms_p50 = wall_ms.quantile(0.5);
    r.unit_ms_p90 = wall_ms.quantile(0.9);

    const auto t0 = clock::now();
    {
      // Reduce: each stream's stats bridged into a report and serialized.
      std::unique_ptr<Tracer::Scope> span;
      if (tracer) {
        span = std::make_unique<Tracer::Scope>(*tracer, "exp.reduce", 0);
      }
      exp::ReportMeta meta;
      meta.tool = "fba_perfbench";
      meta.figure = "svc-lossy";
      exp::Report report(meta);
      exp::GridPoint point;
      point.n = kN;
      point.model = aer::Model::kAsync;
      for (std::size_t i = 0; i < streams_.size(); ++i) {
        report.add_point("svc-lossy-" + std::to_string(i),
                         exp::ReportPoint{point, {},
                                          streams_[i].stats.to_aggregate()});
      }
      if (report.to_json().empty()) r.check_error = "empty report";
    }
    r.layer["exp.reduce_ms"] = ms_since(t0);
    if (!tracer) return r;

    exp::TrialTiming timing;
    double busy_s = 0;
    double wall_s = 0;
    double pop_blocks = 0;
    double push_blocks = 0;
    double done_depth = 0;
    for (const exp::ServiceResult& stream : streams_) {
      timing.setup_seconds += stream.timing.setup_seconds;
      timing.run_seconds += stream.timing.run_seconds;
      timing.trials += stream.timing.trials;
      busy_s += stream.load.instance_wall_ms.total() / 1e3;
      wall_s += stream.load.wall_seconds;
      pop_blocks += static_cast<double>(stream.load.jobs.pop_blocks);
      push_blocks += static_cast<double>(stream.load.jobs.push_blocks);
      done_depth += stream.load.done.mean_depth();
    }
    const double trials = static_cast<double>(timing.trials);
    r.layer["exp.setup_ms"] = timing.setup_seconds * 1e3 / trials;
    r.layer["exp.run_ms"] = timing.run_seconds * 1e3 / trials;
    r.layer["svc.worker_busy_share"] =
        busy_s / (static_cast<double>(kWorkers) * wall_s);
    r.layer["svc.jobs_pop_blocks"] = pop_blocks / instances;
    r.layer["svc.jobs_push_blocks"] = push_blocks / instances;
    r.layer["svc.done_mean_depth"] =
        done_depth / static_cast<double>(streams_.size());
    replay_first_stream(*tracer, r);
    return r;
  }

 private:
  static constexpr std::size_t kN = 64;
  static constexpr std::size_t kWorkers = 2;
  static constexpr std::uint64_t kWarmupInstances = 16;
  static constexpr std::uint64_t kStreamInstances = 60;
  // About 30-35 instances/s on the reference box, so a stream is ~2 s.
  static constexpr double kNominalInstancesPerS = 30.0;

  std::uint64_t stream_seed(std::uint64_t index) const {
    return exp::trial_seed(seed_, 0, index);
  }

  static exp::ServiceConfig config(std::uint64_t base_seed,
                                   std::uint64_t instances) {
    exp::ServiceConfig c;
    c.base.n = kN;
    c.base.model = aer::Model::kAsync;
    c.base.max_rounds = 60;
    c.base.max_time = 60;
    c.base.recovery_plan = exp::recovery_plan_factory("arq-fast");
    c.attack = "grudge-stuff";
    c.fault = "lossy-5pct";
    c.base_seed = base_seed;
    c.instances = instances;
    c.workers = kWorkers;
    return c;
  }

  /// Layer attribution the pipeline's threads cannot give from outside: the
  /// pass's first stream again, serially, through the public calls one
  /// executor makes per instance (exp::ServicePlan::run_instance,
  /// src/exp/service.cpp), with a span per call. Its ServiceStats must
  /// fingerprint identically to the pipeline's.
  void replay_first_stream(Tracer& tracer, PassResult& r) const {
    const exp::ServicePlan plan(config(stream_seed(0), kStreamInstances));
    const aer::StrategyFactory strategy =
        exp::attack_factory(plan.config().attack);
    exp::TrialArena arena;
    aer::AerConfig cfg;
    exp::TrialOutcome out;
    exp::ServiceStats stats;
    LayerSums sums;
    for (std::uint64_t i = 0; i < kStreamInstances; ++i) {
      Tracer::Scope op(tracer, "exp.run_instance", i);
      plan.configure(cfg, i);
      {
        Tracer::Scope span(tracer, "aer.build_aer_world_into", i);
        if (plan.grudge()) {
          aer::build_aer_world_into(arena.world, cfg, plan.grudge_roster());
        } else {
          aer::build_aer_world_into(arena.world, cfg);
        }
      }
      aer::AerReport report;
      {
        Tracer::Scope span(tracer, "aer.run_aer_world_arena", i);
        report = aer::run_aer_world_arena(arena.world, arena.run, strategy);
      }
      {
        Tracer::Scope span(tracer, "exp.outcome_into", i);
        exp::outcome_into(report, arena.world, out);
        out.seed = cfg.seed;
      }
      stats.fold(out);
      sums.add_outcome(out, kN);
      sums.add_world(arena.world);
    }
    if (stats.fingerprint() != streams_.front().stats.fingerprint()) {
      r.check_error = "serial replay differs from the service pipeline";
    }
    sums.write_means(r.layer);
    const auto totals = tracer.totals();
    const double replayed = static_cast<double>(kStreamInstances);
    const double aer_run_ms = span_ms(totals, "aer.run_aer_world_arena");
    r.layer["aer.build_ms"] =
        span_ms(totals, "aer.build_aer_world_into") / replayed;
    r.layer["aer.run_ms"] = aer_run_ms / replayed;
    r.layer["aer.msgs_per_s"] =
        aer_run_ms > 0 ? sums.msgs / (aer_run_ms / 1e3) : 0;
  }

  std::uint64_t seed_;
  std::vector<exp::ServiceResult> streams_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "ba-fig1b") return std::make_unique<BaFig1b>(seed);
  if (name == "svc-lossy") return std::make_unique<SvcLossy>(seed);
  if (name == "scale-soa") return std::make_unique<ScaleSoa>(seed);
  return nullptr;
}

}  // namespace perfbench
