// Generic protocol runner for the baseline AE->E protocols (baseline/):
// executes any actor-based protocol on a prebuilt AerWorld under the model
// selected in the world's config, wiring up the corrupt set, adversary
// strategy, decision bookkeeping and the all-correct-nodes-decided stop
// condition. Fills the outcome and traffic sections of the report;
// protocol-specific sections are the caller's. AER itself runs through
// aer::run_aer_world (aer/soa.h), which reuses engines and actor state.
#pragma once

#include <functional>
#include <memory>

#include "aer/protocol.h"
#include "net/async_engine.h"
#include "net/sync_engine.h"

namespace fba::aer {

/// ActorFactory: NodeId -> std::unique_ptr<sim::Actor> (correct nodes only).
/// `post_run`, if given, runs after the report's common sections are filled
/// but while the engine (and thus the actors) is still alive — use it to
/// harvest protocol-specific actor state.
template <typename ActorFactory>
AerReport run_world_protocol(
    AerWorld& world, ActorFactory&& make_actor,
    const StrategyFactory& make_strategy = {},
    const std::function<void(AerReport&)>& post_run = {}) {
  const AerConfig& config = world.shared->config;
  world.decisions.reset(config.n);

  AerReport report;
  report.n = config.n;
  report.t = world.view.corrupt.size();
  report.d = config.resolved_d();
  report.model = config.model;

  std::unique_ptr<adv::Strategy> strategy;
  if (make_strategy) strategy = make_strategy(world.view);

  std::size_t decided = 0;
  std::size_t target = world.correct.size();
  auto on_decide = [&world, &decided](NodeId node, StringId value,
                                      double time) {
    if (!world.decisions.has_decided(node)) ++decided;
    world.decisions.record(node, value, time);
  };
  auto done = [&] { return decided >= target; };
  auto on_corrupt = [&world, &target](NodeId node, double /*time*/) {
    if (note_runtime_corruption(world, node)) --target;
  };

  auto wire_nodes = [&](auto& engine) {
    engine.set_wire(&world.shared->wire());
    engine.set_fault_plan(&config.fault_plan);
    engine.set_recovery_plan(&config.recovery_plan);
    engine.set_corrupt(world.view.corrupt);
    for (NodeId id = 0; id < config.n; ++id) {
      if (engine.is_corrupt(id)) continue;
      engine.set_actor(id, make_actor(static_cast<NodeId>(id)));
    }
    engine.set_strategy(strategy.get());
    engine.set_decision_callback(on_decide);
    engine.set_corruption_budget(config.adaptive_budget);
    engine.set_corruption_callback(on_corrupt);
  };
  auto harvest_adaptive = [&report](auto& engine) {
    report.runtime_corruptions = engine.corruptions_spent();
    report.first_corruption_time = engine.first_corruption_time();
    report.last_corruption_time = engine.last_corruption_time();
  };

  if (config.model == Model::kAsync) {
    sim::AsyncConfig ec;
    ec.n = config.n;
    ec.seed = config.seed;
    ec.max_time = config.max_time;
    sim::AsyncEngine engine(ec);
    wire_nodes(engine);
    const auto result = engine.run(done);
    report.engine_time = result.time;
    report.engine_completed = result.completed;
    harvest_adaptive(engine);
    fill_outcome_and_traffic(report, world, engine.metrics());
    if (post_run) post_run(report);
  } else {
    sim::SyncConfig ec;
    ec.n = config.n;
    ec.seed = config.seed;
    ec.rushing_adversary = config.model == Model::kSyncRushing;
    ec.max_rounds = config.max_rounds;
    sim::SyncEngine engine(ec);
    wire_nodes(engine);
    const auto result = engine.run(done);
    report.engine_time = static_cast<double>(result.rounds);
    report.engine_completed = result.completed;
    harvest_adaptive(engine);
    fill_outcome_and_traffic(report, world, engine.metrics());
    if (post_run) post_run(report);
  }
  return report;
}

}  // namespace fba::aer
