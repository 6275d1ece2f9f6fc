// The run arena's equivalence contract (aer/soa.h, docs/perf.md): a trial's
// result depends only on its config and seed, never on what the arena ran
// before — a reused arena gives bit-identical Aggregate fingerprints (and
// corruption timelines) to a fresh arena per trial, across timing models,
// attacks and fault presets. Each of the runner's two accelerations
// (round-drain event core, Fw1 burst descriptors) is separately removable
// without changing results, and the memory account is deterministic: a
// warm arena reports the same bytes as a cold one.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fba.h"

namespace fba {
namespace {

constexpr std::uint64_t kSeed = 20130722;

aer::AerConfig base_config() {
  aer::AerConfig base;
  base.n = 64;
  base.seed = kSeed;
  base.max_rounds = 80;
  return base;
}

/// Mirrors exp::Sweep's per-trial seed derivation so every runner below
/// executes the identical (config, seed) sequence. Each trial builds a fresh
/// world and runs it through a fresh arena (exp::run_aer_trial).
std::vector<exp::TrialOutcome> fresh_outcomes(const exp::GridPoint& point,
                                              std::size_t trials) {
  std::vector<exp::TrialOutcome> outcomes;
  for (std::size_t t = 0; t < trials; ++t) {
    aer::AerConfig cfg = point.apply(base_config());
    cfg.seed = exp::trial_seed(kSeed, point.index, t);
    exp::TrialOutcome o = exp::run_aer_trial(cfg, point);
    o.seed = cfg.seed;
    outcomes.push_back(std::move(o));
  }
  return outcomes;
}

std::vector<exp::TrialOutcome> arena_outcomes(
    const exp::GridPoint& point, std::size_t trials, exp::TrialArena& arena,
    const exp::ScaleTrialOptions& options = {}) {
  std::vector<exp::TrialOutcome> outcomes(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    aer::AerConfig cfg = point.apply(base_config());
    cfg.seed = exp::trial_seed(kSeed, point.index, t);
    exp::run_aer_scale_trial(cfg, point, arena, outcomes[t], options);
    outcomes[t].seed = cfg.seed;
  }
  return outcomes;
}

exp::GridPoint grid_point(aer::Model model, const std::string& attack,
                          const std::string& fault, std::size_t index) {
  exp::GridPoint point;
  point.index = index;
  point.n = base_config().n;
  point.model = model;
  point.strategy = attack;
  point.fault = fault;
  return point;
}

// For every timing model x attack x fault cell, one arena reused across all
// cells folds to the same Aggregate as a fresh arena per trial (fingerprint
// hashes every protocol-visible field; the memory account sits outside it
// by design, so it is compared explicitly). Attacks and faults also force
// the burst gate off, so this covers both the per-send and the burst
// spelling of the Fw1 fan-out.
TEST(ScaleEquivalenceTest, ReusedArenaMatchesFreshAcrossModelsAttacksFaults) {
  const std::vector<std::string> attacks = {"none", "stuff", "junk"};
  const std::vector<std::string> faults = {"", "lossy-5pct"};
  const std::vector<aer::Model> models = {aer::Model::kSyncNonRushing,
                                          aer::Model::kSyncRushing,
                                          aer::Model::kAsync};
  exp::TrialArena arena;  // reused across cells: history must not matter
  std::size_t index = 0;
  for (const aer::Model model : models) {
    for (const std::string& attack : attacks) {
      for (const std::string& fault : faults) {
        const exp::GridPoint point = grid_point(model, attack, fault, index++);
        const exp::Aggregate fresh =
            exp::aggregate_outcomes(fresh_outcomes(point, 2));
        const exp::Aggregate reused =
            exp::aggregate_outcomes(arena_outcomes(point, 2, arena));
        EXPECT_EQ(fresh.fingerprint(), reused.fingerprint())
            << "model=" << aer::model_name(model) << " attack=" << attack
            << " fault=" << (fault.empty() ? "none" : fault);
        EXPECT_GT(reused.mem_bytes_per_node.mean, 0.0);
        EXPECT_EQ(fresh.mem_bytes_per_node.mean,
                  reused.mem_bytes_per_node.mean);
      }
    }
  }
}

// Runtime corruptions ride the same contract: for every adaptive-*
// strategy x engine x budget, a reused arena must observe, pick, silence
// and account victims exactly as a fresh one does — same fingerprints AND
// the same corruption timeline (which sits outside the fingerprint, so it
// is compared explicitly).
TEST(ScaleEquivalenceTest, ReusedArenaMatchesFreshUnderAdaptiveAttacks) {
  const std::vector<std::string> attacks = {
      "adaptive-degree", "adaptive-quorum", "adaptive-king",
      "adaptive-random"};
  const std::vector<aer::Model> models = {aer::Model::kSyncRushing,
                                          aer::Model::kAsync};
  exp::TrialArena arena;
  std::size_t index = 0;
  for (const aer::Model model : models) {
    for (const std::string& attack : attacks) {
      for (const long budget : {2L, 8L}) {
        exp::GridPoint point = grid_point(model, attack, "", index++);
        point.budget = budget;
        point.adaptive_from = 2.0;
        const exp::Aggregate fresh =
            exp::aggregate_outcomes(fresh_outcomes(point, 2));
        const exp::Aggregate reused =
            exp::aggregate_outcomes(arena_outcomes(point, 2, arena));
        EXPECT_EQ(fresh.fingerprint(), reused.fingerprint())
            << "model=" << aer::model_name(model) << " attack=" << attack
            << " budget=" << budget;
        EXPECT_EQ(fresh.runtime_corruptions, reused.runtime_corruptions)
            << "model=" << aer::model_name(model) << " attack=" << attack;
        EXPECT_EQ(fresh.first_corruption_time, reused.first_corruption_time);
        EXPECT_EQ(fresh.last_corruption_time, reused.last_corruption_time);
        // The budget was actually spent (the cell is not vacuously equal).
        EXPECT_GT(reused.runtime_corruptions, 0u)
            << "model=" << aer::model_name(model) << " attack=" << attack;
      }
    }
  }
}

// Burst descriptors are a pure queue-layout change: collapsing the d^2
// Fw1 fan-out into one expanded-at-delivery event must not move a single
// protocol observable.
TEST(ScaleEquivalenceTest, BurstOnAndOffAreBitIdentical) {
  for (const aer::Model model :
       {aer::Model::kSyncNonRushing, aer::Model::kSyncRushing}) {
    const exp::GridPoint point = grid_point(model, "none", "", 0);
    exp::TrialArena on_arena, off_arena;
    exp::ScaleTrialOptions on, off;
    on.bursts = true;
    off.bursts = false;
    const exp::Aggregate with_bursts =
        exp::aggregate_outcomes(arena_outcomes(point, 2, on_arena, on));
    const exp::Aggregate without_bursts =
        exp::aggregate_outcomes(arena_outcomes(point, 2, off_arena, off));
    EXPECT_EQ(with_bursts.fingerprint(), without_bursts.fingerprint())
        << aer::model_name(model);
  }
}

// Likewise the bucketed round-drain: linear-scan dispatch vs heap pops is
// invisible to the protocol.
TEST(ScaleEquivalenceTest, RoundDrainOnAndOffAreBitIdentical) {
  const exp::GridPoint point =
      grid_point(aer::Model::kSyncRushing, "none", "", 0);
  exp::TrialArena drain_arena, pop_arena;
  exp::ScaleTrialOptions drain, pop;
  drain.round_drain = true;
  pop.round_drain = false;
  const exp::Aggregate drained =
      exp::aggregate_outcomes(arena_outcomes(point, 2, drain_arena, drain));
  const exp::Aggregate popped =
      exp::aggregate_outcomes(arena_outcomes(point, 2, pop_arena, pop));
  EXPECT_EQ(drained.fingerprint(), popped.fingerprint());
}

// MemBudget's determinism contract: charges derive from logical sizes and
// counts, never allocator capacity — so a warm arena (retained vectors,
// grown tables) reports byte-identical memory to a cold one, and the
// figure's bytes/node is reproducible like every other metric.
TEST(ScaleMemoryTest, WarmArenaReportsSameBytesAsCold) {
  const exp::GridPoint point =
      grid_point(aer::Model::kSyncRushing, "none", "", 0);
  exp::TrialArena warm;
  const std::vector<exp::TrialOutcome> first = arena_outcomes(point, 3, warm);
  const std::vector<exp::TrialOutcome> rerun = arena_outcomes(point, 3, warm);
  exp::TrialArena cold_arena;
  const std::vector<exp::TrialOutcome> cold =
      arena_outcomes(point, 3, cold_arena);
  for (std::size_t t = 0; t < first.size(); ++t) {
    EXPECT_GT(first[t].mem_bytes_per_node, 0.0);
    EXPECT_EQ(first[t].mem_bytes_per_node, rerun[t].mem_bytes_per_node) << t;
    EXPECT_EQ(first[t].mem_bytes_per_node, cold[t].mem_bytes_per_node) << t;
  }
  // And across the async engine too (heap queue, normalized time).
  const exp::GridPoint async_point =
      grid_point(aer::Model::kAsync, "none", "", 1);
  exp::TrialArena async_warm;
  const std::vector<exp::TrialOutcome> async_first =
      arena_outcomes(async_point, 2, async_warm);
  const std::vector<exp::TrialOutcome> async_rerun =
      arena_outcomes(async_point, 2, async_warm);
  for (std::size_t t = 0; t < async_first.size(); ++t) {
    EXPECT_GT(async_first[t].mem_bytes_per_node, 0.0);
    EXPECT_EQ(async_first[t].mem_bytes_per_node,
              async_rerun[t].mem_bytes_per_node)
        << t;
  }
}

// Spot check the actor state's per-node introspection against the world's
// decision log.
TEST(ScaleIntrospectionTest, DecisionsMatchWorldLog) {
  aer::AerConfig cfg = base_config();
  cfg.model = aer::Model::kSyncRushing;
  aer::AerWorld world = aer::build_aer_world(cfg);
  aer::RunArena arena;
  const aer::AerReport report = aer::run_aer_world(world, arena);
  EXPECT_GT(report.decided_count, 0u);
  const aer::SoaAerState& state = *arena.state;
  for (const NodeId id : world.correct) {
    EXPECT_EQ(state.has_decided(id), world.decisions.has_decided(id)) << id;
    if (state.has_decided(id)) {
      EXPECT_EQ(state.decided_value(id), world.decisions.value(id)) << id;
    }
  }
}

}  // namespace
}  // namespace fba
