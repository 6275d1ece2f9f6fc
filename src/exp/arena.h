// TrialArena: one worker thread's reusable trial machinery.
//
// A sweep runs thousands of trials back to back; without an arena every
// trial reconstructs its whole world on the heap — string table, sampler
// tables, engines and the actor state with its tally maps. The arena keeps
// all of it alive between trials: build_aer_world_into re-keys the world in
// place, the engines reset instead of reconstructing, and the actor state's
// tables and pool keep their capacity. After a warm-up trial, running a trial
// performs no heap allocation (under the default corruption picker, the
// "none" attack and an allocation-free fault plan) — the contract
// bench_micro_primitives::BM_WarmTrialAllocations enforces.
//
// Determinism: a trial's result depends only on its config (seed included),
// never on what the arena ran before — reset paths replicate construction
// semantics exactly. exp_test compares reused-arena and fresh-arena
// fingerprints; golden_test pins the values themselves.
#pragma once

#include <cstdint>

#include "aer/soa.h"

namespace fba::exp {

/// Wall-clock split a sweep's trials accumulate (world/sampler setup vs
/// engine execution); surfaced by fba_sim / fba_repro --timing.
struct TrialTiming {
  double setup_seconds = 0;  ///< build_aer_world_into (samplers, gstring...)
  double run_seconds = 0;    ///< engine execution + harvest
  std::uint64_t trials = 0;

  void add(const TrialTiming& other) {
    setup_seconds += other.setup_seconds;
    run_seconds += other.run_seconds;
    trials += other.trials;
  }
};

/// Everything one sweep worker reuses across the trials it runs. Workers
/// never share arenas, so no synchronization is needed inside.
class TrialArena {
 public:
  aer::AerWorld world;
  aer::RunArena run;
  TrialTiming timing;

  /// Discards every pool, slab and table: the next trial rebuilds from
  /// nothing, exactly like a first-ever trial. This is the cold baseline of
  /// the service-mode A/B (ServiceConfig::warm = false / bench_service's
  /// cold lap) — the warm path's speedup is measured against it. Timing is
  /// kept: it accounts the run, not the storage.
  void clear() {
    world = aer::AerWorld();
    run.clear();
  }
};

/// Kept because perfbench/ names it: scale mode runs on the same arena.
using ScaleArena = TrialArena;

}  // namespace fba::exp
