// The AER actor (Section 3.1), held as structure-of-arrays state.
//
// Push phase (3.1.1): on start, each correct node x diffuses its initial
// candidate s_x to the d nodes x' with x in I(s_x, x'). A received Push(s)
// from y counts toward the quorum I(s, self) only if y occupies a slot of
// it; when more than half of the slots have pushed s, s joins the candidate
// list L_x and a pull is started for it. Nodes never react to pushes by
// sending messages, so the phase is impervious to flooding.
//
// Pull phase (3.1.2, Algorithms 1-3): to verify candidate s, x sends
// Poll(s, r) to the poll list J(x, r) (r fresh and random per candidate)
// and Pull(s, r) to the Pull Quorum H(s, x). Quorum members route the
// request in two majority-filtered hops (Fw1 via H(s, w), then Fw2 to w);
// poll-list members answer subject to the log^2 n budget, deferring excess
// work until they have decided. Deciding requires answers from a majority
// of the poll list.
//
// One SoaAerState object holds that protocol state for every node of a
// trial, one dense array (or shared open-addressed table) per field, and is
// the single sim::Actor registered for every correct node (handlers key off
// ctx.self()):
//
//   - scalar per-node fields (initial / current / decided candidate,
//     decision flag, candidate-list length, deferred-answer peak) are flat
//     arrays indexed by NodeId;
//   - the per-string tallies (push tallies, my-pulls, answer counts, L_x
//     membership) live in ONE shared FlatMap64 each, keyed by the packed
//     (node, string) pair; quorum membership and multiplicity checks read
//     the dense sampler tables through AerShared (no hashing, no
//     allocation);
//   - credited-sender spans ("who already counted") come from one shared
//     bump arena, d entries per tally (a tally credits at most d distinct
//     members);
//   - the three ORDER-CRITICAL retained maps (pending pulls, Fw1 tallies,
//     responder state) stay per-node std::unordered_map: serve_retained()
//     iterates them to emit messages, so their libstdc++ iteration order is
//     part of the pinned golden-fingerprint behavior. They draw nodes and
//     buckets from one support::Pool owned by the state, so a warm arena
//     allocates nothing, and reset() rebuilds them from scratch so bucket
//     history (and thus iteration order) never depends on an earlier trial.
//
// The state is also the sim::BurstSource that re-expands Fw1 burst
// descriptors (see EventQueue::push_burst): instead of queueing the d^2
// copies of each forwarded request, forward_pull charges their traffic at
// send time and queues one descriptor; the engine calls expand() at delivery
// time, which enumerates the same (w, h) pairs in the same order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "aer/protocol.h"
#include "net/async_engine.h"
#include "net/sync_engine.h"
#include "support/flat_map.h"
#include "support/mem.h"
#include "support/pool.h"

namespace fba::aer {

class SoaAerState final : public sim::Actor, public sim::BurstSource {
 public:
  SoaAerState() = default;

  /// Re-initializes for a fresh trial and registers this object as the
  /// actor of every correct node of `engine` (whose corrupt set must
  /// already be installed). Dense storage and the pool are reused across
  /// trials; a reset state behaves bit-identically to a fresh one.
  void reset(const AerShared* shared, const std::vector<StringId>& initial,
             sim::EngineBase& engine);

  /// Enables Fw1 burst descriptors. Only legal on the synchronous engines
  /// with no adversary strategy and no fault plan installed (the burst path
  /// bypasses the per-send observe/fault taps, which must therefore be
  /// no-ops). `engine` must outlive the run and have this object installed
  /// as its burst source.
  void enable_bursts(sim::SyncEngine* engine) { burst_engine_ = engine; }

  // ----- sim::Actor (one object serves every correct node) -----------------
  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const sim::Envelope& env) override;

  // ----- sim::BurstSource ---------------------------------------------------
  void expand(const sim::Envelope& burst, sim::SyncEngine& engine) override;

  // ----- post-run introspection (read by the harness / tests) --------------
  bool has_decided(NodeId id) const { return has_decided_[id] != 0; }
  StringId decided_value(NodeId id) const { return decided_[id]; }
  /// |L_x|, including the initial candidate.
  std::size_t candidate_list_size(NodeId id) const {
    return candidate_count_[id];
  }
  bool has_candidate(NodeId id, StringId s) const {
    return in_list_.contains(pack_ns(id, s));
  }
  std::size_t deferred_peak(NodeId id) const { return deferred_peak_[id]; }
  /// Answers node `id` emitted for s (Algorithm 3's Counts).
  std::size_t answers_sent(NodeId id, StringId s) const {
    const std::uint32_t* count = answer_counts_.find(pack_ns(id, s));
    return count == nullptr ? 0 : *count;
  }

  /// Charges this state's memory to `mem` (support/mem.h rules: logical
  /// sizes and capacity-as-a-function-of-count only, so warm reuse reports
  /// the same bytes as a cold run).
  void charge_mem(support::MemBudget& mem) const;

 private:
  // -- handlers, one per message kind, with the node's identity explicit ----
  void handle_push(sim::Context& ctx, NodeId self, NodeId from,
                   const sim::Message& m);
  void handle_poll(sim::Context& ctx, NodeId self, NodeId from,
                   const sim::Message& m);
  void handle_pull(sim::Context& ctx, NodeId self, NodeId from,
                   const sim::Message& m);
  void handle_fw1(sim::Context& ctx, NodeId self, NodeId from,
                  const sim::Message& m);
  void handle_fw2(sim::Context& ctx, NodeId self, NodeId from,
                  const sim::Message& m);
  void handle_answer(sim::Context& ctx, NodeId self, NodeId from,
                     const sim::Message& m);

  /// Adds s to L_x (if new) and starts its verification pull (Algorithm 1).
  void accept_candidate(sim::Context& ctx, NodeId self, StringId s);
  void start_pull(sim::Context& ctx, NodeId self, StringId s);
  /// Answer emission with the Algorithm 3 budget: over-budget answers are
  /// deferred until this node decides ("Wait for has_decided").
  void emit_answer(sim::Context& ctx, NodeId self, NodeId x, StringId s);
  void decide(sim::Context& ctx, NodeId self, StringId s);
  bool over_budget(NodeId self, StringId s) const;
  void forward_pull(sim::Context& ctx, NodeId self, NodeId x, StringId s,
                    PollLabel r);
  /// Post-decision service: requests for the decided string whose evidence
  /// accumulated while the node still believed something else.
  void serve_retained(sim::Context& ctx, NodeId self);

  static std::uint64_t pack_ns(NodeId node, StringId s) {
    return (static_cast<std::uint64_t>(node) << 32) | s;
  }
  static std::uint64_t pack_xs(NodeId x, StringId s) {
    return (static_cast<std::uint64_t>(x) << 32) | s;
  }

  // -- credited-sender spans: fixed d-capacity slices of one shared arena --
  NodeId* counted_at(std::uint32_t off) { return counted_arena_.data() + off; }
  std::uint32_t new_counted_span();
  static bool already_counted(const NodeId* counted, std::uint32_t count,
                              NodeId who);

  const AerShared* shared_ = nullptr;
  std::size_t n_ = 0;
  std::uint32_t d_ = 0;
  sim::SyncEngine* burst_engine_ = nullptr;  ///< non-null => bursts on.

  /// Memory pool behind the three retained maps. Declared before them so it
  /// outlives their destructors.
  support::Pool pool_;

  // -- dense per-node scalars -----------------------------------------------
  std::vector<StringId> initial_;  ///< s_x: forwarding filter for the pull.
  std::vector<StringId> current_;  ///< s_this: s_x until decision.
  std::vector<StringId> decided_;
  std::vector<std::uint8_t> has_decided_;
  std::vector<std::uint32_t> candidate_count_;  ///< |L_x| (list not stored).
  std::vector<std::uint32_t> deferred_peak_;

  // -- shared lookup-only tables, keyed by packed (node, string) ------------
  struct PushTally {
    std::uint32_t slots = 0;        ///< quorum slots of I(s, self) that pushed.
    std::uint32_t counted = 0;      ///< distinct senders already credited.
    std::uint32_t counted_off = 0;  ///< span in counted_arena_.
  };
  support::FlatMap64<PushTally> push_tallies_;
  support::FlatSet64 in_list_;

  struct MyPull {  ///< requester state (Algorithm 1)
    PollLabel r = 0;
    std::uint32_t slots = 0;     ///< poll-list slots covered by answers.
    std::uint32_t answered = 0;  ///< distinct poll-list members that replied.
    std::uint32_t answered_off = 0;
  };
  support::FlatMap64<MyPull> my_pulls_;
  support::FlatMap64<std::uint32_t> answer_counts_;

  // -- per-node containers whose behavior depends on per-node history -------
  /// Flooding guard, keyed (x, s); lookup-only, so FlatSet64 is safe.
  std::vector<support::FlatSet64> forwarded_;

  struct Fw1Tally {  ///< relay state (Algorithm 2, second hop)
    PollLabel r = 0;            ///< label from the vouched request.
    std::uint32_t slots = 0;    ///< slots of H(s, x) vouching.
    std::uint32_t counted = 0;  ///< distinct vouching y in H(s, x).
    std::uint32_t counted_off = 0;
    bool fired = false;         ///< Fw2 already sent ("forward only once").
  };
  struct ResponderState {  ///< responder state (Algorithm 3)
    std::uint32_t slots = 0;    ///< slots of H(s, this) vouching.
    std::uint32_t counted = 0;  ///< distinct vouching z in H(s, this).
    std::uint32_t counted_off = 0;
    bool polled = false;        ///< Poll(s, r) received from x.
    bool answered = false;      ///< Answer sent ("forward once").
  };
  template <typename K, typename V>
  using RetainedMap =
      std::unordered_map<K, V, std::hash<K>, std::equal_to<K>,
                         support::PoolAllocator<std::pair<const K, V>>>;
  using PendingPulls = RetainedMap<std::uint64_t, PollLabel>;
  using Fw1Tallies = RetainedMap<std::uint64_t, RetainedMap<NodeId, Fw1Tally>>;
  using Responders = RetainedMap<std::uint64_t, ResponderState>;
  /// ORDER-CRITICAL (iterated by serve_retained), all keyed by (x, s):
  /// pull requests for strings the node does not (yet) believe in; Fw1
  /// vouching per poll-list member w; responder evidence.
  std::vector<PendingPulls> pending_pulls_;
  std::vector<Fw1Tallies> fw1_tallies_;
  std::vector<Responders> responder_;

  /// Over-budget answers awaiting this node's decision.
  std::vector<std::vector<std::pair<NodeId, StringId>>> deferred_;

  /// Backing store for all credited-sender spans (d entries per tally).
  std::vector<NodeId> counted_arena_;
  /// Scratch for push-target evaluation (on_start).
  std::vector<NodeId> targets_scratch_;
};

/// Reusable run machinery for back-to-back AER trials: one engine of each
/// flavor, reset per trial instead of reconstructed, and the actor state
/// whose storage survives across trials. A warm arena executes a whole
/// trial without heap allocation; a trial's result depends only on its
/// world, never on what the arena ran before (golden_test, exp_test and
/// scale_test enforce it).
struct RunArena {
  std::optional<sim::SyncEngine> sync;
  std::optional<sim::AsyncEngine> async;
  std::unique_ptr<SoaAerState> state = std::make_unique<SoaAerState>();

  /// Releases the engines and every pool and table of the actor state.
  void clear() {
    sync.reset();
    async.reset();
    state = std::make_unique<SoaAerState>();
  }
};

/// Kept because perfbench/ names it.
using SoaArena = RunArena;

struct SoaRunOptions {
  /// Drain sync rounds in place (EventQueue::drain_due) instead of copying
  /// them into the per-round scratch vector.
  bool round_drain = true;
  /// Queue Fw1 fan-outs as burst descriptors. Applied only when eligible:
  /// synchronous model, no adversary strategy, no fault plan, no recovery
  /// plan (the burst path skips the per-send observe/fault taps). Ineligible
  /// runs silently fall back to per-send queueing — results are identical
  /// either way.
  bool bursts = true;
  /// Invoked after every executed sync round with (round, events pending) —
  /// in-trial progress for runs where one trial takes minutes.
  using RoundProgress = std::function<void(Round, std::size_t)>;
  RoundProgress round_progress;
};

/// Runs AER on a prebuilt world through `arena` (engines reset in place,
/// actor state reused). Every AER run goes through this body. Fills the
/// whole report, memory section (mem_bytes, mem_bytes_per_node) included.
AerReport run_aer_world(AerWorld& world, RunArena& arena,
                        const StrategyFactory& make_strategy = {},
                        const SoaRunOptions& opts = {});

/// Kept because perfbench/ names it: run_aer_world with default options.
AerReport run_aer_world_arena(AerWorld& world, RunArena& arena,
                              const StrategyFactory& make_strategy = {});

/// Kept because perfbench/ names it: run_aer_world, options first.
AerReport run_aer_world_soa(AerWorld& world, RunArena& arena,
                            const SoaRunOptions& opts = {},
                            const StrategyFactory& make_strategy = {});

}  // namespace fba::aer
