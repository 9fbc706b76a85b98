#pragma once

// The shared overlay-engine layer: everything the four scenario simulators
// used to re-implement — RNG lane splitting, the delay model, the overlay
// relation table, message accounting, bootstrap helpers, periodic
// scheduling and horizon control — owned by one base class.  A scenario
// subclasses OverlayEngine, keeps only its domain state (catalogs, caches,
// holdings) and its event handlers, and inherits the rest.  A search
// through the scheme plug-in is one search() call; every other exchange
// (a hand-expanded probe, exploration, invitation, eviction) sends each
// copy through one send() call.  Both resolve every copy synchronously
// through transmit() and do the accounting.
//
// Determinism contract: the engine constructs its members in exactly the
// order the hand-rolled simulators did (master RNG → lane splits → delay
// model → overlay), so a fixed seed replays the exact pre-refactor
// trajectory.  Helpers that could perturb the event or RNG stream
// (every, fill_random_neighbors, draw_initial_online) are documented with
// the equivalence argument they rely on.

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/compact_relations.h"
#include "core/relations.h"
#include "core/flood_search.h"
#include "core/stats_store.h"
#include "core/visit_stamp.h"
#include "des/rng.h"
#include "des/simulator.h"
#include "load/open_loop.h"
#include "net/delay_model.h"
#include "net/message.h"
#include "net/node_id.h"
#include "obs/sink.h"
#include "snap/snapshot.h"
#include "sim/adversary.h"
#include "sim/fault.h"
#include "sim/policy.h"
#include "sim/validate.h"

namespace dsf::sim {

class InvariantChecker;  // sim/invariants.h (which includes this header)

/// How the engine carves RNG lanes out of the master stream.  Both layouts
/// predate the engine; preserving them bit-for-bit is what keeps every
/// figure bench byte-identical across the refactor.
enum class RngLayout : std::uint8_t {
  /// One split for the delay lane; topology/session/query draws come
  /// straight from the master stream (diglib, olap, webcache).
  kCompact,
  /// Four splits in fixed order — topology, session, query, delay — then
  /// the delay model consumes the master stream (gnutella).
  kFourLane,
};

/// Everything the engine needs to stand up the shared scaffolding.  Built
/// by each scenario's `engine_config(const Config&)`, which also runs the
/// shared validation (sim/validate.h) *before* any member is constructed —
/// a degenerate divisor must never reach a Zipf table or a modulo.
struct EngineConfig {
  std::string name;  ///< scenario tag for diagnostics ("gnutella", ...)
  std::size_t num_nodes = 0;
  std::uint64_t seed = 0;
  RngLayout rng_layout = RngLayout::kCompact;
  core::RelationKind relation = core::RelationKind::kAsymmetric;
  std::size_t out_capacity = 0;
  std::size_t in_capacity = 0;
  double sim_hours = 0.0;
  double warmup_hours = 0.0;
  net::DelayModelParams delay_params{};
  /// How many event kinds the scenario schedules, numbered from
  /// OverlayEngine::kKeyedUserBase; a snapshot record of any other
  /// scenario kind is rejected at load.
  std::uint32_t event_kinds = 0;
};

/// The engine's RNG lanes.  Unused lanes (compact layout) stay at their
/// default seed and are never read — the accessors alias the master stream
/// instead.
struct RngLanes {
  des::Rng topo;
  des::Rng session;
  des::Rng query;
  des::Rng delay;
};

/// Splits lanes off `master` per the layout.  Order of splits is part of
/// the determinism contract (see RngLayout).
RngLanes make_lanes(des::Rng& master, RngLayout layout);

/// Representative wire size of one message of type `t` in bytes, used for
/// byte-level traffic accounting (counts were always tracked; bytes let a
/// scenario report bandwidth, not just message counts).
std::uint64_t default_message_bytes(net::MessageType t);

/// Per-type message counts, with bytes derived from them at the default
/// wire size of each type.  Wraps net::MessageStats so ported scenarios
/// keep publishing the same `traffic` object they always did.
class MessageLedger {
 public:
  /// Counts `n` sent messages of type `t`.
  void count(net::MessageType t, std::uint64_t n = 1) noexcept {
    stats_.count(t, n);
  }

  /// Fate accounting, filled in by the fault layer: of the counted sends,
  /// how many copies reached their receiver and how many were lost (to a
  /// fault rule or a dead peer).  Both stay zero on the fault-free paths,
  /// which never resolve per-copy fates.
  void count_delivered(net::MessageType t, std::uint64_t n = 1) noexcept {
    delivered_[static_cast<int>(t)] += n;
  }
  void count_dropped(net::MessageType t, std::uint64_t n = 1) noexcept {
    dropped_[static_cast<int>(t)] += n;
  }

  const net::MessageStats& stats() const noexcept { return stats_; }

  std::uint64_t delivered(net::MessageType t) const noexcept {
    return delivered_[static_cast<int>(t)];
  }
  std::uint64_t dropped(net::MessageType t) const noexcept {
    return dropped_[static_cast<int>(t)];
  }
  std::uint64_t total_delivered() const noexcept {
    std::uint64_t sum = 0;
    for (auto d : delivered_) sum += d;
    return sum;
  }
  std::uint64_t total_dropped() const noexcept {
    std::uint64_t sum = 0;
    for (auto d : dropped_) sum += d;
    return sum;
  }

  /// Bytes sent as type `t`: its count times default_message_bytes(t).
  std::uint64_t bytes(net::MessageType t) const noexcept {
    return stats_.total(t) * default_message_bytes(t);
  }

  std::uint64_t total_bytes() const noexcept {
    std::uint64_t sum = 0;
    for (int t = 0; t < net::kNumMessageTypes; ++t)
      sum += bytes(static_cast<net::MessageType>(t));
    return sum;
  }

  /// Checkpoint restore: replaces every counter with the saved totals.
  void restore(
      const net::MessageStats& stats,
      const std::array<std::uint64_t, net::kNumMessageTypes>& delivered,
      const std::array<std::uint64_t, net::kNumMessageTypes>& dropped) noexcept {
    stats_ = stats;
    delivered_ = delivered;
    dropped_ = dropped;
  }

 private:
  net::MessageStats stats_;
  std::array<std::uint64_t, net::kNumMessageTypes> delivered_{};
  std::array<std::uint64_t, net::kNumMessageTypes> dropped_{};
};

/// Base class of every scenario simulator.  Owns the simulator clock, the
/// RNG lanes, the delay model, the overlay table, the message ledger and
/// the shared search scratch; exposes the scheduling/bootstrap helpers the
/// scenarios used to copy-paste.
class OverlayEngine {
 public:
  OverlayEngine(const OverlayEngine&) = delete;
  OverlayEngine& operator=(const OverlayEngine&) = delete;

  const core::CompactNeighborTable& overlay() const noexcept {
    return overlay_;
  }
  des::Simulator& simulator() noexcept { return sim_; }
  std::size_t num_nodes() const noexcept { return overlay_.size(); }

  /// Per-type counts of every message the scenario accounted for.
  const net::MessageStats& traffic() const noexcept { return ledger_.stats(); }
  const MessageLedger& ledger() const noexcept { return ledger_; }

  /// Bootstrap fills that exhausted their attempt budget before reaching
  /// their target degree (summarized through the warning sink at end of
  /// run).
  std::uint64_t bootstrap_underfills() const noexcept {
    return bootstrap_underfills_;
  }

  /// Where engine warnings (bootstrap under-fill, ...) are reported.  The
  /// default sink prints one "warning: ..." line on stderr; tests install
  /// a capturing sink instead.
  using WarningSink = std::function<void(const std::string&)>;
  void set_warning_sink(WarningSink sink) { warning_sink_ = std::move(sink); }

  /// --- fault injection (all off by default: zero draws, zero events) ----
  /// Installs the fault schedule consulted by every transmission.  An
  /// empty plan leaves the run byte-identical to a baseline run.
  void set_fault_plan(FaultPlan plan) {
    fault_plan_ = std::move(plan);
    refresh_fault_active();
  }
  /// Installs the crash process.  A disabled model schedules no events.
  void set_crash_model(const CrashModel& model) {
    crash_model_ = model;
    refresh_fault_active();
  }
  /// Attaches a continuous invariant checker fed from the trace point.
  /// Routes transmissions through the (draw-free when the plan is empty)
  /// traced paths, and search() certifies every outcome with it; pass
  /// nullptr to detach.  The checker audits the traffic from here on:
  /// attach after load_snapshot, and the resumed run's ledger is its
  /// starting point.
  void attach_checker(InvariantChecker* checker);

  /// --- flight recorder (off by default: null pointer, zero records) -----
  /// Attaches a flight-recorder sink, replacing any attached before.  Like
  /// attaching a checker, this routes transmissions through the traced
  /// paths — draw-free when the fault plan is empty, so a traced run
  /// replays the baseline trajectory byte-identically.  Passing nullptr
  /// detaches: the hot path sees one predicted branch and zero virtual
  /// calls.
  void set_trace_sink(obs::TraceSink* sink) {
    obs_ = sink;
    refresh_fault_active();
  }
  obs::TraceSink* trace_sink() const noexcept { return obs_; }

  /// Enables heartbeat records (events executed, queue population, wall
  /// clock, RSS) every `period_s` simulated seconds while a sink is
  /// attached.  The horizon loop emits each pulse between two run
  /// segments, so pulses schedule nothing, count no events and never
  /// reach a snapshot: a heartbeat leaves the trajectory untouched.
  void set_heartbeat_period(double period_s) {
    heartbeat_period_s_ = period_s;
  }

  /// True once `u` crashed.  Dead peers receive nothing: any copy
  /// addressed to them is dropped on arrival.
  bool node_dead(net::NodeId u) const noexcept {
    return u < dead_.size() && dead_[u] != 0;
  }
  /// Crashed peers so far (CrashModel victims plus explicit crash_node).
  std::uint64_t crashes() const noexcept { return crash_count_; }

  /// Kills `u` abruptly, mid-whatever-it-was-doing.  The scenario's
  /// on_peer_crashed hook stops the victim's own pending activity, but
  /// nobody updates neighbor tables on its behalf: ex-neighbors keep
  /// dangling entries, exactly as after a real ungraceful disconnect.
  void crash_node(net::NodeId u);

  /// --- snapshot/restore (DESIGN.md §1.9) --------------------------------
  /// Arms a mid-run snapshot: the horizon loop runs to `at_s`, writes the
  /// full simulation state to `path`, then continues to the horizon.  The
  /// segmented run executes the exact event sequence an uninterrupted run
  /// does (run_until(T) leaves every pending event strictly later than T),
  /// so arming a save never perturbs the trajectory.  Must be called
  /// before run.
  void request_snapshot_save(std::string path, double at_s);

  /// Restores a snapshot written by request_snapshot_save into this
  /// freshly constructed simulation.  The scenario name, population and
  /// seed must match the snapshot's identity section — everything the
  /// constructor derives from the config (catalogs, profiles, holdings,
  /// delay classes) is reconstructed, and the snapshot supplies only the
  /// mutable state on top.  The whole file is validated (magic, version,
  /// framing, per-section CRCs) before any state is touched: a corrupt
  /// file throws snap::SnapshotError and leaves the simulation unmodified.
  void load_snapshot(const std::string& path);

  /// Writes the current state to `path` immediately.  Normally invoked by
  /// the armed request at its boundary; public so tests can checkpoint at
  /// custom points.
  void save_snapshot(const std::string& path);

  /// True when this simulation was restored from a snapshot.  Scenarios
  /// branch on this in run() to skip the initial scheduling draws; the
  /// engine replays the snapshot's pending events.
  bool resumed() const noexcept { return resumed_; }

  /// --- open-loop load injection (off by default: zero draws, zero
  /// events, so closed-loop runs stay byte-identical with the layer
  /// compiled in) ---------------------------------------------------------
  /// Arms the open-loop front-end: an external query stream (trace file
  /// or built-in generator with an arrival-rate schedule) is injected on
  /// top of the scenario's own closed-loop workload, through a bounded
  /// per-peer admission queue.  Every arrival/targeting decision draws
  /// from a dedicated load lane (derived via des::hash_seed from the
  /// scenario seed, like the fault lane), never from the master stream.
  /// Must be called before run; mutually exclusive with snapshots
  /// (std::invalid_argument).
  void set_open_loop(load::OpenLoopOptions opts);

  /// Admission/latency accounting of the armed open-loop run (zeros when
  /// the layer is off).  `pending` is filled in at end of run.
  const load::LoadStats& load_stats() const noexcept { return load_stats_; }

  /// --- adversarial & heterogeneous scenario layer (off by default: zero
  /// draws, zero events — baseline runs stay byte-identical with the layer
  /// compiled in; tests/sim/adversary_golden_test.cpp pins this) ----------
  /// Arms the adversary layer: abuser/free-rider roles are drawn on the
  /// dedicated adversary lane when the run starts, the abuse spray /
  /// regional outage / churn storm processes are scheduled, and the
  /// capacity knobs (per-class degree bounds, benefit weights) take
  /// effect.  Must be called before run; mutually exclusive with
  /// snapshots (std::invalid_argument; the adversary lane is not
  /// serialized).
  void set_adversary(AdversaryPlan plan);

  /// What the layer did (role counts, sprayed queries, outage victims,
  /// storm kicks).  All zero when the layer is off.
  const AdversaryStats& adversary_stats() const noexcept {
    return adversary_stats_;
  }
  /// The abuser blast radius: every message counted while an abuse scope
  /// was ambient (the sprayed query, its flood, its replies).  A strict
  /// subset of ledger(); InvariantChecker::check_abuse certifies the
  /// attribution.
  const MessageLedger& abuse_ledger() const noexcept { return abuse_ledger_; }
  /// The designated abusers (empty until the run starts, and when off).
  const std::vector<net::NodeId>& abusers() const noexcept {
    return abusers_;
  }
  bool is_abuser(net::NodeId u) const noexcept {
    return u < roles_.size() && (roles_[u] & kRoleAbuser) != 0;
  }
  /// True when `u` serves no content (but still issues its query load).
  bool is_free_rider(net::NodeId u) const noexcept {
    return u < roles_.size() && (roles_[u] & kRoleFreeRider) != 0;
  }
  /// Capacity-aware degree target for `u`: the per-class bound when the
  /// plan sets one for `u`'s bandwidth class, `fallback` (the scenario's
  /// configured degree) otherwise.  Applies to run-time fills and
  /// neighbor updates; the construction-time bootstrap predates
  /// set_adversary and keeps the configured degree.
  std::size_t adversary_degree_bound(net::NodeId u,
                                     std::size_t fallback) const noexcept {
    if (!adversary_capacity_) return fallback;
    const auto b =
        adversary_plan_
            .degree_bound[static_cast<int>(delay_.node_class(u))];
    if (b == 0) return fallback;
    return b < fallback ? b : fallback;
  }
  /// Per-class multiplier on the benefit credited for an answer delivered
  /// by `u`; exactly 1.0 when the layer is off (callers may skip the
  /// multiply entirely — the guard keeps the off path float-identical).
  double adversary_benefit_weight(net::NodeId u) const noexcept {
    if (!adversary_capacity_) return 1.0;
    return adversary_plan_
        .benefit_weight[static_cast<int>(delay_.node_class(u))];
  }

  /// --- closed-loop arrival capture (off by default) ----------------------
  /// Records every closed-loop query arrival (time, issuing peer, item)
  /// and writes them to `path` at end of run in the open-loop trace
  /// grammar (`time_s peer item` per line), so a captured run can be
  /// replayed through `--open-loop --load-trace`.
  void set_capture_trace(std::string path);
  /// Closed-loop arrivals captured so far (empty when capture is off).
  std::uint64_t captured_arrivals() const noexcept {
    return captured_.size();
  }

 protected:
  explicit OverlayEngine(EngineConfig cfg);
  ~OverlayEngine() = default;

  /// --- RNG lanes -------------------------------------------------------
  des::Rng& rng() noexcept { return master_rng_; }
  des::Rng& topo_rng() noexcept { return *topo_; }
  des::Rng& session_rng() noexcept { return *session_; }
  des::Rng& query_rng() noexcept { return *query_; }
  /// The injection lane consulted by serve_injected_query overrides when
  /// they draw a kAnyItem target.  Normally the open-loop layer's
  /// dedicated lane; while the adversary layer serves a sprayed abuse
  /// query it is swapped to the adversary lane, so abuse draws never
  /// perturb the open-loop stream.
  des::Rng& load_lane() noexcept { return *inject_lane_; }

  /// One-way delay sample for a (from, to) transmission, drawn from the
  /// delay lane.
  double sample_delay_s(net::NodeId from, net::NodeId to) {
    return delay_.sample_delay_s(from, to, lanes_.delay);
  }

  /// --- horizon ---------------------------------------------------------
  double horizon_s() const noexcept { return cfg_.sim_hours * 3600.0; }
  double warmup_s() const noexcept { return cfg_.warmup_hours * 3600.0; }
  /// True once the warm-up period has elapsed (metrics become reportable).
  bool reporting() const noexcept { return sim_.now() >= warmup_s(); }

  /// Runs the simulator to the configured horizon (scheduling the crash
  /// process first when a CrashModel is enabled); afterwards reports one
  /// warning-sink line if any bootstrap fill was under budget (the
  /// silent-shortfall fix).  Returns events executed.
  std::uint64_t run_until_horizon();

  /// --- event kinds -----------------------------------------------------
  /// Every pending event is a des::Event record: a kind plus two integer
  /// payloads, scheduled with sim_.schedule_in / sim_.schedule_at.  The
  /// engine runs its own kinds (below kKeyedUserBase); every other kind
  /// goes to the scenario's on_event.  A snapshot writes the records as
  /// they stand, and a resumed run checks and schedules them again.
  static constexpr std::uint32_t kKeyedPeriodic = 1;   ///< a = periodic index
  static constexpr std::uint32_t kKeyedCrashTick = 2;  ///< crash-process tick
  static constexpr std::uint32_t kKeyedAbuse = 3;       ///< abuse spray
  static constexpr std::uint32_t kKeyedStormKick = 4;   ///< churn-storm kick
  static constexpr std::uint32_t kKeyedOutage = 5;      ///< regional outage
  static constexpr std::uint32_t kKeyedArrival = 6;     ///< generated arrival
  static constexpr std::uint32_t kKeyedTraceArrival = 7;  ///< a = trace index
  static constexpr std::uint32_t kKeyedLoadFinish = 8;  ///< a = serving peer
  static constexpr std::uint32_t kKeyedQueueSample = 9;  ///< queue-depth sample
  static constexpr std::uint32_t kKeyedUserBase = 16;  ///< scenario kinds

  /// --- fault layer ------------------------------------------------------
  /// Resets the invariant checker's TTL context for one search (or one
  /// iterative-deepening cycle) with hop budget `max_ttl`.
  void begin_faulty_search(int max_ttl);

  /// Resolves the fate of one synchronous transmission (the eagerly
  /// expanded search paths): consults the plan, drops copies addressed to
  /// dead peers, updates the ledger's fate counters and emits trace
  /// records.  Does NOT count the send itself: send() counts each copy,
  /// and search() counts a whole search's messages when it ends.
  core::TransmitResult transmit(net::MessageType type, net::NodeId from,
                                net::NodeId to, int ttl);

  /// The TransmitFn search() binds; a hand-expanded search calls its
  /// begin() once before sending.  When the fault layer is inactive it is
  /// byte-identical to core::ReliableTransmit (default verdict, zero
  /// draws, no checker TTL context); when active it resolves each copy's
  /// fate through transmit() and opens the checker's TTL context per
  /// search cycle.
  struct MaybeFaultyTransmit {
    OverlayEngine* engine;
    bool active;
    void begin(int max_ttl) const {
      if (active) engine->begin_faulty_search(max_ttl);
    }
    core::TransmitResult operator()(net::MessageType type, net::NodeId from,
                                    net::NodeId to, int ttl) const {
      if (!active) return {};
      return engine->transmit(type, from, to, ttl);
    }
  };
  MaybeFaultyTransmit search_transmit() noexcept {
    return MaybeFaultyTransmit{this, fault_active_};
  }

  /// --- search and exchange ---------------------------------------------
  /// Sends one exchange message (probe, invitation, eviction, ...): counts
  /// the copy, resolves its fate and counts a duplicate's extra copy.
  /// With the fault layer inactive this is one count and one predicted
  /// branch, and the verdict is the default (delivered, on time).
  core::TransmitResult send(net::MessageType type, net::NodeId from,
                            net::NodeId to, int ttl) {
    count(type);
    if (!fault_active_) return {};
    const core::TransmitResult r = transmit(type, from, to, ttl);
    if (r.duplicate) count(type);
    return r;
  }

  /// One search by `initiator` for `item` (§3.2's generic algorithm with
  /// §2's propagation schemes plugged in): opens the trace span, runs
  /// sim::dispatch_search over the overlay, the delay lane,
  /// search_transmit() and the engine's dedup and scratch buffers, closes
  /// the span, certifies the outcome when a checker is attached, and
  /// counts the query and reply messages.  `has_content(n)` says whether
  /// n holds the item; `rank(n)` is n's score, read only by kTopK, which
  /// also reads `k`; directed BFT picks `directed_fanout` neighbors by
  /// `stats`.
  template <typename HasContentFn, typename RankFn>
  core::SearchOutcome search(SearchStrategyKind kind,
                             const core::SearchParams& params, std::uint32_t k,
                             std::uint32_t directed_fanout,
                             net::NodeId initiator, std::uint64_t item,
                             const core::StatsStore& stats,
                             HasContentFn has_content, RankFn rank) {
    const std::uint32_t span =
        obs_search_begin(initiator, params.max_hops, item);
    SearchContext ctx{
        initiator,
        [this](net::NodeId n) -> core::NeighborView {
          return overlay_.out_neighbors(n);
        },
        has_content,
        rank,
        [this](net::NodeId a, net::NodeId b) { return sample_delay_s(a, b); },
        search_transmit(),
        &stats,
        &stamps_,
        &hit_stamps_,
        &scratch_};
    core::SearchOutcome outcome =
        dispatch_search(kind, params, k, directed_fanout, ctx);
    end_search(span, initiator, kind == SearchStrategyKind::kTopK ? k : 0,
               outcome);
    return outcome;
  }

  /// --- search spans (flight recorder) ----------------------------------
  /// Opens a search span: emits the kSearchBegin record and makes the new
  /// id the ambient span stamped on every traced record until the span
  /// closes.  Returns 0 — and records nothing — when no sink is attached,
  /// so scenarios thread the id through unconditionally.  Never draws.
  std::uint32_t obs_search_begin(net::NodeId initiator, int max_ttl,
                                 std::uint64_t item);

  /// Closes span `span` with the scenario's verdict (no-op when span is
  /// 0).  `first_hit_hop` < 0 means the search missed;
  /// `first_result_delay_s` < 0 when no delay is defined (miss, or a
  /// protocol without reply latency).  `best_score` > 0 only for ranked
  /// query classes (exact-match searches pass the default and their
  /// records stay byte-identical).  Never draws.
  void obs_search_end(std::uint32_t span, net::NodeId initiator,
                      std::uint64_t results, int first_hit_hop,
                      double first_result_delay_s, double best_score = 0.0);

  /// --- open-loop injection hook ----------------------------------------
  /// Serves one injected query at `peer` synchronously: runs the
  /// scenario's search machinery (messages accounted through the ledger,
  /// spans visible in the flight recorder) and returns the service
  /// latency plus the hit verdict.  `item` is a scenario-defined object
  /// id, or load::kAnyItem to draw one from the workload model using the
  /// load lane.  Called only while the open-loop layer is armed; the
  /// default fails closed for scenarios without an override.
  virtual load::Served serve_injected_query(net::NodeId peer,
                                            std::uint64_t item);

  /// Called exactly once per crash_node(), before any further event runs.
  /// Scenarios stop the victim's own pending activity (its queries, its
  /// session timer) here — and must NOT touch the overlay: dangling
  /// neighbor entries are the point of an ungraceful crash.
  virtual void on_peer_crashed(net::NodeId /*u*/) {}

  /// --- churn-storm hook -------------------------------------------------
  /// Delivers one forced log-off: the scenario picks a currently on-line
  /// peer (uniformly, drawing only from `lane`), logs it off immediately,
  /// and reschedules its comeback after a Pareto-tailed offline time of
  /// mean `offline_mean_s` and shape `shape` sampled from `lane`.  Returns
  /// true when a peer was actually kicked (false when nobody is on-line,
  /// or the scenario has no session model — the default).  Must draw
  /// exclusively from `lane`, never from the session/master streams.
  virtual bool adversary_churn_kick(des::Rng& /*lane*/,
                                    double /*offline_mean_s*/,
                                    double /*shape*/) {
    return false;
  }

  /// --- closed-loop capture hook ----------------------------------------
  /// Scenarios call this at their closed-loop query-issue site (one call
  /// per issued search, before the search runs).  One predicted branch
  /// when capture is off.
  void capture_query_arrival(net::NodeId peer, std::uint64_t item) {
    if (capture_armed_) captured_.push_back({sim_.now(), peer, item});
  }

  /// --- scenario snapshot hooks -----------------------------------------
  /// Serialize/restore the scenario's own mutable state (caches, stats,
  /// partial results).  Immutable construction-time state (catalogs,
  /// holdings, profiles, initial digests) is deliberately NOT written: the
  /// restoring side reconstructs it by running the constructor with the
  /// same config.  The defaults fail closed for scenarios that never
  /// implemented checkpointing.
  virtual void save_domain(snap::Writer::Out& out) const;
  virtual void load_domain(snap::Reader::In& in);

  /// --- scenario events ---------------------------------------------------
  /// Runs one of the scenario's own events (kind >= kKeyedUserBase).  The
  /// default fails closed: a scenario that schedules kinds handles them.
  virtual void on_event(const des::Event& e);

  /// Reports one warning line through the sink (default: stderr).
  void warn(const std::string& message);

  /// --- periodic scheduling --------------------------------------------
  /// Runs `body` every `period_s` seconds, fresh and resumed runs alike.
  /// The body is appended to an index-stable table, so a resumed run that
  /// makes the same calls in the same order gets the indices its snapshot
  /// recorded.  On a fresh run only, `first_delay()` is called (it may
  /// draw) and the first tick is scheduled after it; a resumed run draws
  /// nothing and takes its pending ticks from the snapshot.  Each tick
  /// runs the body, then schedules the next one — the trailing
  /// self-reschedule order the scenarios always used, so insertion-order
  /// tie-breaking in the queue is unchanged.
  void every(double period_s, const std::function<double()>& first_delay,
             std::function<void()> body);

  /// --- bootstrap -------------------------------------------------------
  /// The shared attempt budget of the random bootstrap: four probes per
  /// outgoing slot, the constant all scenarios used.
  int default_bootstrap_attempts() const noexcept {
    return 4 * static_cast<int>(cfg_.out_capacity);
  }

  /// The deduplicated `attempts = 4 * num_neighbors` random-fill loop:
  /// draws candidates from `pick()` until `u`'s outgoing list holds
  /// `target` entries, is full, or the budget is spent.  Self-links and
  /// repeat picks consume an attempt without forming a link (exactly the
  /// historical behaviour — the loops this replaces either pre-checked
  /// `has_out` or let link() fail; both consume the draw).  `on_link(v)`
  /// runs once per link u -> v formed.  Exhausting the budget short of the
  /// target is recorded and summarized at end of run instead of passing
  /// silently.
  template <typename PickFn, typename OnLinkFn>
  void fill_random_neighbors(net::NodeId u, std::size_t target, int attempts,
                             PickFn&& pick, OnLinkFn&& on_link) {
    const auto lists = overlay_.lists(u);  // value proxy, reads stay live
    while (lists.out().size() < target && !lists.out_full() &&
           attempts-- > 0) {
      const net::NodeId v = pick();
      if (v == u || lists.has_out(v)) continue;
      // Capacity-aware refusal: under a symmetric relation the link grows
      // v's list too, so a candidate at its class degree bound declines
      // the probe (consuming the attempt, like any failed link).  Inert
      // when the adversary layer is off — link()'s own table-full check
      // is then the only limit.
      if (adversary_capacity_ &&
          overlay_.lists(v).out().size() >=
              adversary_degree_bound(
                  v, std::numeric_limits<std::size_t>::max()))
        continue;
      if (overlay_.link(u, v)) on_link(v);  // fails harmlessly if v is full
    }
    if (lists.out().size() < target && !lists.out_full())
      ++bootstrap_underfills_;
  }

  /// Draws each node's initial on-line state — one lane draw per node in
  /// node order — and returns the on-line subset in that order.
  template <typename DrawFn>
  std::vector<net::NodeId> draw_initial_online(DrawFn&& initially_online) {
    std::vector<net::NodeId> online;
    for (net::NodeId u = 0; u < num_nodes(); ++u)
      if (initially_online(u)) online.push_back(u);
    return online;
  }

  const EngineConfig& engine_config() const noexcept { return cfg_; }

  /// --- shared state (scenario classes reach these directly) ------------
  EngineConfig cfg_;
  des::Rng master_rng_;
  RngLanes lanes_;
  net::DelayModel delay_;
  core::CompactNeighborTable overlay_;
  core::VisitStamp stamps_;     ///< per-search visited set
  core::VisitStamp hit_stamps_; ///< per-search holder dedup (local indices)
  core::SearchScratch scratch_; ///< flood frontier reuse
  des::Simulator sim_;
  MessageLedger ledger_;

 private:
  /// --- snapshot plumbing ------------------------------------------------
  struct PendingRecord {
    double t = 0.0;
    des::Event ev;
  };
  struct Periodic {
    double period_s = 0.0;
    std::function<void()> body;
  };

  /// Throws std::invalid_argument naming the armed layer when open-loop
  /// injection, the adversary layer or arrival capture is armed: their
  /// state is not checkpointed, so a snapshot cannot be saved or loaded.
  void reject_snapshot_conflicts() const;
  /// The simulator's handler: runs the engine's own kinds and hands every
  /// other kind to on_event.
  void run_event(const des::Event& e);
  /// Schedules periodic `idx`'s next tick `delay_s` from now.
  void start_periodic(std::size_t idx, double delay_s);
  void run_periodic_tick(std::size_t idx);
  void run_crash_tick();
  /// Checks one pending-event record read from a snapshot: a finite time
  /// not before the restored clock, a kind the resumed run can schedule
  /// (a periodic, the crash tick or one of the scenario's kinds), a
  /// periodic index the saved table has and, for scenario kinds, node ids
  /// below the population in both payloads.  Throws snap::SnapshotError.
  void check_event_record(const PendingRecord& r) const;
  /// Re-schedules the snapshot's pending events after the resumed run has
  /// registered its periodics; validates the registration against the
  /// saved table first (count and periods must match).
  void replay_restored_events();
  void write_engine_core(snap::Writer::Out& out);
  void write_overlay(snap::Writer::Out& out);
  void write_events(snap::Writer::Out& out);
  void read_engine_core(snap::Reader::In& in);
  void read_overlay(snap::Reader::In& in);
  void read_events(snap::Reader::In& in);

  /// Counts `n` sends of type `t`, the ledger half of send() and
  /// end_search(); while an abuse scope is ambient the count is mirrored
  /// into the abuse ledger so blast-radius traffic stays attributed (one
  /// always-false predicted branch on every baseline path).
  void count(net::MessageType t, std::uint64_t n = 1) noexcept {
    ledger_.count(t, n);
    if (abuse_ambient_) abuse_ledger_.count(t, n);
  }

  /// The engine's one trace point: builds one record for `copies`
  /// identical copies of a transmission fate (or for a crash) and hands
  /// it to the attached checker and sink.
  void trace(obs::RecordKind kind, net::NodeId from, net::NodeId to,
             net::MessageType type, std::uint64_t bytes, int ttl,
             std::uint64_t copies);
  /// Records one heartbeat; the wall clock counts from `wall_start_s`.
  void emit_heartbeat(double wall_start_s);

  /// search()'s bookkeeping after dispatch: closes `span`, certifies the
  /// outcome against the requested `k` (0: exact match) and counts the
  /// query and reply messages.
  void end_search(std::uint32_t span, net::NodeId initiator, std::uint32_t k,
                  const core::SearchOutcome& outcome);

  /// The traced paths serve three consumers: the fault plan, the
  /// invariant checker and the flight recorder.  All three ride the same
  /// branch because an empty-plan traced run is draw-free and therefore
  /// byte-identical to the fast path.
  void refresh_fault_active() noexcept {
    fault_active_ = !fault_plan_.empty() || crash_model_.enabled() ||
                    checker_ != nullptr || obs_ != nullptr;
  }
  void schedule_crash_process();
  void schedule_next_crash(double at_s);

  /// --- adversary machinery ----------------------------------------------
  /// RAII abuse scope: flips abuse_ambient_ on for the duration (when
  /// `engage`), restoring the previous value on exit.  Everything counted,
  /// traced or fate-resolved inside the scope is attributed to the abuser.
  class [[nodiscard]] ScopedAbuse {
   public:
    ScopedAbuse(OverlayEngine* e, bool engage) : e_(engage ? e : nullptr) {
      if (e_) {
        prev_ = e_->abuse_ambient_;
        e_->abuse_ambient_ = true;
      }
    }
    ScopedAbuse(const ScopedAbuse&) = delete;
    ScopedAbuse& operator=(const ScopedAbuse&) = delete;
    ~ScopedAbuse() {
      if (e_) e_->abuse_ambient_ = prev_;
    }

   private:
    OverlayEngine* e_ = nullptr;
    bool prev_ = false;
  };

  /// Draws the abuser/free-rider roles and schedules the abuse spray, the
  /// regional outage and the churn storm.  Called once at the top of the
  /// horizon loop; zero draws and zero events when the plan is disabled.
  void arm_adversary();
  void schedule_next_abuse(double from_s);
  void run_abuse_event();
  void run_regional_outage();
  void schedule_next_storm_kick(double from_s);
  void run_storm_kick();
  void write_capture_file();

  /// --- open-loop machinery ----------------------------------------------
  void arm_open_loop();
  void schedule_next_generated_arrival(double from_s);
  void run_generated_arrival();
  /// Schedules trace entry `idx` (and nothing when the trace is done or
  /// the entry lies past the horizon).
  void schedule_trace_arrival(std::size_t idx);
  void run_trace_arrival(std::size_t idx);
  void handle_load_arrival(net::NodeId peer, std::uint64_t item);
  void start_load_service(net::NodeId peer);
  void finish_load_service(net::NodeId peer);
  void shed_load_queue(net::NodeId peer);
  void sample_load_queues();

  des::Rng* topo_ = nullptr;
  des::Rng* session_ = nullptr;
  des::Rng* query_ = nullptr;
  WarningSink warning_sink_;
  std::uint64_t bootstrap_underfills_ = 0;
  bool underfill_reported_ = false;

  /// Fault-layer state.  The decision lane is derived via make_fault_lane,
  /// never split off the master stream, so engaging the layer cannot
  /// perturb the baseline RNG trajectory.
  FaultPlan fault_plan_;
  CrashModel crash_model_;
  InvariantChecker* checker_ = nullptr;
  des::Rng fault_rng_;
  std::vector<char> dead_;
  std::uint64_t crash_count_ = 0;
  bool fault_active_ = false;

  /// Open-loop load state.  The lane is derived (never split) from the
  /// scenario seed; with the layer off nothing here schedules events or
  /// draws, which is the closed-loop byte-identity half of the contract.
  load::OpenLoopOptions load_opts_;
  des::Rng load_rng_;
  load::LoadStats load_stats_;
  std::vector<load::PeerQueue> load_queues_;
  std::uint64_t load_live_depth_ = 0;  ///< queued + in-service, all peers

  /// Adversary-layer state.  The decision lane is derived (never split)
  /// from the scenario seed in set_adversary; with the plan disabled
  /// nothing here draws or schedules, which is the byte-identity half of
  /// the contract.  roles_ stays empty until arm_adversary runs.
  static constexpr std::uint8_t kRoleAbuser = 1;
  static constexpr std::uint8_t kRoleFreeRider = 2;
  AdversaryPlan adversary_plan_;
  AdversaryStats adversary_stats_;
  MessageLedger abuse_ledger_;
  des::Rng adversary_rng_;
  std::vector<std::uint8_t> roles_;
  std::vector<net::NodeId> abusers_;
  bool abuse_ambient_ = false;
  bool adversary_capacity_ = false;  ///< capacity knobs engaged
  /// Where serve_injected_query's kAnyItem draws come from: the load lane
  /// normally, the adversary lane while serving a sprayed abuse query.
  des::Rng* inject_lane_ = &load_rng_;

  /// Closed-loop capture state (off: one dead branch per issued query).
  struct CapturedArrival {
    double t = 0.0;
    net::NodeId peer = net::kInvalidNode;
    std::uint64_t item = 0;
  };
  std::string capture_path_;
  bool capture_armed_ = false;
  std::vector<CapturedArrival> captured_;

  /// Flight-recorder state.  `obs_` is non-null only while a sink is
  /// attached; span ids are issued 1-based so 0 means "no span".
  obs::TraceSink* obs_ = nullptr;
  std::uint32_t next_span_ = 0;
  std::uint32_t current_span_ = 0;
  double heartbeat_period_s_ = 0.0;

  /// Snapshot state.  All empty/false on runs that never arm a snapshot.
  std::vector<Periodic> periodics_;
  std::vector<PendingRecord> restored_events_;
  std::vector<double> restored_periods_;
  std::string save_path_;
  double save_at_s_ = 0.0;
  bool save_requested_ = false;
  bool resumed_ = false;
  /// Whether the saved run carried an armed crash process.  A resumed run
  /// that arms one when this is false (warm-start fault forks) starts the
  /// process from the restored clock; when true the restored crash tick —
  /// or its absence, if the chain had already ended — is authoritative.
  bool saved_crash_armed_ = false;
};

}  // namespace dsf::sim
