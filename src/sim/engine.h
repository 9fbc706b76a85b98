#pragma once

// The shared overlay-engine layer: everything the four scenario simulators
// used to re-implement — RNG lane splitting, the delay model, the overlay
// relation table, message accounting, bootstrap helpers, periodic
// scheduling and horizon control — owned by one base class.  A scenario
// composes/subclasses OverlayEngine, keeps only its domain state (catalogs,
// caches, holdings) and its event handlers, and inherits the rest.
//
// Determinism contract: the engine constructs its members in exactly the
// order the hand-rolled simulators did (master RNG → lane splits → delay
// model → overlay), so a fixed seed replays the exact pre-refactor
// trajectory.  Helpers that could perturb the event or RNG stream
// (schedule_every, fill_random_neighbors, draw_initial_online) are
// documented with the equivalence argument they rely on.

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/compact_relations.h"
#include "core/relations.h"
#include "core/flood_search.h"
#include "core/visit_stamp.h"
#include "des/rng.h"
#include "des/simulator.h"
#include "load/open_loop.h"
#include "metrics/time_series.h"
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

/// Per-type message counts *and* bytes.  Wraps net::MessageStats so ported
/// scenarios keep publishing the same `traffic` object they always did.
class MessageLedger {
 public:
  /// Counts `n` sent messages of type `t`; `bytes_each` of 0 means "use
  /// the default wire size for this type".
  void count(net::MessageType t, std::uint64_t n = 1,
             std::uint64_t bytes_each = 0) noexcept {
    stats_.count(t, n);
    bytes_[static_cast<int>(t)] +=
        n * (bytes_each ? bytes_each : default_message_bytes(t));
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

  std::uint64_t bytes(net::MessageType t) const noexcept {
    return bytes_[static_cast<int>(t)];
  }

  std::uint64_t total_bytes() const noexcept {
    std::uint64_t sum = 0;
    for (auto b : bytes_) sum += b;
    return sum;
  }

  /// Checkpoint restore: replaces every counter with the saved totals.
  void restore(
      const net::MessageStats& stats,
      const std::array<std::uint64_t, net::kNumMessageTypes>& bytes,
      const std::array<std::uint64_t, net::kNumMessageTypes>& delivered,
      const std::array<std::uint64_t, net::kNumMessageTypes>& dropped) noexcept {
    stats_ = stats;
    bytes_ = bytes;
    delivered_ = delivered;
    dropped_ = dropped;
  }

 private:
  net::MessageStats stats_;
  std::array<std::uint64_t, net::kNumMessageTypes> bytes_{};
  std::array<std::uint64_t, net::kNumMessageTypes> delivered_{};
  std::array<std::uint64_t, net::kNumMessageTypes> dropped_{};
};

/// One periodic traffic sample (enable via set_traffic_sample_period).
struct TrafficSample {
  double time_s = 0.0;
  std::uint64_t messages = 0;  ///< cumulative count at sample time
  std::uint64_t bytes = 0;     ///< cumulative bytes at sample time
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
  const net::DelayModel& delay_model() const noexcept { return delay_; }
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
  /// traced paths; pass nullptr to detach.
  void attach_checker(InvariantChecker* checker) {
    checker_ = checker;
    refresh_fault_active();
  }

  const FaultPlan& fault_plan() const noexcept { return fault_plan_; }
  const CrashModel& crash_model() const noexcept { return crash_model_; }

  /// The attached checker, or nullptr.  Scenarios use it for per-search
  /// certification (InvariantChecker::check_search_outcome) — the type is
  /// only forward-declared here, so call sites include sim/invariants.h.
  InvariantChecker* checker() const noexcept { return checker_; }

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
  /// on_peer_crashed hook cancels the victim's own pending activity, but
  /// nobody updates neighbor tables on its behalf: ex-neighbors keep
  /// dangling entries, exactly as after a real ungraceful disconnect.
  void crash_node(net::NodeId u);

  /// Enables periodic traffic sampling every `period_s` seconds (wired to
  /// metrics::TimeSeries bucketing).  Must be called before run; off by
  /// default so ported benches replay byte-identically.
  void set_traffic_sample_period(double period_s) {
    traffic_sample_period_s_ = period_s;
  }
  const std::vector<TrafficSample>& traffic_samples() const noexcept {
    return traffic_samples_;
  }
  /// Message counts bucketed by sample period (empty unless enabled).
  const std::optional<metrics::TimeSeries>& traffic_series() const noexcept {
    return traffic_series_;
  }

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
  /// branch on this in run(): skip the initial scheduling draws, register
  /// periodic bodies only (in the exact fresh-run order), and let the
  /// engine replay the snapshot's pending events.
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

  /// True when the open-loop front-end is armed.
  bool open_loop() const noexcept { return load_opts_.enabled; }

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

  const AdversaryPlan& adversary_plan() const noexcept {
    return adversary_plan_;
  }
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
  des::Rng& delay_rng() noexcept { return lanes_.delay; }
  /// The injection lane consulted by serve_injected_query overrides when
  /// they draw a kAnyItem target.  Normally the open-loop layer's
  /// dedicated lane; while the adversary layer serves a sprayed abuse
  /// query it is swapped to the adversary lane, so abuse draws never
  /// perturb the open-loop stream.
  des::Rng& load_lane() noexcept { return *inject_lane_; }

  /// The adversary layer's dedicated decision lane.
  des::Rng& adversary_lane() noexcept { return adversary_rng_; }

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

  /// --- snapshot-keyed scheduling ---------------------------------------
  /// Closures cannot be serialized, so every event that may be pending at
  /// a snapshot boundary is scheduled through a keyed variant: `kind`
  /// (engine kinds below; scenario kinds start at kKeyedUserBase) plus two
  /// integer payloads say how to rebuild the callback, and a seq-to-key
  /// note table joins live queue entries with their keys at save time.
  /// With no snapshot armed the keyed variants collapse to the plain
  /// ones — same draws, same insertion order, zero tracking overhead.
  static constexpr std::uint32_t kKeyedPeriodic = 1;   ///< a = periodic index
  static constexpr std::uint32_t kKeyedCrashTick = 2;  ///< crash-process tick
  static constexpr std::uint32_t kKeyedUserBase = 16;  ///< scenario kinds

  des::EventId schedule_keyed(double delay_s, std::uint32_t kind,
                              std::uint64_t a, std::uint64_t b,
                              des::Callback cb) {
    const des::EventId id = sim_.schedule_in(delay_s, std::move(cb));
    if (snap_track_) note_keyed(id.seq, kind, a, b);
    return id;
  }
  /// Absolute-time variant (crash process, restore replay).
  des::EventId schedule_keyed_at(double at_s, std::uint32_t kind,
                                 std::uint64_t a, std::uint64_t b,
                                 des::Callback cb) {
    const des::EventId id = sim_.schedule_at(at_s, std::move(cb));
    if (snap_track_) note_keyed(id.seq, kind, a, b);
    return id;
  }

  /// Splits schedule_every into its two halves so a restored run can
  /// rebuild periodic bodies without re-drawing their start offsets:
  /// registration appends the body to an index-stable table (identical
  /// call order fresh and resumed, hence identical indices), and
  /// start_periodic — fresh runs only — schedules the first keyed tick.
  std::size_t register_periodic(double period_s, std::function<void()> body);
  void start_periodic(std::size_t idx, double first_delay_s);

  /// --- accounting ------------------------------------------------------
  /// Counts a send; while an abuse scope is ambient the count is mirrored
  /// into the abuse ledger so blast-radius traffic stays attributed (one
  /// always-false predicted branch on every baseline path).
  void count(net::MessageType t, std::uint64_t n = 1,
             std::uint64_t bytes_each = 0) noexcept {
    ledger_.count(t, n, bytes_each);
    if (abuse_ambient_) abuse_ledger_.count(t, n, bytes_each);
  }

  /// Unified message dispatch: accounts for the transmission (count +
  /// bytes), samples the propagation delay from the delay lane and
  /// schedules `on_deliver` at the arrival time.  New scenarios build
  /// their protocols on this; the ported hot paths keep their historical
  /// inline accounting so the replayed RNG stream is untouched.  When the
  /// fault layer is active (a fault plan, crash model, checker or sink is
  /// attached) the transmission is routed through it: the plan may
  /// drop/duplicate/delay the copy, a dead receiver drops it on arrival,
  /// and every copy's fate is traced.
  template <typename Fn>
  void send(net::NodeId from, net::NodeId to, net::MessageType type,
            Fn&& on_deliver, std::uint64_t bytes = 0) {
    const std::uint64_t b = bytes ? bytes : default_message_bytes(type);
    count(type, 1, b);
    if (fault_active_) {
      send_faulty(from, to, type, std::function<void()>(on_deliver), b);
      return;
    }
    sim_.schedule_in(sample_delay_s(from, to), std::forward<Fn>(on_deliver));
  }

  /// Batched unified dispatch for neighbor fan-out: one ledger update, one
  /// timestamp read and one bulk queue insertion cover the whole batch.
  /// `targets` is any random-access range of NodeId; `make_on_deliver(i)`
  /// builds the delivery callback for targets[i].  Delay samples are drawn
  /// from the delay lane in target order and the scheduled events carry
  /// consecutive sequence numbers, so a run using send_batch is
  /// byte-identical to the same run calling send() per target.  When the
  /// fault layer is active every copy still gets an individual fate
  /// (drop/duplicate/delay, dead-receiver check) through the per-copy
  /// faulty path.
  template <typename Targets, typename MakeCb>
  void send_batch(net::NodeId from, const Targets& targets,
                  net::MessageType type, MakeCb&& make_on_deliver,
                  std::uint64_t bytes_each = 0) {
    const std::size_t n = std::size(targets);
    if (n == 0) return;
    const std::uint64_t b =
        bytes_each ? bytes_each : default_message_bytes(type);
    count(type, n, b);
    if (fault_active_) {
      for (std::size_t i = 0; i < n; ++i)
        send_faulty(from, targets[i], type,
                    std::function<void()>(make_on_deliver(i)), b);
      return;
    }
    const double now = sim_.now();
    sim_.queue().schedule_batch(n, [&](std::size_t i) {
      const double d = sample_delay_s(from, targets[i]);
      return std::pair<des::SimTime, des::Callback>(d > 0 ? now + d : now,
                                                    make_on_deliver(i));
    });
  }

  /// --- fault layer ------------------------------------------------------
  /// Resets the invariant checker's TTL context for one search (or one
  /// iterative-deepening cycle) with hop budget `max_ttl`.
  void begin_faulty_search(int max_ttl);

  /// Resolves the fate of one synchronous transmission (the eagerly
  /// expanded search paths): consults the plan, drops copies addressed to
  /// dead peers, updates the ledger's fate counters and emits trace
  /// records.  Does NOT count the send itself — callers keep their
  /// historical bulk accounting.
  core::TransmitResult transmit(net::MessageType type, net::NodeId from,
                                net::NodeId to, int ttl);

  /// The one TransmitFn every synchronous exchange binds — searches,
  /// probes, invitations, evictions.  When the fault layer is inactive it
  /// is byte-identical to core::ReliableTransmit (default verdict, zero
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
  /// Scenarios cancel the victim's own pending activity (its queries, its
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

  /// Rebuilds the callback for one pending-event record from the snapshot
  /// and schedules it at absolute time `t` (through schedule_keyed_at, so
  /// a later save sees it again).  Scenario overrides handle their own
  /// kinds (>= kKeyedUserBase) and defer engine kinds to this base
  /// implementation; an unknown kind throws snap::SnapshotError.
  virtual void restore_keyed_event(double t, std::uint32_t kind,
                                   std::uint64_t a, std::uint64_t b);

  /// Reports one warning line through the sink (default: stderr).
  void warn(const std::string& message);

  /// --- periodic scheduling --------------------------------------------
  /// Runs `fn` after `first_delay_s`, then every `period_s` forever.
  /// Equivalent to the trailing-self-reschedule pattern the scenarios used
  /// (body runs, then reschedules last): the callback invokes `fn` and
  /// then schedules the next tick, so event insertion order — and with it
  /// the queue's insertion-order tie-breaking — is unchanged as long as
  /// `fn` itself schedules nothing after its own old reschedule point
  /// (true of every ported periodic body).
  void schedule_every(double first_delay_s, double period_s,
                      std::function<void()> fn);

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
  /// `has_out` or let link() fail; both consume the draw).  `on_link` runs
  /// once per link formed.  Exhausting the budget short of the target is
  /// recorded and summarized at end of run instead of passing silently.
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
      if (overlay_.link(u, v)) on_link();  // fails harmlessly if v is full
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

  /// ChurnModel-driven variant: one Bernoulli per node from `lane`.
  std::vector<net::NodeId> draw_initial_online(const ChurnModel& churn,
                                               des::Rng& lane) {
    return draw_initial_online([&](net::NodeId) {
      return churn.initially_online(lane);
    });
  }

  const EngineConfig& engine_config() const noexcept { return cfg_; }

  /// --- shared state (scenario classes reach these directly) ------------
  EngineConfig cfg_;
  des::Rng master_rng_;
  RngLanes lanes_;
  net::DelayModel delay_;
  core::CompactNeighborTable overlay_;
  core::VisitStamp stamps_;     ///< per-search visited set
  core::SearchScratch scratch_; ///< flood frontier reuse
  des::Simulator sim_;
  MessageLedger ledger_;

 private:
  void sample_traffic();

  /// --- snapshot plumbing ------------------------------------------------
  struct KeyedNote {
    std::uint32_t kind = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };
  struct PendingRecord {
    double t = 0.0;
    std::uint32_t kind = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };
  struct Periodic {
    double period_s = 0.0;
    std::function<void()> body;
  };

  /// Throws std::invalid_argument naming the armed layer when open-loop
  /// injection, the adversary layer or arrival capture is armed: their
  /// state is not checkpointed, so a snapshot cannot be saved or loaded.
  void reject_snapshot_conflicts() const;
  void note_keyed(std::uint64_t seq, std::uint32_t kind, std::uint64_t a,
                  std::uint64_t b);
  /// Drops notes whose events already fired (amortized: rebuilds from the
  /// live queue when the table outgrows twice the pending population).
  void sweep_keyed_notes();
  void run_periodic_tick(std::size_t idx);
  void run_crash_tick();
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

  /// Async-path fate resolution behind send(): plan decision, per-copy
  /// delivery events, dead-receiver drops, fate traces.  The ambient abuse
  /// flag is captured at send time and re-established around the delayed
  /// fate (and the delivery callback's cascade) so asynchronous copies stay
  /// attributed to their abuser.
  void send_faulty(net::NodeId from, net::NodeId to, net::MessageType type,
                   std::function<void()> on_deliver, std::uint64_t bytes);
  void deliver_copy(double delay_s, net::NodeId from, net::NodeId to,
                    net::MessageType type, std::uint64_t bytes, bool abuse,
                    std::function<void()> on_deliver);

  /// The engine's one trace point: builds one record for `copies`
  /// identical copies of a transmission fate (or for a crash) and hands
  /// it to the attached checker and sink.
  void trace(obs::RecordKind kind, net::NodeId from, net::NodeId to,
             net::MessageType type, std::uint64_t bytes, int ttl,
             std::uint64_t copies);
  /// Records one heartbeat; the wall clock counts from `wall_start_s`.
  void emit_heartbeat(double wall_start_s);

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
  void schedule_next_trace_arrival();
  void handle_load_arrival(net::NodeId peer, std::uint64_t item);
  void start_load_service(net::NodeId peer);
  void finish_load_service(net::NodeId peer, double arrival_s, bool hit);
  void shed_load_queue(net::NodeId peer);
  void sample_load_queues();

  des::Rng* topo_ = nullptr;
  des::Rng* session_ = nullptr;
  des::Rng* query_ = nullptr;
  WarningSink warning_sink_;
  double traffic_sample_period_s_ = 0.0;
  std::vector<TrafficSample> traffic_samples_;
  std::optional<metrics::TimeSeries> traffic_series_;
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
  std::size_t load_trace_idx_ = 0;
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

  /// Snapshot state.  All empty/false on runs that never arm a snapshot,
  /// so the keyed scheduling variants reduce to the plain ones.
  std::vector<Periodic> periodics_;
  std::unordered_map<std::uint64_t, KeyedNote> keyed_notes_;
  std::vector<PendingRecord> restored_events_;
  std::vector<double> restored_periods_;
  std::string save_path_;
  double save_at_s_ = 0.0;
  bool save_requested_ = false;
  bool snap_track_ = false;
  bool resumed_ = false;
  /// Whether the saved run carried an armed crash process.  A resumed run
  /// that arms one when this is false (warm-start fault forks) starts the
  /// process from the restored clock; when true the restored crash tick —
  /// or its absence, if the chain had already ended — is authoritative.
  bool saved_crash_armed_ = false;
};

}  // namespace dsf::sim
