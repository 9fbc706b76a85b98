#include "sim/engine.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/unreachable.h"
#include "des/distributions.h"
#include "obs/process_stats.h"
#include "sim/invariants.h"

namespace dsf::sim {

RngLanes make_lanes(des::Rng& master, RngLayout layout) {
  RngLanes lanes;
  switch (layout) {
    case RngLayout::kCompact:
      // Historical compact layout: exactly one split (the delay lane);
      // everything else draws from the master stream.
      lanes.delay = master.split();
      return lanes;
    case RngLayout::kFourLane:
      // Historical gnutella layout: four splits in this exact order.
      lanes.topo = master.split();
      lanes.session = master.split();
      lanes.query = master.split();
      lanes.delay = master.split();
      return lanes;
  }
  core::unreachable_enum("sim::RngLayout");
}

std::uint64_t default_message_bytes(net::MessageType t) {
  // Representative wire sizes modeled on the Gnutella 0.4 descriptor
  // family: header (23 B) plus typical payloads.  Exploration replies
  // carry statistics/digests and dominate.
  switch (t) {
    case net::MessageType::kQuery:
      return 82;
    case net::MessageType::kQueryReply:
      return 104;
    case net::MessageType::kPing:
      return 23;
    case net::MessageType::kPong:
      return 37;
    case net::MessageType::kExploreQuery:
      return 64;
    case net::MessageType::kExploreReply:
      return 512;
    case net::MessageType::kInvitation:
      return 48;
    case net::MessageType::kInvitationReply:
      return 32;
    case net::MessageType::kEviction:
      return 32;
    case net::MessageType::kCount_:
      break;
  }
  core::unreachable_enum("net::MessageType");
}

namespace {
double wall_clock_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Fixed stream salt for the open-loop load lane ("load" in ASCII).  Like
/// the fault lane, it is hashed from the scenario seed — never split off
/// the master stream — so arming the layer cannot perturb the baseline
/// trajectory's draws.
constexpr std::uint64_t kLoadStream = 0x6c6f'6164'00000000ULL;
}  // namespace

OverlayEngine::OverlayEngine(EngineConfig cfg)
    : cfg_(std::move(cfg)),
      master_rng_(cfg_.seed),
      lanes_(make_lanes(master_rng_, cfg_.rng_layout)),
      delay_(cfg_.num_nodes, master_rng_, cfg_.delay_params),
      overlay_(cfg_.num_nodes, cfg_.relation, cfg_.out_capacity,
               cfg_.in_capacity),
      stamps_(cfg_.num_nodes),
      hit_stamps_(cfg_.num_nodes),
      sim_([this](const des::Event& e) { run_event(e); }),
      fault_rng_(make_fault_lane(cfg_.seed)),
      dead_(cfg_.num_nodes, 0),
      load_rng_(des::hash_seed(cfg_.seed, kLoadStream)) {
  // Unused lanes alias the master stream so compact-layout scenarios keep
  // drawing from the sequence they always did.
  const bool four = cfg_.rng_layout == RngLayout::kFourLane;
  topo_ = four ? &lanes_.topo : &master_rng_;
  session_ = four ? &lanes_.session : &master_rng_;
  query_ = four ? &lanes_.query : &master_rng_;
}

namespace {
// The three layers whose state the snapshot format does not carry.
const char* kLoadSnapshotError =
    ": open-loop injection and snapshots are mutually exclusive (injected"
    " arrivals and admission queues are not checkpointed)";
const char* kAdversarySnapshotError =
    ": the adversary layer and snapshots are mutually exclusive (the"
    " adversary lane and abuse attribution are not checkpointed)";
const char* kCaptureSnapshotError =
    ": --capture-trace and snapshots are mutually exclusive (captured"
    " arrivals are not checkpointed, so a resumed capture would be"
    " incomplete)";
}  // namespace

void OverlayEngine::run_event(const des::Event& e) {
  switch (e.kind) {
    case kKeyedCrashTick:
      run_crash_tick();
      return;
    case kKeyedAbuse:
      run_abuse_event();
      return;
    case kKeyedStormKick:
      run_storm_kick();
      return;
    case kKeyedOutage:
      run_regional_outage();
      return;
    case kKeyedArrival:
      run_generated_arrival();
      return;
    case kKeyedTraceArrival:
      run_trace_arrival(static_cast<std::size_t>(e.a));
      return;
    case kKeyedLoadFinish:
      finish_load_service(static_cast<net::NodeId>(e.a));
      return;
    case kKeyedQueueSample:
      sample_load_queues();
      return;
    default:
      on_event(e);
  }
}

void OverlayEngine::on_event(const des::Event& e) {
  throw std::logic_error(cfg_.name + ": no handler for event kind " +
                         std::to_string(e.kind));
}

std::uint64_t OverlayEngine::run_until_horizon() {
  if (!resumed_ || (crash_model_.enabled() && !saved_crash_armed_)) {
    // Fresh runs start the crash process as configured.  A resumed run
    // normally inherits the saved run's crash tick from the file — but a
    // warm-start fork arming a crash model the saved run did not have
    // gets no tick from it, so start the process here, from the restored
    // clock (the fault lane was untouched by the saved run).
    schedule_crash_process();
  }
  arm_adversary();  // zero draws, zero events when the plan is disabled
  if (load_opts_.enabled) arm_open_loop();
  // Segmented horizon: run to the next cut, act on it, continue.  After
  // run_until(T) every pending event is strictly later than T and no
  // event is mid-flight, so T is a clean cut and the segments together
  // execute the exact events the unsegmented run would.  The cuts are the
  // snapshot save point and the heartbeat pulses (multiples of the period
  // after the start clock); neither schedules an event.
  constexpr double kNever = std::numeric_limits<double>::infinity();
  const double end = horizon_s();
  const double wall_start_s = wall_clock_s();
  double pulse = kNever;
  if (heartbeat_period_s_ > 0.0 && obs_ != nullptr)
    pulse = (std::floor(sim_.now() / heartbeat_period_s_) + 1.0) *
            heartbeat_period_s_;
  for (;;) {
    const double save_at =
        save_requested_ ? std::min(save_at_s_, end) : kNever;
    const double cut = std::min({end, save_at, pulse});
    sim_.run_until(cut);
    if (cut == pulse) {
      emit_heartbeat(wall_start_s);
      pulse += heartbeat_period_s_;
    }
    if (cut == save_at) {
      save_requested_ = false;
      save_snapshot(save_path_);
    }
    if (cut == end) break;
  }
  if (load_opts_.enabled) {
    std::uint64_t pending = 0;
    for (const load::PeerQueue& q : load_queues_) pending += q.depth();
    load_stats_.pending = pending;
  }
  if (capture_armed_) write_capture_file();
  if (bootstrap_underfills_ > 0 && !underfill_reported_) {
    underfill_reported_ = true;
    warn(cfg_.name + ": " + std::to_string(bootstrap_underfills_) +
         " bootstrap fill(s) exhausted the attempt budget before reaching "
         "the target degree");
  }
  // Lifetime count, not this call's: a resumed run restores the executed
  // counter at the boundary, so reported event totals stay continuous with
  // the straight-through run.
  return sim_.executed();
}

void OverlayEngine::warn(const std::string& message) {
  if (warning_sink_) {
    warning_sink_(message);
    return;
  }
  std::fprintf(stderr, "warning: %s\n", message.c_str());
}

// --- fault layer ----------------------------------------------------------

void OverlayEngine::attach_checker(InvariantChecker* checker) {
  checker_ = checker;
  if (checker_) checker_->start_from(ledger_);
  refresh_fault_active();
}

void OverlayEngine::begin_faulty_search(int max_ttl) {
  if (checker_) checker_->on_search_begin(max_ttl);
}

void OverlayEngine::trace(obs::RecordKind kind, net::NodeId from,
                          net::NodeId to, net::MessageType type,
                          std::uint64_t bytes, int ttl,
                          std::uint64_t copies) {
  obs::Record r;
  r.time_s = sim_.now();
  r.span = current_span_;
  r.from = from;
  r.to = to;
  r.ttl = static_cast<std::int16_t>(std::clamp(ttl, -1, 32767));
  r.kind = kind;
  if (kind == obs::RecordKind::kPeerCrash) {
    r.span = 0;  // crashes belong to the run, not the ambient search
  } else {
    // One record covers all copies (Record.b carries the count).
    r.type = static_cast<std::uint8_t>(type);
    r.a = obs::Record::pack_wire(bytes, abuse_ambient_);
    r.b = copies;
  }
  if (checker_) checker_->record(r);
  if (obs_) obs_->record(r);
}

std::uint32_t OverlayEngine::obs_search_begin(net::NodeId initiator,
                                              int max_ttl,
                                              std::uint64_t item) {
  if (!obs_) return 0;
  const std::uint32_t span = ++next_span_;
  current_span_ = span;
  obs::Record r;
  r.time_s = sim_.now();
  r.span = span;
  r.from = initiator;
  r.to = net::kInvalidNode;
  r.ttl = static_cast<std::int16_t>(std::clamp(max_ttl, 0, 32767));
  r.kind = obs::RecordKind::kSearchBegin;
  r.a = item;
  obs_->record(r);
  return span;
}

void OverlayEngine::obs_search_end(std::uint32_t span, net::NodeId initiator,
                                   std::uint64_t results, int first_hit_hop,
                                   double first_result_delay_s,
                                   double best_score) {
  if (span == 0 || !obs_) return;
  obs::Record r;
  r.time_s = sim_.now();
  r.span = span;
  r.from = initiator;
  r.to = net::kInvalidNode;
  r.ttl = static_cast<std::int16_t>(std::clamp(first_hit_hop, -1, 32767));
  r.kind = obs::RecordKind::kSearchEnd;
  r.a = obs::Record::pack_results_score(results, best_score);
  r.b = obs::Record::pack_delay(first_result_delay_s);
  obs_->record(r);
  if (current_span_ == span) current_span_ = 0;
}

void OverlayEngine::end_search(std::uint32_t span, net::NodeId initiator,
                               std::uint32_t k,
                               const core::SearchOutcome& outcome) {
  if (span != 0) {
    // First hit = minimum reply arrival (first_result_delay_s's metric);
    // its hop is the span's first-hit depth.
    const core::SearchHit* first = outcome.first_hit();
    obs_search_end(span, initiator, outcome.hits.size(),
                   first ? first->hop : -1, first ? first->reply_at_s : -1.0,
                   outcome.best_score());
  }
  if (checker_) checker_->check_search_outcome(k, outcome);
  count(net::MessageType::kQuery, outcome.query_messages);
  count(net::MessageType::kQueryReply, outcome.reply_messages);
}

void OverlayEngine::emit_heartbeat(double wall_start_s) {
  const double wall_ms = (wall_clock_s() - wall_start_s) * 1e3;
  obs::Record r;
  r.time_s = sim_.now();
  r.kind = obs::RecordKind::kHeartbeat;
  r.from = static_cast<std::uint32_t>(
      std::min<std::size_t>(sim_.pending(), UINT32_MAX));
  r.to = static_cast<std::uint32_t>(
      std::min(wall_ms, static_cast<double>(UINT32_MAX)));
  r.a = sim_.executed();
  r.b = obs::peak_rss_bytes();
  obs_->record(r);
}

core::TransmitResult OverlayEngine::transmit(net::MessageType type,
                                             net::NodeId from, net::NodeId to,
                                             int ttl) {
  FaultDecision d;
  if (!fault_plan_.empty()) d = fault_plan_.decide(type, sim_.now(), fault_rng_);
  core::TransmitResult res;
  res.duplicate = d.duplicate;
  res.extra_delay_s = d.extra_delay_s;
  res.deliver = !d.drop && !node_dead(to);
  const std::uint64_t copies = d.duplicate ? 2 : 1;
  const std::uint64_t b = default_message_bytes(type);
  trace(obs::RecordKind::kSend, from, to, type, b, ttl, copies);
  if (res.deliver) {
    ledger_.count_delivered(type, copies);
    if (abuse_ambient_) abuse_ledger_.count_delivered(type, copies);
    trace(obs::RecordKind::kRecv, from, to, type, b, ttl, copies);
  } else {
    ledger_.count_dropped(type, copies);
    if (abuse_ambient_) abuse_ledger_.count_dropped(type, copies);
    trace(obs::RecordKind::kDrop, from, to, type, b, ttl, copies);
  }
  return res;
}

void OverlayEngine::crash_node(net::NodeId u) {
  if (u >= dead_.size() || dead_[u]) return;
  dead_[u] = 1;
  ++crash_count_;
  trace(obs::RecordKind::kPeerCrash, u, net::kInvalidNode,
        net::MessageType::kQuery, 0, -1, 1);
  on_peer_crashed(u);
}

void OverlayEngine::schedule_crash_process() {
  if (!crash_model_.enabled()) return;
  const double first = std::max(crash_model_.start_s, sim_.now());
  const double mean_gap_s = 3600.0 / crash_model_.rate_per_hour;
  schedule_next_crash(first +
                      des::Exponential(mean_gap_s).sample(fault_rng_));
}

void OverlayEngine::schedule_next_crash(double at_s) {
  if (at_s >= crash_model_.end_s || at_s > horizon_s()) return;
  sim_.schedule_at(at_s, des::Event{kKeyedCrashTick, 0, 0});
}

void OverlayEngine::run_crash_tick() {
  // A tick restored from a crash-armed save does nothing in a run resumed
  // without a crash model: the resumed run's fault flags rule, as they do
  // when a fork arms a model the save lacked.
  if (!crash_model_.enabled() || crash_count_ >= crash_model_.max_crashes)
    return;
  // Victim: uniform over still-alive nodes, by rejection sampling from
  // the fault lane (bounded so a mostly-dead population terminates).
  net::NodeId victim = net::kInvalidNode;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto pick = static_cast<net::NodeId>(
        fault_rng_.uniform_int(static_cast<std::uint64_t>(num_nodes())));
    if (!node_dead(pick)) {
      victim = pick;
      break;
    }
  }
  if (victim != net::kInvalidNode) crash_node(victim);
  if (crash_count_ < crash_model_.max_crashes) {
    const double mean_gap_s = 3600.0 / crash_model_.rate_per_hour;
    schedule_next_crash(sim_.now() +
                        des::Exponential(mean_gap_s).sample(fault_rng_));
  }
}

// --- snapshot/restore -----------------------------------------------------

void OverlayEngine::reject_snapshot_conflicts() const {
  if (load_opts_.enabled)
    throw std::invalid_argument(cfg_.name + kLoadSnapshotError);
  if (adversary_plan_.enabled())
    throw std::invalid_argument(cfg_.name + kAdversarySnapshotError);
  if (capture_armed_)
    throw std::invalid_argument(cfg_.name + kCaptureSnapshotError);
}

void OverlayEngine::request_snapshot_save(std::string path, double at_s) {
  reject_snapshot_conflicts();
  if (!(at_s > 0.0))
    throw std::invalid_argument(cfg_.name +
                                ": snapshot time must be positive");
  save_path_ = std::move(path);
  save_at_s_ = at_s;
  save_requested_ = true;
}

void OverlayEngine::save_snapshot(const std::string& path) {
  snap::Writer w;
  auto& id = w.section(snap::SectionId::kIdentity);
  id.str(cfg_.name);
  id.u64(num_nodes());
  id.u64(cfg_.seed);
  id.u64(cfg_.schedule_values.size());
  for (const ScheduleValue& v : cfg_.schedule_values) id.f64(v.value);
  write_engine_core(w.section(snap::SectionId::kEngineCore));
  write_overlay(w.section(snap::SectionId::kOverlay));
  write_events(w.section(snap::SectionId::kEvents));
  save_domain(w.section(snap::SectionId::kDomain));
  w.write_file(path);
}

void OverlayEngine::load_snapshot(const std::string& path) {
  reject_snapshot_conflicts();
  if (resumed_ || sim_.pending() != 0 || sim_.now() != 0.0)
    throw std::logic_error(
        cfg_.name +
        ": load_snapshot must run on a freshly constructed simulation");
  const snap::Reader r(path);  // validates the whole file up front
  auto id = r.section(snap::SectionId::kIdentity);
  const std::string name = id.str();
  const std::uint64_t nodes = id.u64();
  const std::uint64_t seed = id.u64();
  if (name != cfg_.name || nodes != num_nodes() || seed != cfg_.seed)
    throw snap::SnapshotError(
        "file was written by scenario '" + name + "' (" +
        std::to_string(nodes) + " nodes, seed " + std::to_string(seed) +
        "); this run is '" + cfg_.name + "' (" +
        std::to_string(num_nodes()) + " nodes, seed " +
        std::to_string(cfg_.seed) + ")");
  check_schedule_values(id);
  // Resolve every section before applying any state, so a structurally
  // incomplete file cannot leave a half-restored simulation behind.
  auto core = r.section(snap::SectionId::kEngineCore);
  auto overlay = r.section(snap::SectionId::kOverlay);
  auto events = r.section(snap::SectionId::kEvents);
  auto domain = r.section(snap::SectionId::kDomain);
  read_engine_core(core);
  read_overlay(overlay);
  read_events(events);
  load_domain(domain);
  resumed_ = true;
}

namespace {
/// The shortest decimal that reads back as `v` ("600", "0.5", "nan").
std::string shortest(double v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
}
}  // namespace

void OverlayEngine::check_schedule_values(snap::Reader::In& in) const {
  if (in.count(8) != cfg_.schedule_values.size())
    throw snap::SnapshotError(cfg_.name + ": schedule value count differs "
                              "from this run's");
  for (const ScheduleValue& v : cfg_.schedule_values) {
    const double saved = in.f64();
    if (saved != v.value)
      throw snap::SnapshotError(
          cfg_.name + ": " + v.name + " is " + shortest(v.value) +
          " in this run but " + shortest(saved) +
          " in the snapshot; resume with the same scenario flags");
  }
}

void OverlayEngine::write_engine_core(snap::Writer::Out& out) {
  out.f64(sim_.now());
  out.u64(sim_.executed());
  const auto put_rng = [&out](const des::Rng& r) {
    for (std::uint64_t word : r.state()) out.u64(word);
  };
  put_rng(master_rng_);
  put_rng(lanes_.topo);
  put_rng(lanes_.session);
  put_rng(lanes_.query);
  put_rng(lanes_.delay);
  put_rng(fault_rng_);
  out.u64(dead_.size());
  for (char d : dead_) out.u8(static_cast<std::uint8_t>(d));
  out.u64(crash_count_);
  out.u64(bootstrap_underfills_);
  out.u8(underfill_reported_ ? 1 : 0);
  for (int t = 0; t < net::kNumMessageTypes; ++t)
    out.u64(ledger_.stats().total(static_cast<net::MessageType>(t)));
  for (int t = 0; t < net::kNumMessageTypes; ++t)
    out.u64(ledger_.delivered(static_cast<net::MessageType>(t)));
  for (int t = 0; t < net::kNumMessageTypes; ++t)
    out.u64(ledger_.dropped(static_cast<net::MessageType>(t)));
  out.u32(next_span_);
  out.u8(crash_model_.enabled() ? 1 : 0);
}

void OverlayEngine::read_engine_core(snap::Reader::In& in) {
  const double now = in.f64();
  if (!std::isfinite(now) || now < 0.0)
    throw snap::SnapshotError(cfg_.name + ": clock " + shortest(now) +
                              " is not a finite time >= 0");
  const std::uint64_t executed = in.u64();
  const auto get_rng = [&in](des::Rng& r) {
    std::array<std::uint64_t, 4> s;
    for (std::uint64_t& word : s) word = in.u64();
    r.set_state(s);
  };
  get_rng(master_rng_);
  get_rng(lanes_.topo);
  get_rng(lanes_.session);
  get_rng(lanes_.query);
  get_rng(lanes_.delay);
  get_rng(fault_rng_);
  if (in.u64() != dead_.size())
    throw snap::SnapshotError(cfg_.name + ": dead-set size mismatch");
  for (char& d : dead_) d = static_cast<char>(in.u8());
  crash_count_ = in.u64();
  bootstrap_underfills_ = in.u64();
  underfill_reported_ = in.u8() != 0;
  net::MessageStats stats;
  for (int t = 0; t < net::kNumMessageTypes; ++t)
    stats.count(static_cast<net::MessageType>(t), in.u64());
  std::array<std::uint64_t, net::kNumMessageTypes> delivered{};
  std::array<std::uint64_t, net::kNumMessageTypes> dropped{};
  for (std::uint64_t& v : delivered) v = in.u64();
  for (std::uint64_t& v : dropped) v = in.u64();
  ledger_.restore(stats, delivered, dropped);
  next_span_ = in.u32();
  saved_crash_armed_ = in.u8() != 0;
  sim_.restore_clock(now, executed);
}

void OverlayEngine::write_overlay(snap::Writer::Out& out) {
  // Raw per-node lists in iteration order — including dangling entries
  // left by crashes, which are semantically meaningful state.
  for (net::NodeId u = 0; u < num_nodes(); ++u) {
    const auto lists = overlay_.lists(u);
    const auto outn = lists.out();
    out.u32(static_cast<std::uint32_t>(outn.size()));
    for (net::NodeId v : outn) out.u32(v);
    const auto inn = lists.in();
    out.u32(static_cast<std::uint32_t>(inn.size()));
    for (net::NodeId v : inn) out.u32(v);
  }
}

void OverlayEngine::read_overlay(snap::Reader::In& in) {
  // The constructor-built overlay is discarded wholesale; the raw add_*
  // mutators bypass link maintenance so restored lists reproduce the saved
  // iteration order (and any deliberate dangling entries) exactly.
  for (net::NodeId u = 0; u < num_nodes(); ++u) overlay_.lists(u).clear();
  const auto neighbor = [&] {
    const net::NodeId v = in.u32();
    if (v >= num_nodes())
      throw snap::SnapshotError(cfg_.name + ": overlay neighbor id " +
                                std::to_string(v) + " out of range");
    return v;
  };
  for (net::NodeId u = 0; u < num_nodes(); ++u) {
    const auto lists = overlay_.lists(u);
    const std::uint32_t n_out = in.u32();
    for (std::uint32_t i = 0; i < n_out; ++i)
      if (!lists.add_out(neighbor()))
        throw snap::SnapshotError(cfg_.name + ": overlay out-list restore "
                                              "failed (capacity mismatch?)");
    const std::uint32_t n_in = in.u32();
    for (std::uint32_t i = 0; i < n_in; ++i)
      if (!lists.add_in(neighbor()))
        throw snap::SnapshotError(cfg_.name + ": overlay in-list restore "
                                              "failed (capacity mismatch?)");
  }
}

void OverlayEngine::write_events(snap::Writer::Out& out) {
  struct Rec {
    double t;
    std::uint64_t seq;
    des::Event ev;
  };
  std::vector<Rec> recs;
  recs.reserve(sim_.pending());
  sim_.queue().for_each_pending(
      [&](double t, std::uint64_t seq, const des::Event& ev) {
        recs.push_back({t, seq, ev});
      });
  // (time, seq) is the queue's pop order; a load schedules the records in
  // this order with fresh ascending sequence numbers, preserving FIFO ties.
  std::sort(recs.begin(), recs.end(), [](const Rec& x, const Rec& y) {
    return x.t != y.t ? x.t < y.t : x.seq < y.seq;
  });
  out.u64(recs.size());
  for (const Rec& r : recs) {
    out.f64(r.t);
    out.u32(r.ev.kind);
    out.u64(r.ev.a);
    out.u64(r.ev.b);
  }
}

void OverlayEngine::read_events(snap::Reader::In& in) {
  // One record: f64 time, u32 kind, u64 a, u64 b, in (time, seq) order.
  const std::size_t n = in.count(8 + 4 + 8 + 8);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = in.f64();
    des::Event e;
    e.kind = in.u32();
    e.a = in.u64();
    e.b = in.u64();
    check_event_record(t, e);
    sim_.schedule_at(t, e);
  }
}

void OverlayEngine::check_event_record(double t, const des::Event& e) const {
  const auto reject = [&](const std::string& why) {
    throw snap::SnapshotError(cfg_.name + ": pending event of kind " +
                              std::to_string(e.kind) + " in snapshot " + why);
  };
  if (!std::isfinite(t) || t < sim_.now())
    reject("has time " + std::to_string(t) +
           " (not finite, or before the snapshot clock)");
  if (e.kind == kKeyedCrashTick) return;
  if (e.kind < kKeyedUserBase || e.kind - kKeyedUserBase >= cfg_.event_kinds)
    reject("is an unknown event kind");
  if (e.a >= num_nodes() || e.b >= num_nodes())
    reject("names node " + std::to_string(std::max(e.a, e.b)) +
           " out of range");
}

void OverlayEngine::save_domain(snap::Writer::Out&) const {
  throw snap::SnapshotError(cfg_.name +
                            ": scenario does not implement snapshots");
}

void OverlayEngine::load_domain(snap::Reader::In&) {
  throw snap::SnapshotError(cfg_.name +
                            ": scenario does not implement snapshots");
}

// --- adversarial & heterogeneous scenario layer ---------------------------

void OverlayEngine::set_adversary(AdversaryPlan plan) {
  plan.validate();
  if (plan.enabled()) {
    if (save_requested_ || resumed_)
      throw std::invalid_argument(cfg_.name + kAdversarySnapshotError);
    if (sim_.now() > 0.0)
      throw std::logic_error(cfg_.name +
                             ": set_adversary must run before run");
    // Seed the dedicated lane only when the plan can actually draw; a
    // disabled plan leaves the default-constructed lane untouched.
    adversary_rng_ = make_adversary_lane(cfg_.seed);
  }
  adversary_plan_ = plan;
  adversary_capacity_ = plan.capacity_enabled();
}

void OverlayEngine::set_capture_trace(std::string path) {
  if (path.empty())
    throw std::invalid_argument(cfg_.name +
                                ": --capture-trace path must be non-empty");
  if (save_requested_ || resumed_)
    throw std::invalid_argument(cfg_.name + kCaptureSnapshotError);
  capture_path_ = std::move(path);
  capture_armed_ = true;
}

void OverlayEngine::arm_adversary() {
  if (!adversary_plan_.enabled()) return;
  const AdversaryPlan& p = adversary_plan_;
  // Roles are drawn in a fixed order (abusers, then free-riders) so each
  // adversity's draws are a deterministic function of the plan knobs.
  if (p.abusers_enabled() || p.free_riders_enabled())
    roles_.assign(num_nodes(), 0);
  if (p.abusers_enabled()) {
    std::size_t k = static_cast<std::size_t>(std::llround(
        p.abuser_fraction * static_cast<double>(num_nodes())));
    if (k == 0) k = 1;
    if (k >= num_nodes()) k = num_nodes() - 1;
    const std::vector<std::size_t> picks =
        des::sample_without_replacement(num_nodes(), k, adversary_rng_);
    abusers_.reserve(k);
    for (std::size_t idx : picks) {
      roles_[idx] |= kRoleAbuser;
      abusers_.push_back(static_cast<net::NodeId>(idx));
    }
    std::sort(abusers_.begin(), abusers_.end());
    adversary_stats_.abusers = abusers_.size();
    schedule_next_abuse(std::max(p.abuse_start_s, sim_.now()));
  }
  if (p.free_riders_enabled()) {
    // One Bernoulli per non-abuser, in node order.  Abusers keep their
    // own (full) libraries: their pathology is traffic, not stinginess.
    for (net::NodeId u = 0; u < num_nodes(); ++u) {
      if ((roles_[u] & kRoleAbuser) != 0) continue;
      if (adversary_rng_.bernoulli(p.free_rider_fraction)) {
        roles_[u] |= kRoleFreeRider;
        ++adversary_stats_.free_riders;
      }
    }
  }
  if (p.outage_enabled() && p.outage_at_s <= horizon_s())
    sim_.schedule_at(std::max(p.outage_at_s, sim_.now()),
                     des::Event{kKeyedOutage, 0, 0});
  if (p.storm_enabled())
    schedule_next_storm_kick(std::max(p.storm_start_s, sim_.now()));
}

void OverlayEngine::schedule_next_abuse(double from_s) {
  // One aggregate Poisson process at `abusers × rate`, with a uniform
  // abuser picked per event — statistically identical to independent
  // per-abuser sprays, and one pending event instead of k.
  const double rate = adversary_plan_.abuse_rate_per_s *
                      static_cast<double>(abusers_.size());
  if (rate <= 0.0) return;
  const double at =
      from_s + des::Exponential(1.0 / rate).sample(adversary_rng_);
  if (at >= adversary_plan_.abuse_end_s || at > horizon_s()) return;
  sim_.schedule_at(at, des::Event{kKeyedAbuse, 0, 0});
}

void OverlayEngine::run_abuse_event() {
  const double now = sim_.now();
  const net::NodeId a = abusers_[adversary_rng_.uniform_int(
      static_cast<std::uint64_t>(abusers_.size()))];
  // A crashed abuser skips its turn but the process keeps its rate:
  // offered abuse does not die with one abuser.
  if (!node_dead(a)) {
    ++adversary_stats_.abuse_queries;
    // Swap the injection lane so the scenario's kAnyItem targeting draws
    // come from the adversary lane, never the open-loop stream.
    des::Rng* const prev = inject_lane_;
    inject_lane_ = &adversary_rng_;
    {
      const ScopedAbuse scope(this, true);
      const load::Served served = serve_injected_query(a, load::kAnyItem);
      if (served.hit) ++adversary_stats_.abuse_hits;
    }
    inject_lane_ = prev;
  }
  schedule_next_abuse(now);
}

void OverlayEngine::run_regional_outage() {
  const AdversaryPlan& p = adversary_plan_;
  const auto cls = static_cast<net::BandwidthClass>(p.outage_class);
  // Node order; a partial outage draws one Bernoulli per live class
  // member.  crash_node leaves dangling neighbor entries, exactly like a
  // CrashModel victim.
  for (net::NodeId u = 0; u < num_nodes(); ++u) {
    if (delay_.node_class(u) != cls || node_dead(u)) continue;
    if (p.outage_fraction < 1.0 &&
        !adversary_rng_.bernoulli(p.outage_fraction))
      continue;
    crash_node(u);
    ++adversary_stats_.outage_victims;
  }
}

void OverlayEngine::schedule_next_storm_kick(double from_s) {
  const double at =
      from_s + des::Exponential(1.0 / adversary_plan_.storm_rate_per_s)
                   .sample(adversary_rng_);
  if (at >= adversary_plan_.storm_end_s || at > horizon_s()) return;
  sim_.schedule_at(at, des::Event{kKeyedStormKick, 0, 0});
}

void OverlayEngine::run_storm_kick() {
  const double now = sim_.now();
  if (adversary_churn_kick(adversary_rng_,
                           adversary_plan_.storm_offline_mean_s,
                           adversary_plan_.storm_pareto_shape))
    ++adversary_stats_.storm_kicks;
  schedule_next_storm_kick(now);
}

void OverlayEngine::write_capture_file() {
  std::FILE* f = std::fopen(capture_path_.c_str(), "w");
  if (!f)
    throw std::runtime_error(cfg_.name + ": cannot open capture file '" +
                             capture_path_ + "' for writing");
  std::fprintf(f,
               "# %s closed-loop query arrivals (time_s peer item); replay "
               "with --open-loop --load-trace\n",
               cfg_.name.c_str());
  for (const CapturedArrival& a : captured_)
    std::fprintf(f, "%.9f %llu %llu\n", a.t,
                 static_cast<unsigned long long>(a.peer),
                 static_cast<unsigned long long>(a.item));
  if (std::fclose(f) != 0)
    throw std::runtime_error(cfg_.name + ": failed writing capture file '" +
                             capture_path_ + "'");
}

// --- open-loop load layer -------------------------------------------------

load::Served OverlayEngine::serve_injected_query(net::NodeId, std::uint64_t) {
  throw std::logic_error(
      cfg_.name +
      ": open-loop injection is not supported by this scenario (no "
      "serve_injected_query override)");
}

void OverlayEngine::set_open_loop(load::OpenLoopOptions opts) {
  if (!opts.enabled) {
    load_opts_ = load::OpenLoopOptions{};
    return;
  }
  if (save_requested_ || resumed_)
    throw std::invalid_argument(cfg_.name + kLoadSnapshotError);
  if (sim_.now() > 0.0)
    throw std::logic_error(cfg_.name + ": set_open_loop must run before run");
  if (opts.admission_cap == 0)
    throw std::invalid_argument(cfg_.name + ": --admission-cap must be >= 1");
  if (opts.trace.empty() && !(opts.schedule.base_qps > 0.0))
    throw std::invalid_argument(
        cfg_.name +
        ": open-loop injection needs --arrival-rate > 0 or a --load-trace "
        "file");
  for (const load::TraceArrival& a : opts.trace)
    if (a.peer != load::kAnyPeer &&
        a.peer >= static_cast<std::int64_t>(num_nodes()))
      throw std::invalid_argument(
          cfg_.name + ": load trace names peer " + std::to_string(a.peer) +
          " but the population is " + std::to_string(num_nodes()));
  load_opts_ = std::move(opts);
}

void OverlayEngine::arm_open_loop() {
  load_queues_.assign(num_nodes(), load::PeerQueue{});
  load_live_depth_ = 0;
  if (load_opts_.queue_sample_period_s > 0.0)
    sim_.schedule_in(load_opts_.queue_sample_period_s,
                     des::Event{kKeyedQueueSample, 0, 0});
  if (!load_opts_.trace.empty())
    schedule_trace_arrival(0);
  else
    schedule_next_generated_arrival(0.0);
}

void OverlayEngine::schedule_next_generated_arrival(double from_s) {
  // Non-homogeneous Poisson by thinning: candidate points at the
  // schedule's peak rate, each kept with probability rate(t)/peak.  All
  // draws come from the load lane.
  const double peak = load_opts_.schedule.peak_qps();
  double t = from_s;
  while (true) {
    t += -std::log1p(-load_rng_.uniform()) / peak;
    if (t >= horizon_s()) return;
    if (load_rng_.uniform() * peak <= load_opts_.schedule.rate_at(t)) break;
  }
  sim_.schedule_at(t, des::Event{kKeyedArrival, 0, 0});
}

void OverlayEngine::run_generated_arrival() {
  // Crashed peers still attract offered load; their arrivals are refused
  // at admission, not silently skipped.
  const auto peer = static_cast<net::NodeId>(
      load_rng_.uniform_int(static_cast<std::uint64_t>(num_nodes())));
  const double now = sim_.now();
  handle_load_arrival(peer, load::kAnyItem);
  schedule_next_generated_arrival(now);
}

void OverlayEngine::schedule_trace_arrival(std::size_t idx) {
  if (idx >= load_opts_.trace.size()) return;
  const double t = load_opts_.trace[idx].time_s;
  if (t >= horizon_s()) return;  // sorted: the rest is past the end
  sim_.schedule_at(std::max(t, sim_.now()),
                   des::Event{kKeyedTraceArrival, idx, 0});
}

void OverlayEngine::run_trace_arrival(std::size_t idx) {
  const load::TraceArrival& a = load_opts_.trace[idx];
  const net::NodeId peer =
      a.peer == load::kAnyPeer
          ? static_cast<net::NodeId>(load_rng_.uniform_int(
                static_cast<std::uint64_t>(num_nodes())))
          : static_cast<net::NodeId>(a.peer);
  handle_load_arrival(peer, a.item);
  schedule_trace_arrival(idx + 1);
}

void OverlayEngine::handle_load_arrival(net::NodeId peer, std::uint64_t item) {
  const double now = sim_.now();
  ++load_stats_.offered;
  load_stats_.offered_series.add(now, 1);
  load::PeerQueue& q = load_queues_[peer];
  if (node_dead(peer) || q.depth() >= load_opts_.admission_cap) {
    ++load_stats_.rejected;
    load_stats_.rejected_series.add(now, 1);
    return;
  }
  ++load_stats_.admitted;
  q.waiting.push_back(load::PendingQuery{now, item});
  ++load_live_depth_;
  if (load_live_depth_ > load_stats_.peak_queue_depth)
    load_stats_.peak_queue_depth = load_live_depth_;
  if (!q.busy) start_load_service(peer);
}

void OverlayEngine::start_load_service(net::NodeId peer) {
  load::PeerQueue& q = load_queues_[peer];
  if (q.busy || q.waiting.empty()) return;
  if (node_dead(peer)) {
    shed_load_queue(peer);
    return;
  }
  const load::PendingQuery job = q.waiting.front();
  q.waiting.pop_front();
  q.busy = true;
  const load::Served served = serve_injected_query(peer, job.item);
  q.service_arrival_s = job.arrival_s;
  q.service_hit = served.hit;
  const double latency_s = served.latency_s > 0.0 ? served.latency_s : 0.0;
  sim_.schedule_in(latency_s, des::Event{kKeyedLoadFinish, peer, 0});
}

void OverlayEngine::finish_load_service(net::NodeId peer) {
  load::PeerQueue& q = load_queues_[peer];
  q.busy = false;
  const double arrival_s = q.service_arrival_s;
  const bool hit = q.service_hit;
  --load_live_depth_;
  ++load_stats_.completed;
  if (hit) ++load_stats_.hits;
  const double now = sim_.now();
  if (now >= warmup_s()) {
    ++load_stats_.completed_after_warmup;
    if (hit) ++load_stats_.hits_after_warmup;
    load_stats_.sojourn_s.add(now - arrival_s);
    load_stats_.sojourn_hist.add(now - arrival_s);
  }
  // A peer that crashed mid-service completes the in-flight query (the
  // analytic latency was already determined) but its queue is shed.
  if (node_dead(peer)) {
    shed_load_queue(peer);
    return;
  }
  start_load_service(peer);
}

void OverlayEngine::shed_load_queue(net::NodeId peer) {
  load::PeerQueue& q = load_queues_[peer];
  load_stats_.shed += q.waiting.size();
  load_live_depth_ -= q.waiting.size();
  q.waiting.clear();
}

void OverlayEngine::sample_load_queues() {
  load_stats_.queue_depth.add(static_cast<double>(load_live_depth_));
  const double period = load_opts_.queue_sample_period_s;
  if (sim_.now() + period <= horizon_s())
    sim_.schedule_in(period, des::Event{kKeyedQueueSample, 0, 0});
}

}  // namespace dsf::sim
