// The network emulator: wires virtual routers together over virtual links,
// delivers control-plane messages through the event kernel, injects
// external BGP advertisements, and detects dataplane convergence.
//
// This is the in-process analogue of the paper's KNE deployment (§4.1):
// `add_topology` corresponds to `kne create` (parse configs, create pods,
// wire links), `start_*` to container boot, `run_to_convergence` to waiting
// for the control plane to reach steady state, and `dump_afts` to the gNMI
// AFT extraction.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "config/diagnostics.hpp"
#include "emu/kernel.hpp"
#include "emu/shard.hpp"
#include "obs/metrics.hpp"
#include "emu/topology.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "vrouter/virtual_router.hpp"

namespace mfv::emu {

struct EmulationOptions {
  /// Seed for all stochastic behaviour (message jitter).
  uint64_t seed = 1;
  /// Uniform per-message extra delay in [0, jitter] microseconds. Zero
  /// means fully deterministic timing; nonzero perturbs message arrival
  /// order (experiment A2, §6 "Non-deterministic behavior").
  int64_t message_jitter_micros = 0;
  /// Latency of addressed (multi-hop session) messages.
  int64_t addressed_latency_micros = 1000;
  /// Per-route processing/serialization cost applied to BGP updates: a
  /// large advertisement batch takes proportionally longer to arrive and
  /// be digested, which is what makes full-table injection dominate
  /// convergence time (E4b: "millions from each BGP peer" -> ~3 min).
  int64_t per_route_processing_micros = 100;
  /// BGP final tiebreak mode for all routers (see BgpEngineOptions).
  bool bgp_prefer_oldest = true;
  /// Routes per injected BGP update message.
  size_t injection_batch_size = 1000;
  /// Event-loop shards for run_to_convergence. 1 = the serial kernel.
  /// Values > 1 partition routers across that many worker threads with a
  /// conservative lookahead barrier (DESIGN.md §10); results are
  /// bit-identical to serial. Jitter shards fine: each actor draws from
  /// its own seeded RNG stream, so draws are thread-private and identical
  /// to a serial run. Runs that cannot shard safely — unattributed
  /// pending events or a degenerate lookahead — fall back to the serial
  /// kernel (counted in emu_serial_fallbacks).
  uint32_t shards = 1;
  /// Optional explicit node -> shard placement, overriding the planner's
  /// link-locality partition for the named nodes (out-of-range shard
  /// indices wrap modulo the effective shard count).
  std::map<net::NodeName, uint32_t> shard_assignment;
  /// Optional metrics sink. When set, the emulation mirrors its message
  /// counters into the emu_* family and records convergence runs
  /// (events, wall time, virtual time) as counters/histograms. Forks
  /// inherit the pointer, so a scenario sweep's reconvergences aggregate
  /// into the same registry. nullptr = plain member counters only.
  obs::MetricsRegistry* metrics = nullptr;
};

/// External BGP speaker that injects context advertisements.
class ExternalPeer {
 public:
  ExternalPeer(ExternalPeerSpec spec, vrouter::Fabric& fabric);
  /// Deep copy onto a new fabric (the peer half of Emulation::fork()).
  ExternalPeer(const ExternalPeer& other, vrouter::Fabric& fabric);

  const ExternalPeerSpec& spec() const { return spec_; }
  bool established() const { return established_; }
  size_t updates_received() const { return updates_received_; }

  void handle(const proto::Message& message, size_t batch_size);

  /// Sends a BGP withdraw for `prefixes` (empty = every advertised route)
  /// to the router this peer established with. The spec's route set is
  /// left untouched: the withdrawal is a perturbation, not a respec.
  /// Returns false when no session is established.
  bool withdraw(const std::vector<net::Ipv4Prefix>& prefixes);

 private:
  ExternalPeerSpec spec_;
  vrouter::Fabric& fabric_;
  bool established_ = false;
  size_t updates_received_ = 0;
  /// Session endpoint learned from the router's Open (withdraw target).
  net::Ipv4Address remote_;
};

class Emulation final : public vrouter::Fabric {
 public:
  explicit Emulation(EmulationOptions options = {});
  ~Emulation() override;

  // -- construction ---------------------------------------------------------

  /// Parses every node's config in its dialect, creates routers, wires
  /// links, registers external peers. Per-node parse diagnostics (invalid
  /// lines the device CLI rejected) are kept in `parse_diagnostics`.
  util::Status add_topology(const Topology& topology);

  /// Adds a single pre-parsed router (test convenience).
  vrouter::VirtualRouter& add_router(config::DeviceConfig config);
  /// Wires a link. Non-positive latencies are clamped to 1us (a warning is
  /// logged): a zero-latency link would degenerate the sharded kernel's
  /// conservative lookahead horizon. add_topology rejects them outright.
  void add_link(const net::PortRef& a, const net::PortRef& b,
                int64_t latency_micros = 1000);
  void add_external_peer(ExternalPeerSpec spec);

  // -- lifecycle --------------------------------------------------------------

  /// Boots every router at t = now (+ optional per-node delay, e.g. the
  /// orchestrator's container boot model).
  void start_all();
  void start_node_after(const net::NodeName& node, util::Duration delay);

  /// Replaces one node's configuration (reconfiguration of an already-up
  /// router; converges much faster than initial bring-up, §4.1).
  util::Status apply_config_text(const net::NodeName& node, const std::string& text,
                                 config::Vendor vendor);

  /// Takes a link down / up. Returns false if no such link. Taking a link
  /// down drops frames already in flight on it (they are counted in
  /// `messages_dropped`), even if the link comes back up before their
  /// scheduled arrival — a flap kills the wire's contents.
  bool set_link_up(const net::PortRef& a, const net::PortRef& b, bool up);

  /// Makes external peer `peer` withdraw `prefixes` (empty = all of its
  /// advertised routes) from its established session. Returns false if no
  /// such peer exists or its session never established.
  bool withdraw_external_routes(const std::string& peer,
                                const std::vector<net::Ipv4Prefix>& prefixes = {});

  // -- execution ----------------------------------------------------------------

  EventKernel& kernel() { return kernel_; }
  const EventKernel& kernel() const { return kernel_; }

  /// Runs until the control plane quiesces. Returns false if `max_events`
  /// fired without quiescing (possible persistent oscillation). With
  /// options_.shards > 1 the run executes on the sharded kernel (bit-
  /// identical results; the cap is then checked at epoch granularity, so
  /// a capped run may overshoot the serial kernel's exact cut-off).
  bool run_to_convergence(uint64_t max_events = 100000000ull);

  /// Deep-copies the whole emulation: every router with its full protocol
  /// state, links, external peers, RNG state, and the virtual clock. Only
  /// valid when the kernel is idle (a converged base); returns nullptr
  /// otherwise, because pending event callbacks cannot be cloned. From the
  /// fork onward, the copy behaves identically to a cold re-run that was
  /// brought to the same converged state — same seed stream, same event
  /// ordering — which is the equivalence the scenario engine rests on
  /// (tests/test_scenario_fork.cpp proves it per perturbation kind).
  std::unique_ptr<Emulation> fork() const;

  /// Virtual time of the last forwarding change on any router — the
  /// "dataplane stabilized at all routers" timestamp of §5.
  util::TimePoint converged_at() const;

  // -- inspection -----------------------------------------------------------------

  vrouter::VirtualRouter* router(const net::NodeName& node);
  const vrouter::VirtualRouter* router(const net::NodeName& node) const;
  std::vector<net::NodeName> node_names() const;
  /// Reverse actor lookup for diagnostics (exploration witness output);
  /// empty string for kEnvActor / unknown ids. Linear over the actor
  /// table — not a hot path.
  net::NodeName actor_name(ActorId actor) const;
  const std::map<net::NodeName, config::DiagnosticList>& parse_diagnostics() const {
    return parse_diagnostics_;
  }
  const std::vector<std::unique_ptr<ExternalPeer>>& external_peers() const {
    return external_peers_;
  }

  /// gNMI-style dataplane dump of every router.
  std::vector<aft::DeviceAft> dump_afts() const;

  uint64_t messages_delivered() const { return messages_delivered_; }
  uint64_t messages_dropped() const { return messages_dropped_; }
  /// Times a run requested with shards > 1 had to execute on the serial
  /// kernel anyway (unattributed pending events, or a plan degenerating
  /// to <= 1 shard / a non-positive lookahead horizon).
  uint64_t serial_fallbacks() const { return serial_fallbacks_; }

  // -- vrouter::Fabric ----------------------------------------------------------
  void send_on_interface(const net::NodeName& node, const net::InterfaceName& interface,
                         const proto::Message& message) override;
  void send_addressed(const net::NodeName& node, net::Ipv4Address destination,
                      const proto::Message& message) override;
  void schedule(const net::NodeName& node, util::Duration delay,
                std::function<void()> fn) override;
  util::TimePoint now() const override {
    if (const ShardContext* ctx = current_shard_context(this)) return ctx->now;
    return kernel_.now();
  }

 private:
  struct LinkEnd {
    net::PortRef peer;
    int64_t latency_micros = 1000;
    bool up = true;
    /// Bumped on every up -> down transition. In-flight frames carry the
    /// epoch they were sent under and are dropped on mismatch, so a
    /// down/up flap faster than the link latency still kills them.
    uint64_t down_epoch = 0;
  };

  Emulation(const Emulation& other);

  /// Resolves the emu_* instruments from options_.metrics (both ctors).
  void wire_metrics();
  /// Counters route to the executing shard's context during a sharded run
  /// (merged into the members — and the registry mirrors — afterwards).
  void note_delivered() {
    if (ShardContext* ctx = current_shard_context(this)) {
      ++ctx->delivered;
      return;
    }
    ++messages_delivered_;
    if (delivered_counter_ != nullptr) delivered_counter_->add(1);
  }
  void note_dropped() {
    if (ShardContext* ctx = current_shard_context(this)) {
      ++ctx->dropped;
      return;
    }
    ++messages_dropped_;
    if (dropped_counter_ != nullptr) dropped_counter_->add(1);
  }

  /// Registers `name` as an actor on first sight, returning its dense id.
  ActorId register_actor(const net::NodeName& name);
  /// Looks an actor up without registering; kEnvActor when unknown.
  ActorId actor_of(const net::NodeName& name) const;
  /// Routes a new event to the executing shard's context during a sharded
  /// run, to the serial kernel otherwise. The tag survives only on the
  /// serial kernel — controlled (exploration) runs are always serial, so
  /// sharded runs dropping it is harmless.
  void schedule_event(ActorId emitter, ActorId owner, util::Duration delay,
                      util::SmallFn fn, DeliveryTag tag = {});
  /// run_to_convergence's engine: dispatches to the sharded runtime when
  /// options/state allow, else the serial kernel.
  bool run_events(uint64_t max_events);
  bool run_sharded(uint32_t shards, uint64_t max_events);

  /// Jitter draw charged to `emitter`'s private RNG stream. Per-actor
  /// streams make the draw order a function of each actor's own send
  /// sequence — identical under the serial and sharded kernels, and
  /// thread-private during a sharded run (the emitter's shard owns it).
  util::Duration jitter(ActorId emitter);
  void index_addresses(const config::DeviceConfig& config);
  void refresh_link_states();

  EmulationOptions options_;
  EventKernel kernel_;
  /// One RNG per dense actor id (slot 0 = kEnvActor), seeded from
  /// options_.seed with the actor id as the PCG stream selector. Grown in
  /// register_actor; forks copy mid-stream state.
  std::vector<util::Pcg32> actor_rngs_;

  std::map<net::NodeName, std::unique_ptr<vrouter::VirtualRouter>> routers_;
  /// Dense actor ids for event attribution (routers by hostname, external
  /// peers as "peer:<name>"), assigned at insertion. Forks copy the table
  /// so fork and base assign identical event keys.
  std::map<net::NodeName, ActorId> actor_ids_;
  ActorId next_actor_id_ = kEnvActor + 1;
  std::map<net::PortRef, LinkEnd> links_;
  std::vector<std::unique_ptr<ExternalPeer>> external_peers_;
  std::map<net::Ipv4Address, net::NodeName> address_owner_;
  std::map<net::Ipv4Address, ExternalPeer*> peer_addresses_;
  std::map<net::NodeName, config::DiagnosticList> parse_diagnostics_;
  /// Per (sender, destination) channel serialization: a later message on
  /// the same session cannot arrive before an earlier large one finished
  /// transferring (models TCP ordering + receiver processing).
  std::map<std::pair<net::NodeName, uint32_t>, util::TimePoint> channel_busy_until_;

  uint64_t messages_delivered_ = 0;
  uint64_t messages_dropped_ = 0;
  uint64_t serial_fallbacks_ = 0;

  /// Registry mirrors (null when options_.metrics is null). The plain
  /// members above stay authoritative per instance — a fork copies them
  /// but shares these instruments with its base.
  obs::Counter* delivered_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  obs::Counter* convergence_runs_counter_ = nullptr;
  obs::Counter* events_counter_ = nullptr;
  /// Sums of the routers' own FIB work counters over each run.
  obs::Counter* fib_compiles_counter_ = nullptr;
  obs::Counter* fib_entries_counter_ = nullptr;
  obs::Histogram* convergence_wall_us_ = nullptr;
  obs::Histogram* convergence_virtual_us_ = nullptr;
  obs::Counter* sharded_runs_counter_ = nullptr;
  obs::Counter* serial_fallbacks_counter_ = nullptr;
  obs::Counter* shard_epochs_counter_ = nullptr;
  obs::Histogram* shard_events_per_run_ = nullptr;
  obs::Histogram* shard_barrier_stall_us_ = nullptr;
};

}  // namespace mfv::emu
